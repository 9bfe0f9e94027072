(** Supervised encrypted-inference service (DESIGN.md §9).

    CHET's deployment model is compile-once / infer-many (§3.2): parameter
    and layout selection, key generation and scale search happen offline,
    then one fixed deployment answers a stream of encrypted requests. This
    module is the serving substrate around that stream: a bounded job queue
    feeding a pool of OCaml 5 domain workers, with

    - {b deadlines}: every request carries a latency budget, enforced by
      elapsed time alone (DESIGN.md §13): a request whose deadline passes
      while queued is never started, and a caller whose deadline passes
      mid-inference gets a typed [Deadline_exceeded] while the abandoned
      attempt is freed at the executor's next plan-step boundary via its
      cancel token — a worker is lost for one step, not one inference. A
      request that cannot make its deadline always ends as
      [Deadline_exceeded]; it is never rerouted to a degraded rung;
    - {b retries}: transient typed failures ([Numeric_blowup],
      [Corrupt_ciphertext], and the other checked-backend detections) are
      retried with capped exponential backoff + jitter, within the deadline;
    - {b load shedding}: once the queue reaches its high-water mark, new
      requests are rejected immediately with a typed [Overloaded] — an
      honest fast "try again later" instead of a slow deadline miss;
    - {b graceful degradation}: the service owns a {e ladder} of deployments
      (full-precision first, reduced-scale rungs after, optionally a
      cleartext simulation as last resort). A per-rung circuit breaker trips
      after consecutive hard failures ([Modulus_exhausted], exhausted
      retries) and routes traffic to the next rung — with the response
      carrying an explicit [degraded : true] — then half-opens and probes
      its way back.

    Every rung executes a prepared plan ({!Chet_plan.Plan_exec}, DESIGN.md
    §14) — primary, reduced-scale and cleartext alike, with or without
    sentinel verification.

    Determinism: a request's answer is a pure function of (image, request
    seed, serving rung) — each attempt's encryption randomness is derived
    from [(req_seed, attempt)] alone, so N concurrent domains produce
    results bit-identical to sequential execution (asserted by
    test/test_serve.ml). *)

module Herr = Chet_hisa.Herr
module Hisa = Chet_hisa.Hisa
module Kernels = Chet_runtime.Kernels
module Plan = Chet_plan.Plan
module Circuit = Chet_nn.Circuit
module Tensor = Chet_tensor.Tensor
module Compiler = Chet.Compiler

(** {1 Deployments and the degradation ladder} *)

type rung_backend =
  | Shared of Compiler.keyset
      (** One key generation shared by every worker: each worker prepares
          the rung's plan once — weight and mask plaintexts encoded, kernels
          staged — over its own view of the keyset, and reseeds that view's
          sampler for every attempt ({!Compiler.reseed} with the request
          seed perturbed by the attempt index). *)
  | Per_attempt of (req_seed:int -> attempt:int -> Hisa.t)
      (** A fresh backend per attempt — for backends that differ between
          attempts (fault injection, artificial delays). The rung's plan is
          prepared on it per attempt. Implementations should derive
          encryption randomness from [req_seed] and [attempt] alone. *)

type deployment = {
  dep_label : string;  (** e.g. ["primary"], ["reduced-scale-1"], ["clear-sim"] *)
  dep_degraded : bool;  (** surfaced as [degraded] on every response it serves *)
  dep_scales : Kernels.scales;
  dep_plan : Plan.t;
      (** The plan the rung runs, prepared at [dep_scales]
          ({!Compiler.plan}): its slot count must be the backend's, and its
          twin flag the compile's — a sentinel compile's rotation keys cover
          only the twin layout's doubled rotation amounts. *)
  dep_backend : rung_backend;
  dep_sentinel : Chet.Integrity.spec option;
      (** When present, every answer this rung produces is verified against
          the sentinel lane (DESIGN.md §16): the probe rides the odd twin
          slots through the whole plan and its decrypted value must match
          the clear-reference prediction within the spec's tolerance. A
          mismatch surfaces as a typed [Integrity_violation] — transient, so
          the attempt is retried with fresh randomness (and, over the
          network, on a different shard). Requires a twin [dep_plan]. *)
}

val ladder_of_compiled :
  Compiler.compiled ->
  seed:int ->
  ?rotation_keys:Compiler.rotation_key_policy ->
  ?reduced_rungs:int ->
  ?clear_fallback:bool ->
  ?sentinel:Chet.Integrity.spec ->
  with_secret:bool ->
  unit ->
  deployment list
(** Build the default degradation ladder from a compiled circuit: one
    {!Compiler.keyset} (a single key generation) serves every FHE rung.
    Rung 0 is the full deployment at the compiled parameters; each of the
    [reduced_rungs] (default 1) shares its keyset with scale exponents
    shrunk along the {!Chet.Scale_select} fallback ladder (lower precision,
    more modulus headroom, marked degraded) and prepares the plan at those
    scales; if [clear_fallback] (default true) the last rung executes on
    the cleartext {!Chet_hisa.Clear_backend} with the same virtual scheme —
    an availability-over-confidentiality last resort that callers can veto.
    Every rung is [Shared]: prepared once per worker.

    The geometry is the compile's ({!Compiler.plan}): every rung of a
    circuit compiled with [opts.sentinel = true] runs the twin plan, with
    or without [?sentinel]. With [?sentinel] the primary and cleartext
    rungs verify every answer against the sentinel lane; reduced rungs run
    unverified — their deliberate precision loss would trip the
    full-precision tolerance.
    @raise Invalid_argument when [?sentinel] is given for a circuit not
    compiled with [opts.sentinel]. *)

val ladder_of_keyset :
  Compiler.compiled ->
  keyset:Compiler.keyset ->
  ?reduced_rungs:int ->
  ?clear_fallback:bool ->
  ?sentinel:Chet.Integrity.spec ->
  unit ->
  deployment list
(** {!ladder_of_compiled} around an already-instantiated keyset — what a
    warm restart hands over after {!Chet_store.Bundle.restore_keyset}
    rebuilt it from a stored bundle instead of regenerating it. Every rung
    runs {!Compiler.plan} of [compiled]; a bundle stores no plan. *)

(** {1 Configuration} *)

type config = {
  domains : int;  (** pool width *)
  high_water : int;  (** queue depth beyond which requests are shed *)
  max_retries : int;  (** per-rung retry budget for transient failures *)
  backoff_base_ms : float;
  backoff_cap_ms : float;
  backoff_jitter : float;  (** fraction of the delay randomised, in [0,1] *)
  breaker_threshold : int;  (** consecutive rung failures before it trips *)
  breaker_cooldown_ms : float;
  default_deadline_ms : float;
  now : unit -> float;  (** injectable clock, seconds *)
  sleep_ms : float -> unit;  (** injectable sleep (backoff, await polling) *)
}

val default_config : ?domains:int -> unit -> config

(** {1 Requests and outcomes} *)

type outcome = {
  out_id : int;
  out_result : (Tensor.t, Herr.error * Herr.context) result;
  out_served_by : string;  (** label of the rung that answered ([""] if none ran) *)
  out_degraded : bool;  (** the explicit degraded flag of the response *)
  out_attempts : int;
      (** inference attempts across all rungs (so far, when the caller's
          deadline fired first) *)
  out_queue_ms : float;  (** submission -> worker pickup *)
  out_total_ms : float;  (** submission -> outcome *)
  out_margin_bits : float;
      (** measured sentinel margin of the winning attempt; [nan] when the
          serving rung ran without a sentinel lane (DESIGN.md §16) *)
  out_sentinel : float array;
      (** decrypted sentinel twin lane, [[||]] when unverified — carried to
          the wire so clients can re-verify independently of the shard *)
}

type ticket

type t

val create : config -> circuit:Circuit.t -> ladder:deployment list -> t
(** @raise Invalid_argument on an empty ladder, on a rung whose plan was
    built for another circuit (compared by name, node count and input and
    output shapes), and on a verified rung ([dep_sentinel]) whose plan is
    not twin. *)

val submit : t -> ?deadline_ms:float -> ?seed:int -> Tensor.t -> ticket
(** Non-blocking admission. A request arriving over the high-water mark is
    shed: its ticket already holds an [Overloaded] outcome. [seed] defaults
    to the request id. *)

val await : t -> ticket -> outcome
(** Block (polling on the injected clock) until the outcome is ready or the
    request's deadline passes — in which case the in-flight attempt is
    abandoned and a [Deadline_exceeded] outcome returned. *)

val infer : t -> ?deadline_ms:float -> ?seed:int -> Tensor.t -> outcome
(** [submit] composed with [await]. *)

val cancel : ticket -> reason:string -> unit
(** Cooperative cancellation (DESIGN.md §13): trip the request's cancel
    token with an explicit reason (e.g. a [CNCL] wire frame, or a hedge
    sibling winning). First trip wins and the call is idempotent. A queued
    request dies at dequeue without touching a backend; a running one is
    freed at the executor's next plan-step boundary, delivering a typed
    [Cancelled] that carries the node at which the worker noticed. *)

val ticket_id : ticket -> int
(** The service-assigned request id (matches [out_id] of the outcome). *)

val shutdown : t -> unit
(** Close the queue, drain in-flight work, join the worker domains and drop
    their prepared plans. *)

(** {1 Graceful drain}

    The SIGTERM protocol (DESIGN.md §12): {!begin_drain} flips the service
    into refuse-new-admits mode — every subsequent {!submit} is shed with a
    typed [Overloaded] — while requests already admitted run to their
    outcomes; {!drain} then waits for the in-flight count to reach zero.
    The networked shard worker composes these as
    [begin_drain; drain; persist state; exit 0]. *)

val begin_drain : t -> unit
(** Stop admitting. Idempotent; already-admitted requests are unaffected. *)

val is_draining : t -> bool

val inflight : t -> int
(** Requests admitted but not yet delivered an outcome. *)

val drain : t -> timeout_ms:float -> bool
(** Block (polling the injected clock) until {!inflight} reaches zero;
    [false] if [timeout_ms] elapsed first. *)

(** {1 Introspection} *)

type stats = {
  s_submitted : int;
  s_succeeded : int;
  s_failed : int;  (** typed failure other than shed/deadline *)
  s_shed : int;
  s_deadline : int;
  s_degraded : int;  (** successes served by a degraded rung *)
  s_retries : int;  (** attempts beyond the first, summed over requests *)
  s_breaker_trips : int;  (** summed over rungs *)
  s_worker_crashes : int;  (** non-FHE exceptions converted to [Worker_crashed] *)
  s_late_results : int;  (** attempts that finished after their caller gave up *)
  s_cancelled : int;  (** outcomes delivered as typed [Cancelled] *)
  s_integrity_failures : int;
      (** attempts whose sentinel lane failed verification (each retried or
          degraded per {!transient_error}) *)
  s_queue : Queue.stats;
  s_latency_p50_ms : float;
  s_latency_p95_ms : float;
  s_latency_p99_ms : float;
      (** total-latency quantiles of every finished outcome, read off the
          [chet_serve_latency_seconds] histogram ({!Chet_obs.Metrics.quantile});
          [nan] before the first outcome *)
}

val stats : t -> stats
(** The service's counters as {!metrics_snapshot} exposes them — one ledger,
    read counter by counter (not an atomic snapshot while requests are in
    flight). *)

val breaker_states : t -> (string * Breaker.state) list

val metrics_snapshot : t -> string
(** Prometheus text exposition of the service's private
    {!Chet_obs.Metrics} registry: request counters
    ([chet_serve_requests_*_total]), retry/crash/late counters, the
    [chet_serve_latency_seconds] histogram, and point-in-time gauges for
    per-rung breaker state and queue depths (refreshed at snapshot time).
    [chet serve --metrics-dump] prints this after its demo run. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100]; nearest-rank on a sorted copy;
    [nan] on empty input. *)

val transient_error : Herr.error -> bool
(** The retry classification: checked-backend detections that a fresh
    attempt can plausibly clear (scale/level lies, corrupt decode, NaN
    poison, dropped rescale). Hard failures — [Modulus_exhausted],
    structural shape/key errors, [Worker_crashed] — skip the retry budget
    and count toward the rung's breaker immediately. *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 State persistence}

    The serving layer's learned state — each rung's circuit-breaker memory —
    survives a clean restart (DESIGN.md §11): [chet serve --state-dir]
    persists it as a store sidecar on graceful shutdown and restores it on
    boot, so a rung that was known-broken before the restart stays tripped
    instead of costing [breaker_threshold] fresh failures to re-learn. *)

val state_to_string : t -> string
(** The per-rung breaker snapshots as an [SRVC] checksum frame, keyed by
    rung label. Clock-free: open breakers record {e remaining} cooldown. *)

val restore_state : t -> string -> (int, Herr.error) result
(** Apply a {!state_to_string} payload: rungs are matched by label (unknown
    labels are ignored — the ladder may have changed shape across the
    restart); returns how many rungs were restored. [Error] carries a typed
    {!Herr.Corrupt_bundle} if the payload fails its integrity check. *)

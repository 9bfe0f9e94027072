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
      [Deadline_exceeded];
    - {b retries}: transient typed failures ([Numeric_blowup],
      [Corrupt_ciphertext], and the other checked-backend detections) are
      retried with capped exponential backoff + jitter, within the deadline;
    - {b load shedding}: once the queue reaches its high-water mark, new
      requests are rejected immediately with a typed [Overloaded] — an
      honest fast "try again later" instead of a slow deadline miss;
    - {b one deployment}: a service serves exactly the deployment it was
      created with — the compiled parameters, its keys and its plan, as in
      CHET's compile-once / infer-many model (Figure 3). A request that
      exhausts its retries, or fails hard, ends in its typed error; it is
      never answered from a different scale or from the plaintext.

    The deployment executes a prepared plan ({!Chet_plan.Plan_exec},
    DESIGN.md §14), with or without sentinel verification.

    Determinism: a request's answer is a pure function of (image, request
    seed, deployment) — each attempt's encryption randomness is derived
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

(** {1 The deployment} *)

type backend =
  | Shared of Compiler.keyset
      (** One key generation shared by every worker: each worker prepares
          the deployment's plan once — weight and mask plaintexts encoded,
          kernels staged — over its own view of the keyset, and reseeds that
          view's sampler for every attempt ({!Compiler.reseed} with the
          request seed perturbed by the attempt index). *)
  | Per_attempt of (req_seed:int -> attempt:int -> Hisa.t)
      (** A fresh backend per attempt — for backends that differ between
          attempts (fault injection, artificial delays). The plan is
          prepared on it per attempt. Implementations should derive
          encryption randomness from [req_seed] and [attempt] alone. *)

type deployment = {
  dep_label : string;  (** e.g. ["primary"]; carried as [served_by] on the wire *)
  dep_scales : Kernels.scales;
  dep_plan : Plan.t;
      (** The plan the deployment runs, prepared at [dep_scales]
          ({!Compiler.plan}): its slot count must be the backend's, and its
          twin flag the compile's — a sentinel compile's rotation keys cover
          only the twin layout's doubled rotation amounts. *)
  dep_backend : backend;
  dep_sentinel : Chet.Integrity.spec option;
      (** When present, every answer is verified against the sentinel lane
          (DESIGN.md §16): the probe rides the odd twin slots through the
          whole plan and its decrypted value must match the clear-reference
          prediction within the spec's tolerance. A mismatch surfaces as a
          typed [Integrity_violation] — transient, so the attempt is retried
          with fresh randomness (and, over the network, on a different
          shard). Requires a twin [dep_plan]. *)
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
  deployment
(** The deployment of a compiled circuit: one {!Compiler.keyset} (a single
    key generation) at the compiled parameters, labelled ["primary"], every
    worker preparing its plan once ([Shared]).

    The geometry is the compile's ({!Compiler.plan}): a circuit compiled
    with [opts.sentinel = true] runs the twin plan, with or without
    [?sentinel]; with [?sentinel] every answer is verified against the
    sentinel lane.

    [?reduced_rungs] and [?clear_fallback] are accepted only at [0] and
    [false] — the frozen end-to-end benchmark still passes them, until a
    benchmark change drops them.
    @raise Invalid_argument when [?sentinel] is given for a circuit not
    compiled with [opts.sentinel], or for any other [?reduced_rungs] or
    [?clear_fallback]. *)

val ladder_of_keyset :
  Compiler.compiled -> keyset:Compiler.keyset -> ?sentinel:Chet.Integrity.spec -> unit -> deployment
(** {!ladder_of_compiled} around an already-instantiated keyset — what a
    warm restart hands over after {!Chet_store.Bundle.restore_keyset}
    rebuilt it from a stored bundle instead of regenerating it. The plan is
    {!Compiler.plan} of [compiled]; a bundle stores no plan. *)

(** {1 Configuration} *)

type config = {
  domains : int;  (** pool width *)
  high_water : int;  (** queue depth beyond which requests are shed *)
  max_retries : int;  (** retry budget for transient failures *)
  backoff_base_ms : float;
  backoff_cap_ms : float;
  backoff_jitter : float;  (** fraction of the delay randomised, in [0,1] *)
  default_deadline_ms : float;
  now : unit -> float;  (** injectable clock, seconds *)
  sleep_ms : float -> unit;  (** injectable sleep (backoff, await polling) *)
}

val default_config : ?domains:int -> unit -> config

(** {1 Requests and outcomes} *)

type outcome = {
  out_id : int;
  out_result : (Tensor.t, Herr.error * Herr.context) result;
  out_served_by : string;
      (** label of the deployment that ran the request, answer or error;
          [""] when no attempt started *)
  out_degraded : bool;
      (** always [false]: kept only because the frozen end-to-end benchmark
          reads it, until a benchmark change removes it *)
  out_attempts : int;
      (** inference attempts (so far, when the caller's deadline fired
          first) *)
  out_queue_ms : float;  (** submission -> worker pickup *)
  out_total_ms : float;  (** submission -> outcome *)
  out_margin_bits : float;
      (** measured sentinel margin of the winning attempt; [nan] when the
          deployment ran without a sentinel lane (DESIGN.md §16) *)
  out_sentinel : float array;
      (** decrypted sentinel twin lane, [[||]] when unverified — carried to
          the wire so clients can re-verify independently of the shard *)
}

type ticket

type t

val create : config -> circuit:Circuit.t -> ladder:deployment -> t
(** Serve [ladder], the one deployment.
    @raise Invalid_argument on a plan built for another circuit (compared
    by name, node count and input and output shapes), and on a verified
    deployment ([dep_sentinel]) whose plan is not twin. *)

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

val shutdown : t -> unit
(** Close the queue, drain in-flight work, join the worker domains and drop
    their prepared plans. *)

(** {1 Graceful drain}

    The SIGTERM protocol (DESIGN.md §12): {!begin_drain} flips the service
    into refuse-new-admits mode — every subsequent {!submit} is shed with a
    typed [Overloaded] — while requests already admitted run to their
    outcomes; {!drain} then waits for the in-flight count to reach zero.
    The networked shard worker composes these as
    [begin_drain; drain; exit 0]. *)

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
  s_degraded : int;
      (** always [0]: kept only because the frozen end-to-end benchmark
          reads it, until a benchmark change removes it *)
  s_retries : int;  (** attempts beyond the first, summed over requests *)
  s_worker_crashes : int;  (** non-FHE exceptions converted to [Worker_crashed] *)
  s_late_results : int;  (** attempts that finished after their caller gave up *)
  s_cancelled : int;  (** outcomes delivered as typed [Cancelled] *)
  s_integrity_failures : int;
      (** attempts whose sentinel lane failed verification (each retried
          per {!transient_error}) *)
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

val metrics_snapshot : t -> string
(** Prometheus text exposition of the service's private
    {!Chet_obs.Metrics} registry: request counters
    ([chet_serve_requests_*_total]), retry/crash/late counters, the
    [chet_serve_latency_seconds] histogram, and point-in-time queue gauges
    (refreshed at snapshot time). [chet serve --metrics-dump] prints this
    after its demo run. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100]; nearest-rank on a sorted copy;
    [nan] on empty input. *)

val transient_error : Herr.error -> bool
(** The retry classification: checked-backend detections that a fresh
    attempt can plausibly clear (scale/level lies, corrupt decode, NaN
    poison, dropped rescale, sentinel mismatch). Hard failures —
    [Modulus_exhausted], structural shape/key errors, [Worker_crashed] —
    skip the retry budget and end the request at once. *)

val pp_stats : Format.formatter -> stats -> unit

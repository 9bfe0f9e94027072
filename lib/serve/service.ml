(* The supervised encrypted-inference service: bounded queue -> domain pool
   -> one deployment, with deadlines and retries.
   Interface documentation in service.mli; architecture in DESIGN.md §9. *)

module Herr = Chet_hisa.Herr
module Hisa = Chet_hisa.Hisa
module Cancel = Chet_hisa.Cancel
module Kernels = Chet_runtime.Kernels
module Plan = Chet_plan.Plan
module Plan_exec = Chet_plan.Plan_exec
module Sampling = Chet_crypto.Sampling
module Circuit = Chet_nn.Circuit
module Tensor = Chet_tensor.Tensor
module Compiler = Chet.Compiler
module Integrity = Chet.Integrity
module Metrics = Chet_obs.Metrics

(* ------------------------------------------------------------------ *)
(* The deployment                                                       *)
(* ------------------------------------------------------------------ *)

type backend =
  | Shared of Compiler.keyset
      (* one keygen shared by every worker: each worker prepares the plan
         once over its own view and reseeds that view's sampler per attempt *)
  | Per_attempt of (req_seed:int -> attempt:int -> Hisa.t)
      (* a fresh backend per attempt (fault injection, gating): the plan is
         prepared on it per attempt *)

type deployment = {
  dep_label : string;
  dep_scales : Kernels.scales;
  dep_plan : Plan.t;
      (* its twin flag is the compile's, so it always agrees with the keys'
         rotation amounts *)
  dep_backend : backend;
  dep_sentinel : Integrity.spec option;
      (* verify every answer against the sentinel lane (DESIGN.md §16) *)
}

let ladder_of_keyset compiled ~(keyset : Compiler.keyset) ?sentinel () =
  let opts = compiled.Compiler.opts in
  (* the compile decided the geometry: a sentinel compile's rotation keys
     cover only the twin layout's doubled amounts, so the deployment runs
     twin whether or not it verifies, and verification needs a twin compile *)
  if sentinel <> None && not opts.Compiler.sentinel then
    invalid_arg "Service.ladder_of_keyset: ?sentinel needs a circuit compiled with opts.sentinel";
  {
    dep_label = "primary";
    dep_scales = opts.Compiler.scales;
    dep_plan = Compiler.plan compiled;
    dep_backend = Shared keyset;
    dep_sentinel = sentinel;
  }

(* [?reduced_rungs] and [?clear_fallback] remain only because the frozen
   end-to-end benchmark passes them (at 0 and false) *)
let ladder_of_compiled compiled ~seed ?rotation_keys ?(reduced_rungs = 0) ?(clear_fallback = false)
    ?sentinel ~with_secret () =
  if reduced_rungs <> 0 || clear_fallback then
    invalid_arg "Service.ladder_of_compiled: a service serves one deployment";
  let keyset = Compiler.keyset compiled ~seed ?rotation_keys ~with_secret () in
  ladder_of_keyset compiled ~keyset ?sentinel ()

(* ------------------------------------------------------------------ *)
(* Configuration                                                        *)
(* ------------------------------------------------------------------ *)

type config = {
  domains : int;
  high_water : int;
  max_retries : int;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  backoff_jitter : float;
  default_deadline_ms : float;
  now : unit -> float;
  sleep_ms : float -> unit;
}

let default_config ?domains () =
  let domains =
    match domains with
    | Some d -> d
    | None -> Stdlib.max 1 (Stdlib.min 4 (Domain.recommended_domain_count () - 1))
  in
  {
    domains;
    high_water = 64;
    max_retries = 2;
    backoff_base_ms = 5.0;
    backoff_cap_ms = 100.0;
    backoff_jitter = 0.2;
    default_deadline_ms = 300_000.0;
    (* monotonic by default — deadlines must not move with wall-clock
       adjustments; tests inject a manual clock instead *)
    now = Chet_obs.Clock.now_s;
    sleep_ms = (fun ms -> if ms > 0.0 then Unix.sleepf (ms /. 1000.0));
  }

(* ------------------------------------------------------------------ *)
(* Requests and outcomes                                                *)
(* ------------------------------------------------------------------ *)

type outcome = {
  out_id : int;
  out_result : (Tensor.t, Herr.error * Herr.context) result;
  out_served_by : string;
  out_degraded : bool;  (* always false: read only by the frozen end-to-end benchmark *)
  out_attempts : int;
  out_queue_ms : float;
  out_total_ms : float;
  out_margin_bits : float;
      (* measured sentinel margin of the winning attempt; nan when the
         deployment ran without a sentinel lane (DESIGN.md §16) *)
  out_sentinel : float array;
      (* decrypted sentinel twin lane, [||] when unverified — carried to the
         wire so clients can re-verify independently of the shard *)
}

(* The rendezvous between the submitting caller and the worker. No timed
   condition-variable wait exists in the stdlib, so [await] polls the cell
   under its mutex on the injected clock — a few microseconds of lock
   traffic per poll against inferences measured in milliseconds. *)
type cell = { cm : Mutex.t; mutable result : outcome option; mutable abandoned : bool }

type ticket = {
  req_id : int;
  req_image : Tensor.t;
  req_seed : int;
  req_budget_ms : float;
  req_deadline : float;  (* absolute, on the service clock *)
  req_submitted : float;
  req_cancel : Cancel.t;
      (* one token per request, armed with the deadline on the service
         clock; threaded through the pool into the executor's per-step
         poll (DESIGN.md §13) *)
  req_attempts : int Atomic.t;
      (* attempts a worker has started so far: the worker's outcome and the
         one [await] builds when the deadline passes first carry the same
         count *)
  cell : cell;
}

(* The service's one ledger: a per-service metrics registry (so concurrent
   services — and tests — never share state) of request counters plus an
   end-to-end latency histogram. [stats] reads it back; [metrics_snapshot]
   renders it as text exposition. *)
type metric_handles = {
  registry : Metrics.t;
  mx_submitted : Metrics.counter;
  mx_succeeded : Metrics.counter;
  mx_failed : Metrics.counter;
  mx_shed : Metrics.counter;
  mx_deadline : Metrics.counter;
  mx_retries : Metrics.counter;
  mx_worker_crashes : Metrics.counter;
  mx_late : Metrics.counter;
  mx_cancelled : Metrics.counter;
  mx_integrity : Metrics.counter;
  mx_margin : Metrics.gauge;
  mx_latency : Metrics.histogram;
}

let make_metrics () =
  let registry = Metrics.create () in
  let c name help = Metrics.counter registry ~help name in
  {
    registry;
    mx_submitted = c "chet_serve_requests_submitted_total" "requests admitted or shed at submit";
    mx_succeeded = c "chet_serve_requests_succeeded_total" "requests answered with a tensor";
    mx_failed = c "chet_serve_requests_failed_total" "typed failures other than shed/deadline";
    mx_shed = c "chet_serve_requests_shed_total" "requests rejected at the high-water mark";
    mx_deadline = c "chet_serve_requests_deadline_total" "requests that exceeded their deadline";
    mx_retries = c "chet_serve_retries_total" "inference attempts beyond the first";
    mx_worker_crashes = c "chet_serve_worker_crashes_total" "non-FHE exceptions in workers";
    mx_late = c "chet_serve_late_results_total" "results finished after the caller gave up";
    mx_cancelled = c "chet_serve_requests_cancelled_total" "outcomes delivered as typed Cancelled";
    mx_integrity =
      c "chet_integrity_failures_total" "attempts whose sentinel lane failed verification";
    mx_margin =
      Metrics.gauge registry
        ~help:"measured precision headroom of the last verified answer, log2(tolerance/deviation)"
        "chet_serve_sentinel_margin_bits";
    mx_latency =
      Metrics.histogram registry ~help:"end-to-end request latency" ~lo:1e-4 ~growth:2.0
        ~buckets:28 "chet_serve_latency_seconds";
  }

type stats = {
  s_submitted : int;
  s_succeeded : int;
  s_failed : int;
  s_shed : int;
  s_deadline : int;
  s_degraded : int;  (* always 0: read only by the frozen end-to-end benchmark *)
  s_retries : int;
  s_worker_crashes : int;
  s_late_results : int;
  s_cancelled : int;
  s_integrity_failures : int;
  s_queue : Queue.stats;
  s_latency_p50_ms : float;
  s_latency_p95_ms : float;
  s_latency_p99_ms : float;
}

type t = {
  cfg : config;
  dep : deployment;
  prepared : (Sampling.t * Plan_exec.runner) option array;
      (* per worker: the [Shared] deployment's prepared plan and the sampler
         its view draws from. Each worker only touches its own slot, so no
         lock. *)
  queue : Pool.job Queue.t;
  pool : Pool.t;
  next_id : int Atomic.t;
  mx : metric_handles;
  (* graceful drain (DESIGN.md §12): once [draining], new admissions are
     refused with a typed [Overloaded] while everything already admitted
     runs to its outcome; [inflight_count] tracks admitted-but-undelivered
     requests so [drain] knows when the pipe is empty. *)
  draining : bool Atomic.t;
  inflight_count : int Atomic.t;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let transient_error = function
  | Herr.Scale_mismatch _ | Herr.Level_mismatch _ | Herr.Illegal_rescale _
  | Herr.Numeric_blowup _ | Herr.Corrupt_ciphertext _
  (* a torn/bit-flipped wire frame is the network twin of a corrupt
     ciphertext: a fresh attempt over a fresh connection can clear it *)
  | Herr.Corrupt_frame _
  (* a sentinel mismatch means *this attempt's* ciphertexts went bad; a
     fresh attempt (different derived randomness, and — over the network —
     a different shard) can produce a clean answer *)
  | Herr.Integrity_violation _ ->
      true
  | Herr.Modulus_exhausted _ | Herr.Slot_overflow _ | Herr.Shape_mismatch _ | Herr.Missing_node _
  | Herr.Missing_rotation_key _ | Herr.Invalid_op _ | Herr.Overloaded _
  | Herr.Deadline_exceeded _ | Herr.Worker_crashed _ | Herr.Corrupt_bundle _
  (* the requester no longer wants the answer; retrying would be the exact
     wasted work cancellation exists to avoid *)
  | Herr.Cancelled _ ->
      false

(* ------------------------------------------------------------------ *)
(* Worker side                                                          *)
(* ------------------------------------------------------------------ *)

(* The prepared plan an attempt runs. Different attempts of one request must
   not replay the identical encryption randomness (a deterministic
   corruption would simply recur), so the attempt index perturbs the
   request seed. *)
let runner_for t ~worker ~req_seed ~attempt =
  let dep = t.dep in
  match dep.dep_backend with
  | Per_attempt backend ->
      Plan_exec.prepare_runner ~pt_budget:0 (backend ~req_seed ~attempt) dep.dep_scales dep.dep_plan
  | Shared keys ->
      let rng, run =
        match t.prepared.(worker) with
        | Some w -> w
        | None ->
            let rng = Sampling.create ~seed:keys.Compiler.ks_seed in
            let w =
              (rng, Plan_exec.prepare_runner (keys.Compiler.ks_view rng) dep.dep_scales dep.dep_plan)
            in
            t.prepared.(worker) <- Some w;
            w
      in
      Compiler.reseed keys rng ~req_seed:(req_seed + (attempt * 7919));
      run

let run_attempt t req ~attempt ~worker =
  try
    let run = runner_for t ~worker ~req_seed:req.req_seed ~attempt in
    let margin = ref Float.nan in
    let lane = ref [||] in
    let sentinel =
      Option.map
        (fun spec ->
          Integrity.sentinel
            ~observe:(fun twin ->
              (* the *measured* precision headroom of this answer *)
              let m = Integrity.margin_bits spec twin in
              margin := m;
              lane := Array.copy twin.Tensor.data;
              Metrics.set_gauge t.mx.mx_margin m)
            spec)
        t.dep.dep_sentinel
    in
    let tensor = run ~cancel:req.req_cancel ?sentinel req.req_image in
    Ok (tensor, !margin, !lane)
  with
  | Herr.Fhe_error ((Herr.Integrity_violation _ as e), c) ->
      Metrics.incr t.mx.mx_integrity;
      Error (e, c)
  | Herr.Fhe_error (e, c) -> Error (e, c)
  | exn ->
      (* a non-FHE exception is a backend bug: convert it to the typed
         taxonomy so it flows through retry/outcome like any other failure —
         and never takes the worker domain down *)
      Metrics.incr t.mx.mx_worker_crashes;
      Error
        ( Herr.Worker_crashed { worker; reason = Printexc.to_string exn },
          Herr.context ~backend:t.dep.dep_label "infer" )

(* Sleep before the next retry — clamped to the request's remaining budget,
   and honest about exhaustion: [`Exhausted] means the budget ran out before
   or during the sleep, and the caller must fail fast with the typed
   [Deadline_exceeded] instead of burning another attempt it cannot finish. *)
let backoff t req ~attempt =
  let base = t.cfg.backoff_base_ms *. (2.0 ** float_of_int attempt) in
  let d = Float.min t.cfg.backoff_cap_ms base in
  let jit =
    (* jitter is seeded from (req_seed, attempt) alone — not a shared RNG
       behind a mutex — so a request's backoff schedule is a pure function
       of the request, independent of scheduling order, like its answer *)
    let rng = Random.State.make [| 0x5e12e; req.req_seed; attempt |] in
    d *. t.cfg.backoff_jitter *. (Random.State.float rng 2.0 -. 1.0)
  in
  let remaining_ms = (req.req_deadline -. t.cfg.now ()) *. 1000.0 in
  if remaining_ms <= 0.0 then `Exhausted
  else begin
    let d = Float.min (Float.max 0.0 (d +. jit)) remaining_ms in
    if d > 0.0 then t.cfg.sleep_ms d;
    if t.cfg.now () >= req.req_deadline then `Exhausted else `Slept
  end

let deadline_error req ~elapsed_ms ~op =
  ( Herr.Deadline_exceeded { budget_ms = req.req_budget_ms; elapsed_ms },
    Herr.context ~backend:"serve" op )

(* Hand the outcome to the caller — unless the caller already gave up, in
   which case the computed result is discarded (and counted: a late result
   is wasted work the deadline was supposed to prevent). The ledger is
   updated before the outcome is published, so a caller holding an outcome
   reads stats that already count it. *)
let deliver t req out =
  Atomic.decr t.inflight_count;
  with_lock req.cell.cm (fun () ->
      if req.cell.abandoned then Metrics.incr t.mx.mx_late
      else begin
        Metrics.incr ~by:(Stdlib.max 0 (out.out_attempts - 1)) t.mx.mx_retries;
        Metrics.observe t.mx.mx_latency (out.out_total_ms /. 1000.0);
        (match out.out_result with
        | Ok _ -> Metrics.incr t.mx.mx_succeeded
        | Error (Herr.Deadline_exceeded _, _) -> Metrics.incr t.mx.mx_deadline
        | Error (Herr.Cancelled _, _) -> Metrics.incr t.mx.mx_cancelled
        | Error _ -> Metrics.incr t.mx.mx_failed);
        if req.cell.result = None then req.cell.result <- Some out
      end)

let abandoned req = with_lock req.cell.cm (fun () -> req.cell.abandoned)

(* The outcome's [served_by]: the deployment, once an attempt has started. *)
let served_by t attempts = if attempts > 0 then t.dep.dep_label else ""

let process t req ~worker =
  let pickup = t.cfg.now () in
  let queue_ms = (pickup -. req.req_submitted) *. 1000.0 in
  let elapsed_ms () = (t.cfg.now () -. req.req_submitted) *. 1000.0 in
  let mk ?(margin_bits = Float.nan) ?(sentinel = [||]) result =
    let attempts = Atomic.get req.req_attempts in
    {
      out_id = req.req_id;
      out_result = result;
      out_served_by = served_by t attempts;
      out_degraded = false;
      out_attempts = attempts;
      out_queue_ms = queue_ms;
      out_total_ms = elapsed_ms ();
      out_margin_bits = margin_bits;
      out_sentinel = sentinel;
    }
  in
  (* expired or cancelled while queued: never start work (not even backend
     construction — key generation is the expensive part) the caller no
     longer wants *)
  let dead_at_dequeue =
    match Cancel.status req.req_cancel with
    | Some Cancel.Deadline -> Some (deadline_error req ~elapsed_ms:queue_ms ~op:"dequeue")
    | Some r ->
        Some
          ( Herr.Cancelled { node_id = None; reason = Cancel.reason_label r },
            Herr.context ~backend:"serve" "dequeue" )
    | None ->
        if pickup >= req.req_deadline || abandoned req then
          Some (deadline_error req ~elapsed_ms:queue_ms ~op:"dequeue")
        else None
  in
  (* the retry loop: a transient failure is retried with fresh randomness
     while the budget lasts; anything else is the request's outcome *)
  let rec attempt k =
    if t.cfg.now () >= req.req_deadline || abandoned req then
      Error (deadline_error req ~elapsed_ms:(elapsed_ms ()) ~op:"infer")
    else begin
      Atomic.incr req.req_attempts;
      match run_attempt t req ~attempt:k ~worker with
      | Ok _ as ok -> ok
      | Error (Herr.Cancelled _, _) as cancelled -> (
          (* the token tripped mid-circuit. A deadline-reason trip keeps the
             deadline's established observable surface: callers see the same
             typed [Deadline_exceeded] whether the budget expired in the
             queue, between nodes, or mid-node *)
          match Cancel.status req.req_cancel with
          | Some Cancel.Deadline -> Error (deadline_error req ~elapsed_ms:(elapsed_ms ()) ~op:"infer")
          | _ -> cancelled)
      | Error (e, _) when transient_error e && k < t.cfg.max_retries -> (
          match backoff t req ~attempt:k with
          | `Slept -> attempt (k + 1)
          | `Exhausted ->
              (* the budget died during (or before) the backoff sleep: fail
                 fast with the typed deadline instead of starting an attempt
                 that cannot finish *)
              Error (deadline_error req ~elapsed_ms:(elapsed_ms ()) ~op:"backoff"))
      | Error _ as failed -> failed
    end
  in
  let out =
    match dead_at_dequeue with
    | Some err -> mk (Error err)
    | None -> (
        match attempt 0 with
        | Ok (tensor, margin_bits, lane) -> mk ~margin_bits ~sentinel:lane (Ok tensor)
        | Error err -> mk (Error err))
  in
  deliver t req out

(* ------------------------------------------------------------------ *)
(* Client side                                                          *)
(* ------------------------------------------------------------------ *)

(* The same circuit, as far as a plan can tell: callers routinely build a
   model's circuit twice (once for the compile, once for the service), so
   physical identity is too strict. *)
let same_circuit (a : Circuit.t) (b : Circuit.t) =
  a == b
  || a.Circuit.name = b.Circuit.name
     && a.Circuit.node_count = b.Circuit.node_count
     && a.Circuit.input.Circuit.shape = b.Circuit.input.Circuit.shape
     && a.Circuit.output.Circuit.shape = b.Circuit.output.Circuit.shape

let create cfg ~circuit ~ladder:dep =
  if not (same_circuit dep.dep_plan.Plan.p_circuit circuit) then
    invalid_arg
      (Printf.sprintf "Service.create: deployment %S runs a plan for circuit %S, not %S"
         dep.dep_label dep.dep_plan.Plan.p_circuit.Circuit.name circuit.Circuit.name);
  if dep.dep_sentinel <> None && not dep.dep_plan.Plan.p_twin then
    invalid_arg
      (Printf.sprintf "Service.create: verified deployment %S needs a twin (sentinel) plan"
         dep.dep_label);
  let queue = Queue.create ~high_water:cfg.high_water () in
  let mx = make_metrics () in
  let pool =
    Pool.create ~domains:cfg.domains queue
      ~on_crash:(fun ~worker:_ _exn ->
        (* [process] converts everything to typed outcomes; anything landing
           here is a harness bug — count it, keep serving *)
        Metrics.incr mx.mx_worker_crashes)
  in
  {
    cfg;
    dep;
    prepared = Array.make cfg.domains None;
    queue;
    pool;
    next_id = Atomic.make 0;
    mx;
    draining = Atomic.make false;
    inflight_count = Atomic.make 0;
  }

let submit t ?deadline_ms ?seed image =
  let id = Atomic.fetch_and_add t.next_id 1 in
  let budget_ms = Option.value deadline_ms ~default:t.cfg.default_deadline_ms in
  let submitted = t.cfg.now () in
  let deadline = submitted +. (budget_ms /. 1000.0) in
  let req =
    {
      req_id = id;
      req_image = image;
      req_seed = Option.value seed ~default:id;
      req_budget_ms = budget_ms;
      req_deadline = deadline;
      req_submitted = submitted;
      req_cancel = Cancel.make ~deadline ~now:t.cfg.now ();
      req_attempts = Atomic.make 0;
      cell = { cm = Mutex.create (); result = None; abandoned = false };
    }
  in
  Metrics.incr t.mx.mx_submitted;
  let reject out_result =
    let out =
      {
        out_id = id;
        out_result;
        out_served_by = "";
        out_degraded = false;
        out_attempts = 0;
        out_queue_ms = 0.0;
        out_total_ms = 0.0;
        out_margin_bits = Float.nan;
        out_sentinel = [||];
      }
    in
    with_lock req.cell.cm (fun () -> req.cell.result <- Some out)
  in
  let admit () =
    if Atomic.get t.draining then
      (* draining: the typed refusal clients already understand — retry
         against another instance, this one is on its way down *)
      Error (Queue.length t.queue)
    else begin
      Atomic.incr t.inflight_count;
      match Queue.push t.queue (fun ~worker -> process t req ~worker) with
      | Ok () -> Ok ()
      | Error depth ->
          Atomic.decr t.inflight_count;
          Error depth
    end
  in
  (match admit () with
  | Ok () -> ()
  | Error depth ->
      (* shed at admission: the typed rejection is the response *)
      Metrics.incr t.mx.mx_shed;
      reject
        (Error
           ( Herr.Overloaded { queue_depth = depth; high_water = Queue.high_water t.queue },
             Herr.context ~backend:"serve" "submit" )));
  req

let await t (req : ticket) =
  let poll_ms = 1.0 in
  let rec loop () =
    let ready = with_lock req.cell.cm (fun () -> req.cell.result) in
    match ready with
    | Some o -> o
    | None ->
        let now = t.cfg.now () in
        if now >= req.req_deadline then begin
          (* give up: mark the request abandoned (checked again under the
             cell lock so a just-delivered result wins the race) *)
          let raced =
            with_lock req.cell.cm (fun () ->
                match req.cell.result with
                | Some o -> Some o
                | None ->
                    req.cell.abandoned <- true;
                    None)
          in
          match raced with
          | Some o -> o
          | None ->
              (* free the worker too: if the request is mid-circuit, the
                 executor's next step-boundary poll sees the trip *)
              Cancel.trip req.req_cancel Cancel.Abandoned;
              let elapsed_ms = (now -. req.req_submitted) *. 1000.0 in
              let attempts = Atomic.get req.req_attempts in
              let out =
                {
                  out_id = req.req_id;
                  out_result = Error (deadline_error req ~elapsed_ms ~op:"await");
                  out_served_by = served_by t attempts;
                  out_degraded = false;
                  out_attempts = attempts;
                  out_queue_ms = 0.0;
                  out_total_ms = elapsed_ms;
                  out_margin_bits = Float.nan;
                  out_sentinel = [||];
                }
              in
              Metrics.incr t.mx.mx_deadline;
              Metrics.observe t.mx.mx_latency (elapsed_ms /. 1000.0);
              out
        end
        else begin
          t.cfg.sleep_ms poll_ms;
          loop ()
        end
  in
  loop ()

let infer t ?deadline_ms ?seed image = await t (submit t ?deadline_ms ?seed image)

(* Explicit cancellation (the CNCL frame lands here): trip the ticket's
   token and let the machinery already in place do the rest — queued
   requests die at dequeue, running ones at the next plan-step boundary. *)
let cancel (req : ticket) ~reason = Cancel.trip req.req_cancel (Cancel.Requested reason)

let shutdown t =
  Pool.shutdown t.pool;
  (* the workers are joined: their prepared plans (staged plaintexts) go *)
  Array.fill t.prepared 0 (Array.length t.prepared) None

(* ------------------------------------------------------------------ *)
(* Graceful drain (DESIGN.md §12)                                       *)
(* ------------------------------------------------------------------ *)

let begin_drain t = Atomic.set t.draining true
let is_draining t = Atomic.get t.draining
let inflight t = Atomic.get t.inflight_count

(* Wait (on the injected clock) for every admitted request to reach its
   outcome. In-flight work completes within its own deadlines, so a bounded
   wait suffices: [true] = fully drained, [false] = timed out with work
   still in flight (the caller decides whether to hard-stop anyway). *)
let drain t ~timeout_ms =
  let deadline = t.cfg.now () +. (timeout_ms /. 1000.0) in
  let rec loop () =
    if Atomic.get t.inflight_count = 0 then true
    else if t.cfg.now () >= deadline then false
    else begin
      t.cfg.sleep_ms 1.0;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Introspection                                                        *)
(* ------------------------------------------------------------------ *)

let stats t =
  let v = Metrics.counter_value and q p = Metrics.quantile t.mx.mx_latency p *. 1000.0 in
  {
    s_submitted = v t.mx.mx_submitted;
    s_succeeded = v t.mx.mx_succeeded;
    s_failed = v t.mx.mx_failed;
    s_shed = v t.mx.mx_shed;
    s_deadline = v t.mx.mx_deadline;
    s_degraded = 0;
    s_retries = v t.mx.mx_retries;
    s_worker_crashes = v t.mx.mx_worker_crashes;
    s_late_results = v t.mx.mx_late;
    s_cancelled = v t.mx.mx_cancelled;
    s_integrity_failures = v t.mx.mx_integrity;
    s_queue = Queue.stats t.queue;
    s_latency_p50_ms = q 0.50;
    s_latency_p95_ms = q 0.95;
    s_latency_p99_ms = q 0.99;
  }

(* Prometheus text exposition of the service registry. Point-in-time queue
   state is refreshed into gauges here rather than on the hot path — the
   counters and the latency histogram were updated live. *)
let metrics_snapshot t =
  let q = Queue.stats t.queue in
  let qg name help v =
    Metrics.set_gauge (Metrics.gauge t.mx.registry ~help name) (float_of_int v)
  in
  qg "chet_serve_queue_pushed" "jobs admitted to the queue" q.Queue.q_pushed;
  qg "chet_serve_queue_shed" "jobs shed at the high-water mark" q.Queue.q_shed;
  qg "chet_serve_queue_max_depth" "deepest queue occupancy seen" q.Queue.q_max_depth;
  Metrics.expose t.mx.registry

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>requests: %d submitted, %d ok, %d failed, %d shed, %d deadline-expired@,\
     retries: %d; worker crashes: %d; late results: %d@,\
     cancelled: %d; integrity failures: %d@,\
     queue: %d admitted, %d shed, max depth %d@,\
     latency ms: p50 %.1f  p95 %.1f  p99 %.1f@]"
    s.s_submitted s.s_succeeded s.s_failed s.s_shed s.s_deadline s.s_retries s.s_worker_crashes s.s_late_results s.s_cancelled s.s_integrity_failures
    s.s_queue.Queue.q_pushed s.s_queue.Queue.q_shed s.s_queue.Queue.q_max_depth s.s_latency_p50_ms s.s_latency_p95_ms s.s_latency_p99_ms

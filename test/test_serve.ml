(* The serving layer's robustness contract, proven on Fault_backend-wrapped
   deployments (ISSUE acceptance criteria):

     (a) a transient injected fault is retried and the final answer matches
         the clean run bit-for-bit;
     (b) a persistent fault trips the circuit breaker and subsequent
         requests succeed via the degraded fallback with [degraded:true];
     (c) an over-deadline request returns [Deadline_exceeded] while the
         pool keeps serving later requests;
     (d) queue overflow yields [Overloaded] with zero worker crashes;
     (e) N concurrent domains produce results bit-identical to sequential
         execution.

   All tests run on the cleartext backend (the reference engine) at the
   compiled parameters of the micro network — deterministic and fast — with
   Fault_backend + Checked_backend layered on top exactly as a corrupted
   real deployment would surface. *)

module Compiler = Chet.Compiler
module Models = Chet_nn.Models
module Hisa = Chet_hisa.Hisa
module Herr = Chet_hisa.Herr
module Clear = Chet_hisa.Clear_backend
module Checked = Chet_hisa.Checked_backend
module Fault = Chet_hisa.Fault_backend
module Service = Chet_serve.Service
module Breaker = Chet_serve.Breaker
module Squeue = Chet_serve.Queue
module T = Chet_tensor.Tensor

let seal_opts = Compiler.default_options ~target:Compiler.Seal ()
let micro = Models.micro.Models.build ()
let compiled = lazy (Compiler.compile seal_opts micro)
let image i = Models.input_for Models.micro ~seed:(500 + i)

let scheme () = Compiler.scheme_of_params seal_opts (Lazy.force compiled).Compiler.params
let policy () = (Lazy.force compiled).Compiler.policy
let plan = lazy (Compiler.plan (Lazy.force compiled))

let clear_backend () =
  Clear.make
    {
      Clear.slots = Compiler.params_n (Lazy.force compiled).Compiler.params / 2;
      scheme = scheme ();
      strict_modulus = false;
      encode_noise = false;
    }

let dep ?(label = "primary") ?(degraded = false) ?cost_ms backend =
  {
    Service.dep_label = label;
    dep_degraded = degraded;
    dep_scales = seal_opts.Compiler.scales;
    dep_plan = Lazy.force plan;
    dep_cost_ms = cost_ms;
    dep_backend = Service.Per_attempt backend;
    dep_sentinel = None;
  }

let clean_dep ?label ?degraded () = dep ?label ?degraded (fun ~req_seed:_ ~attempt:_ -> clear_backend ())

(* NaN-poison the decode path, detected by the checked wrapper as a typed
   [Numeric_blowup] — the transient class the retry policy targets. *)
let poisoned_backend ~req_seed =
  let faulty, _log =
    Fault.wrap (Fault.default_config ~seed:req_seed (Some Fault.Nan_poison)) (clear_backend ())
  in
  Checked.wrap ~scheme:(scheme ()) faulty

let transient_fault_dep () =
  dep (fun ~req_seed ~attempt -> if attempt = 0 then poisoned_backend ~req_seed else clear_backend ())

let persistent_fault_dep () = dep (fun ~req_seed ~attempt:_ -> poisoned_backend ~req_seed)

let quick_cfg ?(domains = 2) ?(high_water = 16) ?(max_retries = 2) () =
  {
    (Service.default_config ~domains ()) with
    Service.high_water;
    max_retries;
    backoff_base_ms = 1.0;
    backoff_cap_ms = 5.0;
    breaker_threshold = 3;
    breaker_cooldown_ms = 60_000.0 (* effectively never half-opens within a test *);
    default_deadline_ms = 60_000.0;
  }

let with_service cfg ladder f =
  let svc = Service.create cfg ~circuit:micro ~ladder in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

let direct_clean_run img =
  let backend = clear_backend () in
  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  E.eval seal_opts.Compiler.scales micro ~policy:(policy ()) img

let ok_tensor name (o : Service.outcome) =
  match o.Service.out_result with
  | Ok t -> t
  | Error (e, c) -> Alcotest.failf "%s: unexpected failure: %s" name (Herr.to_string (e, c))

(* --- (a) transient fault: retried to a bit-identical answer --------- *)

let test_transient_fault_retried () =
  with_service (quick_cfg ()) [ transient_fault_dep (); clean_dep ~label:"fallback" ~degraded:true () ]
    (fun svc ->
      let o = Service.infer svc ~seed:7 (image 1) in
      let got = ok_tensor "transient" o in
      Alcotest.(check string) "served by the primary rung" "primary" o.Service.out_served_by;
      Alcotest.(check bool) "not degraded" false o.Service.out_degraded;
      Alcotest.(check bool) "was retried" true (o.Service.out_attempts >= 2);
      let expected = direct_clean_run (image 1) in
      Alcotest.(check (float 0.0))
        "bit-identical to the clean run" 0.0
        (T.max_abs_diff (T.flatten expected) (T.flatten got));
      let s = Service.stats svc in
      Alcotest.(check bool) "retry counted" true (s.Service.s_retries >= 1);
      Alcotest.(check int) "no worker crashes" 0 s.Service.s_worker_crashes)

(* --- (b) persistent fault: breaker trips, degraded fallback serves -- *)

let test_persistent_fault_degrades () =
  let cfg = quick_cfg ~domains:1 ~max_retries:1 () in
  with_service cfg [ persistent_fault_dep (); clean_dep ~label:"fallback" ~degraded:true () ]
    (fun svc ->
      let outcomes = List.init 5 (fun i -> Service.infer svc ~seed:i (image i)) in
      List.iteri
        (fun i o ->
          let _ = ok_tensor (Printf.sprintf "persistent req %d" i) o in
          Alcotest.(check bool)
            (Printf.sprintf "req %d degraded flag" i)
            true o.Service.out_degraded;
          Alcotest.(check string)
            (Printf.sprintf "req %d served by fallback" i)
            "fallback" o.Service.out_served_by)
        outcomes;
      (* threshold 3: the first three requests each burn the retry budget on
         the primary (2 attempts) before falling back; from the fourth on
         the open breaker routes straight to the fallback (1 attempt) *)
      let early = List.nth outcomes 0 and late = List.nth outcomes 4 in
      Alcotest.(check int) "pre-trip attempts (primary retries + fallback)" 3 early.Service.out_attempts;
      Alcotest.(check int) "post-trip attempts (fallback only)" 1 late.Service.out_attempts;
      (match List.assoc "primary" (Service.breaker_states svc) with
      | Breaker.Open -> ()
      | st -> Alcotest.failf "primary breaker should be open, is %s" (Breaker.state_name st));
      let s = Service.stats svc in
      Alcotest.(check bool) "breaker trip recorded" true (s.Service.s_breaker_trips >= 1);
      Alcotest.(check int) "all five succeeded degraded" 5 s.Service.s_degraded)

(* breaker state machine in isolation, on a fake clock *)
let test_breaker_lifecycle () =
  let t = ref 0.0 in
  let b = Breaker.create ~threshold:2 ~cooldown:10.0 ~now:(fun () -> !t) () in
  Alcotest.(check bool) "closed allows" true (Breaker.allow b);
  Breaker.record_failure b;
  Breaker.record_failure b;
  Alcotest.(check bool) "tripped open" true (Breaker.state b = Breaker.Open);
  Alcotest.(check bool) "open rejects" false (Breaker.allow b);
  t := 10.5;
  Alcotest.(check bool) "half-open admits a probe" true (Breaker.allow b);
  Alcotest.(check bool) "only one probe" false (Breaker.allow b);
  Breaker.record_failure b;
  Alcotest.(check bool) "failed probe re-opens" true (Breaker.state b = Breaker.Open);
  t := 21.0;
  Alcotest.(check bool) "probes again after cooldown" true (Breaker.allow b);
  Breaker.record_success b;
  Alcotest.(check bool) "successful probe closes" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check int) "two trips recorded" 2 (Breaker.trip_count b)

(* --- (c) deadlines fire; the pool keeps serving -------------------- *)

let test_deadline_fires () =
  let slow_dep =
    dep ~label:"slow" (fun ~req_seed:_ ~attempt:_ ->
        Unix.sleepf 0.15;
        clear_backend ())
  in
  with_service (quick_cfg ~domains:1 ()) [ slow_dep ] (fun svc ->
      let late = Service.infer svc ~deadline_ms:20.0 ~seed:1 (image 2) in
      (match late.Service.out_result with
      | Error (Herr.Deadline_exceeded { budget_ms; _ }, _) ->
          Alcotest.(check (float 0.01)) "budget reported" 20.0 budget_ms
      | Ok _ -> Alcotest.fail "over-deadline request should not succeed"
      | Error (e, c) -> Alcotest.failf "wrong error: %s" (Herr.to_string (e, c)));
      (* the pool is not wedged: a later, generously-budgeted request lands *)
      let fine = Service.infer svc ~deadline_ms:10_000.0 ~seed:2 (image 3) in
      ignore (ok_tensor "post-deadline request" fine);
      let s = Service.stats svc in
      Alcotest.(check bool) "deadline expiry counted" true (s.Service.s_deadline >= 1);
      Alcotest.(check int) "no worker crashes" 0 s.Service.s_worker_crashes)

let test_deadline_expires_in_queue () =
  (* one blocked worker; the queued request's deadline passes before pickup,
     so the worker abandons it at dequeue without running the circuit *)
  let gate = Atomic.make false in
  let gated_dep =
    dep ~label:"gated" (fun ~req_seed:_ ~attempt:_ ->
        while not (Atomic.get gate) do
          Unix.sleepf 0.002
        done;
        clear_backend ())
  in
  with_service (quick_cfg ~domains:1 ()) [ gated_dep ] (fun svc ->
      let blocker = Service.submit svc ~seed:1 (image 1) in
      let doomed = Service.submit svc ~deadline_ms:30.0 ~seed:2 (image 2) in
      let doomed_out = Service.await svc doomed in
      (match doomed_out.Service.out_result with
      | Error (Herr.Deadline_exceeded _, _) -> ()
      | _ -> Alcotest.fail "queued request should have expired");
      Atomic.set gate true;
      ignore (ok_tensor "blocker eventually lands" (Service.await svc blocker));
      Alcotest.(check int) "no crashes" 0 (Service.stats svc).Service.s_worker_crashes)

(* --- (d) queue overflow: typed Overloaded, zero crashes ------------- *)

let test_overload_sheds () =
  let gate = Atomic.make false in
  let gated_dep =
    dep ~label:"gated" (fun ~req_seed:_ ~attempt:_ ->
        while not (Atomic.get gate) do
          Unix.sleepf 0.002
        done;
        clear_backend ())
  in
  let cfg = quick_cfg ~domains:1 ~high_water:2 () in
  with_service cfg [ gated_dep ] (fun svc ->
      let first = Service.submit svc ~seed:0 (image 0) in
      (* wait until the single (gated) worker has dequeued the first job, so
         the queue depth is deterministic for the rest of the burst *)
      let rec spin n =
        if (Service.stats svc).Service.s_queue.Squeue.q_popped < 1 then
          if n > 5000 then Alcotest.fail "worker never picked up first job"
          else begin
            Unix.sleepf 0.002;
            spin (n + 1)
          end
      in
      spin 0;
      (* 1 in flight + 2 queued = saturation; the rest of the burst must shed *)
      let queued = List.init 2 (fun i -> Service.submit svc ~seed:(1 + i) (image (1 + i))) in
      let extra = List.init 4 (fun i -> Service.submit svc ~seed:(10 + i) (image i)) in
      Atomic.set gate true;
      let shed =
        List.filter
          (fun tk ->
            match (Service.await svc tk).Service.out_result with
            | Error (Herr.Overloaded { queue_depth; high_water }, _) ->
                Alcotest.(check int) "high-water reported" 2 high_water;
                Alcotest.(check bool) "depth at/above mark" true (queue_depth >= high_water);
                true
            | _ -> false)
          extra
      in
      Alcotest.(check int) "entire burst shed" 4 (List.length shed);
      List.iter
        (fun tk -> ignore (ok_tensor "admitted request" (Service.await svc tk)))
        (first :: queued);
      let s = Service.stats svc in
      Alcotest.(check bool) "shed counted" true (s.Service.s_shed >= 4);
      Alcotest.(check int) "zero worker crashes" 0 s.Service.s_worker_crashes)

(* --- worker crash containment --------------------------------------- *)

let test_worker_crash_is_typed_and_contained () =
  let crashing_dep =
    dep ~label:"buggy" (fun ~req_seed:_ ~attempt:_ -> failwith "segfault in backend glue")
  in
  with_service (quick_cfg ~domains:1 ())
    [ crashing_dep; clean_dep ~label:"fallback" ~degraded:true () ]
    (fun svc ->
      let o = Service.infer svc ~seed:3 (image 4) in
      ignore (ok_tensor "fallback covers the crash" o);
      Alcotest.(check bool) "degraded response" true o.Service.out_degraded;
      let s = Service.stats svc in
      Alcotest.(check bool) "crash converted and counted" true (s.Service.s_worker_crashes >= 1);
      (* and with no fallback, the typed Worker_crashed surfaces *)
      ());
  with_service (quick_cfg ~domains:1 ()) [ crashing_dep ] (fun svc ->
      let o = Service.infer svc ~seed:4 (image 4) in
      match o.Service.out_result with
      | Error (Herr.Worker_crashed { reason; _ }, _) ->
          Alcotest.(check bool) "reason captured" true (String.length reason > 0)
      | _ -> Alcotest.fail "expected a typed Worker_crashed failure")

(* --- (e) concurrent == sequential, bit for bit ---------------------- *)

let test_concurrent_matches_sequential () =
  let n = 8 in
  let run ~domains =
    with_service (quick_cfg ~domains ()) [ clean_dep () ] (fun svc ->
        let tickets = List.init n (fun i -> Service.submit svc ~seed:i (image i)) in
        List.mapi (fun i tk -> ok_tensor (Printf.sprintf "req %d" i) (Service.await svc tk)) tickets)
  in
  let concurrent = run ~domains:4 in
  let sequential = run ~domains:1 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "request %d identical under 4 domains vs 1" i)
        0.0
        (T.max_abs_diff (T.flatten a) (T.flatten b));
      (* and identical to a bare executor run outside the service *)
      Alcotest.(check (float 0.0))
        (Printf.sprintf "request %d identical to direct run" i)
        0.0
        (T.max_abs_diff (T.flatten a) (T.flatten (direct_clean_run (image i)))))
    (List.combine concurrent sequential)

(* --- queue unit semantics ------------------------------------------- *)

let test_queue_shed_and_close () =
  let q = Squeue.create ~high_water:2 () in
  Alcotest.(check bool) "push 1" true (Squeue.push q 1 = Ok ());
  Alcotest.(check bool) "push 2" true (Squeue.push q 2 = Ok ());
  (match Squeue.push q 3 with
  | Error depth -> Alcotest.(check int) "shed at depth" 2 depth
  | Ok () -> Alcotest.fail "push above high-water accepted");
  Alcotest.(check (option int)) "pop 1" (Some 1) (Squeue.pop q);
  Alcotest.(check bool) "push after drain" true (Squeue.push q 3 = Ok ());
  Squeue.close q;
  Alcotest.(check bool) "push after close shed" true (Result.is_error (Squeue.push q 4));
  Alcotest.(check (option int)) "drains after close" (Some 2) (Squeue.pop q);
  Alcotest.(check (option int)) "drains after close (2)" (Some 3) (Squeue.pop q);
  Alcotest.(check (option int)) "closed and drained" None (Squeue.pop q);
  let s = Squeue.stats q in
  Alcotest.(check int) "shed stat" 2 s.Squeue.q_shed;
  Alcotest.(check int) "max depth stat" 2 s.Squeue.q_max_depth

(* --- breaker + service state survive a process restart -------------- *)

(* A snapshot taken mid-cooldown restores onto a fresh breaker whose
   monotonic clock has an unrelated origin (a new process): the remaining
   cooldown — not the absolute trip time — is what carries over. *)
let test_breaker_snapshot_restore () =
  let t = ref 0.0 in
  let b = Breaker.create ~threshold:2 ~cooldown:10.0 ~now:(fun () -> !t) () in
  Breaker.record_failure b;
  Breaker.record_failure b;
  Alcotest.(check bool) "tripped" true (Breaker.state b = Breaker.Open);
  t := 4.0;
  let sn = Breaker.snapshot b in
  Alcotest.(check (float 1e-9)) "remaining cooldown captured" 6.0 sn.Breaker.sn_cooldown_remaining;
  let t2 = ref 1000.0 in
  let b2 = Breaker.create ~threshold:2 ~cooldown:10.0 ~now:(fun () -> !t2) () in
  Breaker.restore b2 sn;
  Alcotest.(check bool) "restored open" true (Breaker.state b2 = Breaker.Open);
  Alcotest.(check bool) "still cooling down" false (Breaker.allow b2);
  t2 := 1005.9;
  Alcotest.(check bool) "remaining cooldown honoured" false (Breaker.allow b2);
  t2 := 1006.1;
  Alcotest.(check bool) "probes once remaining elapses" true (Breaker.allow b2);
  Alcotest.(check int) "trip count carried over" 1 (Breaker.trip_count b2);
  (* a snapshot of a half-open breaker restores as Open with the cooldown
     already elapsed: the new process probes immediately *)
  let sn_half = Breaker.snapshot b2 in
  Alcotest.(check bool) "half-open captured" true (sn_half.Breaker.sn_state = Breaker.Half_open);
  let t3 = ref 0.0 in
  let b3 = Breaker.create ~threshold:2 ~cooldown:10.0 ~now:(fun () -> !t3) () in
  Breaker.restore b3 sn_half;
  Alcotest.(check bool) "restored half-open probes immediately" true (Breaker.allow b3)

let test_service_state_roundtrip () =
  let cfg = quick_cfg ~domains:1 ~max_retries:1 () in
  let ladder () = [ persistent_fault_dep (); clean_dep ~label:"fallback" ~degraded:true () ] in
  (* first process: trip the primary, persist on shutdown *)
  let state =
    with_service cfg (ladder ()) (fun svc ->
        for i = 0 to 3 do
          ignore (Service.infer svc ~seed:i (image i))
        done;
        Alcotest.(check bool) "primary tripped before shutdown" true
          (List.assoc "primary" (Service.breaker_states svc) = Breaker.Open);
        Service.state_to_string svc)
  in
  (* second process: same ladder shape, state restored *)
  with_service cfg (ladder ()) (fun svc2 ->
      (match Service.restore_state svc2 state with
      | Ok n -> Alcotest.(check int) "both rungs restored" 2 n
      | Error e -> Alcotest.failf "restore failed: %s" (Herr.error_name e));
      Alcotest.(check bool) "primary still open after restart" true
        (List.assoc "primary" (Service.breaker_states svc2) = Breaker.Open);
      (* the restored-open breaker routes straight to the fallback: no
         doomed primary attempt is repeated after the restart *)
      let o = Service.infer svc2 ~seed:9 (image 9) in
      ignore (ok_tensor "post-restore request" o);
      Alcotest.(check string) "served degraded" "fallback" o.Service.out_served_by;
      Alcotest.(check int) "no primary attempt" 1 o.Service.out_attempts);
  (* unknown rung labels are skipped, not fatal (ladder shape may change) *)
  with_service cfg [ clean_dep ~label:"renamed" () ] (fun svc3 ->
      match Service.restore_state svc3 state with
      | Ok n -> Alcotest.(check int) "no matching rungs" 0 n
      | Error e -> Alcotest.failf "shape change should not fail: %s" (Herr.error_name e));
  (* a damaged payload is a typed report, not a crash *)
  let mangled = Bytes.of_string state in
  let last = Bytes.length mangled - 1 in
  Bytes.set mangled last (Char.chr (Char.code (Bytes.get mangled last) lxor 1));
  with_service cfg (ladder ()) (fun svc4 ->
      match Service.restore_state svc4 (Bytes.to_string mangled) with
      | Ok _ -> Alcotest.fail "corrupt state accepted"
      | Error (Herr.Corrupt_bundle _) -> ()
      | Error e -> Alcotest.failf "wrong error class: %s" (Herr.error_name e))

(* --- half-open probe discipline (DESIGN.md §12 / ISSUE 6 satellite) ----
   While [Half_open], at most one probe may be outstanding — two concurrent
   admissions would double-tap a deployment that just demonstrated failure.
   Hammered from 2 domains racing on the Open->Half_open transition. *)

let test_breaker_half_open_single_probe_2domains () =
  for _round = 1 to 100 do
    let t = ref 0.0 in
    let b = Breaker.create ~threshold:1 ~cooldown:1.0 ~now:(fun () -> !t) () in
    Breaker.record_failure b;
    Alcotest.(check bool) "tripped" true (Breaker.state b = Breaker.Open);
    t := 2.0 (* past cooldown: the next allow() transitions to Half_open *);
    let ready = Atomic.make 0 in
    let admitted = Atomic.make 0 in
    let racer () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      if Breaker.allow b then Atomic.incr admitted
    in
    let d1 = Domain.spawn racer in
    let d2 = Domain.spawn racer in
    Domain.join d1;
    Domain.join d2;
    Alcotest.(check int) "exactly one probe admitted" 1 (Atomic.get admitted);
    Alcotest.(check bool) "loser observes Half_open" true (Breaker.state b = Breaker.Half_open);
    Alcotest.(check bool) "budget spent until a verdict" false (Breaker.allow b)
  done

let test_breaker_probe_release () =
  let t = ref 0.0 in
  let b = Breaker.create ~threshold:1 ~cooldown:1.0 ~now:(fun () -> !t) () in
  Breaker.record_failure b;
  t := 2.0;
  Alcotest.(check bool) "probe admitted" true (Breaker.allow b);
  Alcotest.(check bool) "second refused" false (Breaker.allow b);
  (* the probe reached no verdict (its request's deadline fired before any
     attempt finished): without release the rung could never be probed again *)
  Breaker.release b;
  Alcotest.(check bool) "slot returned, next probe admitted" true (Breaker.allow b);
  Breaker.record_success b;
  Alcotest.(check bool) "healthy probe closes" true (Breaker.state b = Breaker.Closed);
  (* release outside Half_open is a no-op, not an underflow *)
  Breaker.release b;
  Alcotest.(check bool) "closed still allows" true (Breaker.allow b)

(* --- graceful drain (SIGTERM protocol, automated) ----------------------
   The four assertions of the shutdown contract, previously only exercised
   end-to-end by scripts: in-flight requests complete, new submissions are
   refused with a typed [Overloaded], the learned state persists, and drain
   reports completion (the worker's cue to exit 0). *)

let test_graceful_drain () =
  let gate = Atomic.make false in
  let gated_dep =
    dep (fun ~req_seed:_ ~attempt:_ ->
        while not (Atomic.get gate) do
          Unix.sleepf 0.001
        done;
        clear_backend ())
  in
  let cfg = quick_cfg ~domains:2 () in
  with_service cfg [ gated_dep ] (fun svc ->
      let t1 = Service.submit svc ~seed:1 (image 1) in
      let t2 = Service.submit svc ~seed:2 (image 2) in
      Alcotest.(check int) "both admitted" 2 (Service.inflight svc);
      Service.begin_drain svc;
      Alcotest.(check bool) "draining" true (Service.is_draining svc);
      (* (2) new admissions are refused with the typed shed vocabulary *)
      let refused = Service.infer svc ~seed:3 (image 3) in
      (match refused.Service.out_result with
      | Error (Herr.Overloaded _, _) -> ()
      | Ok _ -> Alcotest.fail "admission during drain"
      | Error (e, _) -> Alcotest.failf "wrong refusal class: %s" (Herr.error_name e));
      (* with the gate still down nothing can finish: drain must time out *)
      Alcotest.(check bool) "drain honest about live work" false
        (Service.drain svc ~timeout_ms:50.0);
      Atomic.set gate true;
      (* (4) ... and report completion once the in-flight work lands *)
      Alcotest.(check bool) "drain completes" true (Service.drain svc ~timeout_ms:10_000.0);
      Alcotest.(check int) "nothing in flight" 0 (Service.inflight svc);
      (* (1) the admitted requests ran to real outcomes *)
      ignore (ok_tensor "in-flight #1 completed" (Service.await svc t1));
      ignore (ok_tensor "in-flight #2 completed" (Service.await svc t2));
      (* (3) state persists at exactly this point, as the worker would *)
      let state = Service.state_to_string svc in
      with_service cfg [ clean_dep () ] (fun svc2 ->
          match Service.restore_state svc2 state with
          | Ok n -> Alcotest.(check int) "state restorable" 1 n
          | Error e -> Alcotest.failf "persisted state rejected: %s" (Herr.error_name e)))

(* --- cooperative cancellation (DESIGN.md §13) ------------------------
   A mid-circuit cancel must free the worker at the next node boundary with
   a typed [Cancelled] carrying the node id — and the pool must keep
   serving. The backend pauses inside its first multiply so the test can
   cancel while the executor is provably mid-circuit, then opens the gate:
   the op finishes, and the *next node's* cancel poll observes the trip. *)

let test_midcircuit_cancel_frees_worker () =
  let entered = Atomic.make false and gate = Atomic.make false in
  let pausing_backend () : Hisa.t =
    let module H = (val clear_backend () : Hisa.S) in
    (module struct
      include H

      let pause () =
        if not (Atomic.get entered) then begin
          Atomic.set entered true;
          while not (Atomic.get gate) do
            Unix.sleepf 0.001
          done
        end

      let mul a b =
        pause ();
        H.mul a b

      let mul_plain c p =
        pause ();
        H.mul_plain c p

      let add a b =
        pause ();
        H.add a b
    end : Hisa.S)
  in
  let pausable = dep ~label:"pausable" (fun ~req_seed:_ ~attempt:_ -> pausing_backend ()) in
  with_service (quick_cfg ~domains:1 ()) [ pausable ] (fun svc ->
      let tk = Service.submit svc ~seed:1 (image 1) in
      let rec spin n =
        if not (Atomic.get entered) then
          if n > 5000 then Alcotest.fail "worker never entered the circuit"
          else begin
            Unix.sleepf 0.002;
            spin (n + 1)
          end
      in
      spin 0;
      (* the worker is mid-circuit: cancel, then let the in-flight op land *)
      Service.cancel tk ~reason:"caller lost interest";
      Atomic.set gate true;
      let o = Service.await svc tk in
      (match o.Service.out_result with
      | Error (Herr.Cancelled { node_id; reason }, _) ->
          Alcotest.(check bool) "node id reported" true (node_id <> None);
          Alcotest.(check string) "explicit reason carried" "caller lost interest" reason
      | Ok _ -> Alcotest.fail "cancelled request must not succeed"
      | Error (e, c) -> Alcotest.failf "wrong error class: %s" (Herr.to_string (e, c)));
      (* the freed worker (the only one) serves the next request cleanly *)
      let fine = Service.infer svc ~seed:2 (image 2) in
      ignore (ok_tensor "post-cancel request" fine);
      let s = Service.stats svc in
      Alcotest.(check int) "cancel counted" 1 s.Service.s_cancelled;
      Alcotest.(check int) "no worker crashes" 0 s.Service.s_worker_crashes)

(* --- admission control (DESIGN.md §13) -------------------------------
   A deadline no rung's predicted cost can fit is refused at submit: typed
   [Deadline_exceeded] in O(ladder) time, no backend construction, no
   queue push — the request never occupies a domain. *)

let test_admission_control_rejects_unfittable () =
  let invoked = Atomic.make false in
  let pricey =
    dep ~label:"pricey" ~cost_ms:10_000.0 (fun ~req_seed:_ ~attempt:_ ->
        Atomic.set invoked true;
        clear_backend ())
  in
  with_service (quick_cfg ~domains:1 ()) [ pricey ] (fun svc ->
      let o = Service.infer svc ~deadline_ms:5.0 ~seed:1 (image 1) in
      (match o.Service.out_result with
      | Error (Herr.Deadline_exceeded { budget_ms; elapsed_ms }, _) ->
          Alcotest.(check (float 0.01)) "budget echoed" 5.0 budget_ms;
          Alcotest.(check (float 0.001)) "refused with zero work" 0.0 elapsed_ms
      | Ok _ -> Alcotest.fail "unfittable deadline must be refused"
      | Error (e, c) -> Alcotest.failf "wrong error class: %s" (Herr.to_string (e, c)));
      Alcotest.(check bool) "backend never built" false (Atomic.get invoked);
      let s = Service.stats svc in
      Alcotest.(check int) "admission reject counted" 1 s.Service.s_admission_rejects;
      Alcotest.(check int) "never enqueued: no domain occupied" 0
        s.Service.s_queue.Squeue.q_pushed;
      (* the same ladder serves a request whose budget the cost model fits *)
      let fine = Service.infer svc ~deadline_ms:60_000.0 ~seed:2 (image 2) in
      ignore (ok_tensor "fitting request" fine);
      Alcotest.(check bool) "pricey rung ran this time" true (Atomic.get invoked))

(* --- deadline-aware rung selection -----------------------------------
   With per-rung cost predictions, a tight budget routes straight to the
   cheapest rung that fits — the unfit primary is skipped without running
   (and without consuming a breaker probe slot). *)

let test_deadline_aware_rung_selection () =
  let primary_ran = Atomic.make false in
  let pricey =
    dep ~label:"pricey" ~cost_ms:50_000.0 (fun ~req_seed:_ ~attempt:_ ->
        Atomic.set primary_ran true;
        clear_backend ())
  in
  let cheap =
    dep ~label:"cheap" ~degraded:true ~cost_ms:0.0 (fun ~req_seed:_ ~attempt:_ ->
        clear_backend ())
  in
  with_service (quick_cfg ~domains:1 ()) [ pricey; cheap ] (fun svc ->
      let o = Service.infer svc ~deadline_ms:2_000.0 ~seed:3 (image 3) in
      let got = ok_tensor "tight-budget request" o in
      Alcotest.(check string) "served by the fitting rung" "cheap" o.Service.out_served_by;
      Alcotest.(check bool) "flagged degraded" true o.Service.out_degraded;
      Alcotest.(check bool) "unfit primary never ran" false (Atomic.get primary_ran);
      let expected = direct_clean_run (image 3) in
      Alcotest.(check (float 0.0))
        "bit-identical answer" 0.0
        (T.max_abs_diff (T.flatten expected) (T.flatten got));
      Alcotest.(check int) "skipping a rung is not an admission reject" 0
        (Service.stats svc).Service.s_admission_rejects;
      (* with budget to spare, fidelity wins: the primary serves again *)
      let o2 = Service.infer svc ~deadline_ms:600_000.0 ~seed:4 (image 4) in
      ignore (ok_tensor "generous-budget request" o2);
      Alcotest.(check string) "primary serves when it fits" "pricey" o2.Service.out_served_by)

(* --- retry backoff clamped to the remaining budget --------------------
   On a manual clock (only backoff sleeps advance it; the 1 ms await polls
   do not), a persistently-failing rung with a 100 ms budget and a 40 ms
   backoff base must stop retrying the moment the budget dies during a
   sleep: 2 attempts, the clock parked exactly at the deadline, and a typed
   [Deadline_exceeded] — instead of burning the full 5-retry schedule.
   Parked at the deadline, the clock lets [await] give up before the worker
   delivers; its outcome reports the attempts made so far, so it reads the
   same as the worker's whichever lands first. *)

let test_backoff_clamped_to_budget () =
  let clock = Atomic.make 0.0 in
  let cfg =
    {
      (quick_cfg ~domains:1 ~max_retries:5 ()) with
      Service.backoff_base_ms = 40.0;
      backoff_cap_ms = 1000.0;
      backoff_jitter = 0.0;
      now = (fun () -> Atomic.get clock);
      sleep_ms =
        (fun ms ->
          if ms >= 2.0 then begin
            (* a backoff sleep: advance the virtual clock *)
            let rec cas () =
              let old = Atomic.get clock in
              if not (Atomic.compare_and_set clock old (old +. (ms /. 1000.0))) then cas ()
            in
            cas ()
          end
          else (* an await/drain poll: real pause, no virtual time *)
            Unix.sleepf 0.0005);
    }
  in
  with_service cfg [ persistent_fault_dep () ] (fun svc ->
      let o = Service.infer svc ~deadline_ms:100.0 ~seed:5 (image 5) in
      (match o.Service.out_result with
      | Error (Herr.Deadline_exceeded { budget_ms; elapsed_ms }, _) ->
          Alcotest.(check (float 0.01)) "budget echoed" 100.0 budget_ms;
          Alcotest.(check (float 0.01)) "failed fast at the budget, not after" 100.0 elapsed_ms
      | Ok _ -> Alcotest.fail "persistently-failing rung cannot succeed"
      | Error (e, c) -> Alcotest.failf "wrong error class: %s" (Herr.to_string (e, c)));
      (* 40 ms + (80 ms clamped to 60 ms) = exactly the budget; unclamped the
         schedule would have slept 1240 ms of virtual time over 6 attempts *)
      Alcotest.(check (float 1e-6)) "clock parked at the deadline" 0.1 (Atomic.get clock);
      Alcotest.(check int) "retries stopped early" 2 o.Service.out_attempts)

(* micro compiled with sentinels, its ring pinned to 2048 (rotation keys
   re-selected at that size) so real key generation and inference stay
   fast; shared by the real-backend rung tests *)
let pinned_sentinel_compile =
  lazy
    (let compiled = Compiler.compile { seal_opts with Compiler.sentinel = true } micro in
     match compiled.Compiler.params with
     | Compiler.Rns_params p ->
         let params = Compiler.Rns_params { p with n = 2048 } in
         let rotations, op_counters =
           Compiler.select_rotations compiled.Compiler.opts micro ~policy:compiled.Compiler.policy
             ~params
         in
         { compiled with Compiler.params; rotations; op_counters }
     | Compiler.Pow2_params _ -> compiled)

(* Every rung [ladder_of_keyset] builds is a plan prepared once per worker,
   whose sampler is reseeded per attempt. On the real backend (a small
   ring) with sentinels on, answers served concurrently must equal a
   one-shot plan run on a fresh per-request view of the same keyset, bit
   for bit, and each must carry the sentinel margin measured on the plan. *)
let test_prepared_rungs_match_one_shot () =
  let compiled = Lazy.force pinned_sentinel_compile in
  let seed = 5 and spec = Chet.Integrity.spec_for micro in
  let keyset = Compiler.keyset compiled ~seed ~with_secret:true () in
  let ladder =
    Service.ladder_of_keyset compiled ~keyset ~reduced_rungs:0 ~clear_fallback:false
      ~sentinel:spec ()
  in
  let one_shot img ~req_seed =
    let module H = (val Compiler.view keyset ~req_seed) in
    let module PE = Chet_plan.Plan_exec.Make (H) in
    PE.eval ~sentinel:(Chet.Integrity.sentinel spec) compiled.Compiler.opts.Compiler.scales micro
      ~policy:compiled.Compiler.policy img
  in
  with_service (quick_cfg ()) ladder (fun svc ->
      List.init 4 (fun i -> (i, Service.submit svc ~seed:(40 + i) (image i)))
      |> List.iter (fun (i, ticket) ->
             let o = Service.await svc ticket in
             let got = ok_tensor "prepared rung" o in
             if not (Float.is_finite o.Service.out_margin_bits) then
               Alcotest.failf "request %d: no sentinel margin" i;
             let expected = one_shot (image i) ~req_seed:(40 + i) in
             Alcotest.(check bool)
               (Printf.sprintf "request %d bit-identical" i)
               true (got.T.data = expected.T.data)))

(* The twin decision is the compile's: a sentinel compile's rotation keys
   cover only the twin layout's doubled amounts, so a ladder built from it
   without [?sentinel] must still run the twin plan — and answer from the
   primary rung on the first attempt, not degrade to the cleartext rung
   after every real attempt fails on a missing rotation key. *)
let test_sentinel_compile_unverified_ladder () =
  let compiled = Lazy.force pinned_sentinel_compile in
  let ladder =
    Service.ladder_of_compiled compiled ~seed:5 ~reduced_rungs:0 ~clear_fallback:true
      ~with_secret:true ()
  in
  List.iter
    (fun (d : Service.deployment) ->
      Alcotest.(check bool) (d.Service.dep_label ^ " runs twin") true d.Service.dep_plan.Chet_plan.Plan.p_twin)
    ladder;
  with_service (quick_cfg ()) ladder (fun svc ->
      let o = Service.infer svc ~seed:9 (image 9) in
      let got = ok_tensor "unverified twin rung" o in
      Alcotest.(check string) "served by the primary rung" "primary" o.Service.out_served_by;
      Alcotest.(check bool) "not degraded" false o.Service.out_degraded;
      Alcotest.(check int) "first attempt" 1 o.Service.out_attempts;
      Alcotest.(check bool) "unverified: no margin" true (Float.is_nan o.Service.out_margin_bits);
      let expected = direct_clean_run (image 9) in
      Alcotest.(check int) "same class as the clean run" (T.argmax expected) (T.argmax got))

(* The twin flag cannot be asked of a compile that did not choose it, and a
   rung cannot promise verification on a plan without the sentinel lane, or
   run a plan built for another circuit. *)
let test_ladder_geometry_rejected () =
  let plain = Lazy.force compiled in
  let spec = Chet.Integrity.spec_for micro in
  (match
     Service.ladder_of_keyset plain ~keyset:(Compiler.clear_keyset plain) ~sentinel:spec ()
   with
  | _ -> Alcotest.fail "?sentinel accepted for a circuit compiled without sentinels"
  | exception Invalid_argument _ -> ());
  let rejected name ladder =
    match Service.create (quick_cfg ()) ~circuit:micro ~ladder with
    | svc ->
        Service.shutdown svc;
        Alcotest.failf "Service.create accepted %s" name
    | exception Invalid_argument _ -> ()
  in
  let verified = { (clean_dep ()) with Service.dep_sentinel = Some spec } in
  rejected "a verified rung on a plan without the sentinel lane" [ verified ];
  let other = { (Models.micro.Models.build ()) with Chet_nn.Circuit.name = "micro-2" } in
  let foreign =
    Chet_plan.Plan.build ~slots:(Compiler.params_n (Lazy.force compiled).Compiler.params / 2)
      ~policy:(policy ()) other
  in
  rejected "a rung whose plan was built for another circuit"
    [ { (clean_dep ()) with Service.dep_plan = foreign } ]

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "queue: shed + close semantics" `Quick test_queue_shed_and_close;
        Alcotest.test_case "breaker: trip / half-open / close" `Quick test_breaker_lifecycle;
        Alcotest.test_case "(a) transient fault retried, bit-identical" `Quick
          test_transient_fault_retried;
        Alcotest.test_case "(b) persistent fault trips breaker, degraded serve" `Quick
          test_persistent_fault_degrades;
        Alcotest.test_case "(c) deadline fires, pool keeps serving" `Quick test_deadline_fires;
        Alcotest.test_case "(c') deadline expires while queued" `Quick
          test_deadline_expires_in_queue;
        Alcotest.test_case "(d) overload sheds with typed Overloaded" `Quick test_overload_sheds;
        Alcotest.test_case "worker crash typed + contained" `Quick
          test_worker_crash_is_typed_and_contained;
        Alcotest.test_case "(e) concurrent bit-identical to sequential" `Quick
          test_concurrent_matches_sequential;
        Alcotest.test_case "breaker snapshot/restore across clock origins" `Quick
          test_breaker_snapshot_restore;
        Alcotest.test_case "service state persists across restart" `Quick
          test_service_state_roundtrip;
        Alcotest.test_case "breaker: half-open admits exactly one probe (2 domains)" `Quick
          test_breaker_half_open_single_probe_2domains;
        Alcotest.test_case "breaker: abandoned probe releases its slot" `Quick
          test_breaker_probe_release;
        Alcotest.test_case "graceful drain: finish, refuse typed, persist" `Quick
          test_graceful_drain;
        Alcotest.test_case "cancel mid-circuit frees the worker, typed + node id" `Quick
          test_midcircuit_cancel_frees_worker;
        Alcotest.test_case "admission control refuses unfittable deadlines" `Quick
          test_admission_control_rejects_unfittable;
        Alcotest.test_case "deadline-aware rung selection skips unfit rungs" `Quick
          test_deadline_aware_rung_selection;
        Alcotest.test_case "retry backoff clamped to remaining budget" `Quick
          test_backoff_clamped_to_budget;
        Alcotest.test_case "prepared sentinel rungs match one-shot plans (real)" `Slow
          test_prepared_rungs_match_one_shot;
        Alcotest.test_case "sentinel compile without ?sentinel serves primary (real)" `Slow
          test_sentinel_compile_unverified_ladder;
        Alcotest.test_case "ladder geometry mismatches rejected" `Quick
          test_ladder_geometry_rejected;
      ] );
  ]

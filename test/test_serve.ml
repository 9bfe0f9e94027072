(* The serving layer's robustness contract, proven on Fault_backend-wrapped
   deployments (ISSUE acceptance criteria):

     (a) a transient injected fault is retried and the final answer matches
         the clean run bit-for-bit;
     (b) a persistent fault ends the request in its typed error once the
         retry budget is spent, and the service keeps answering;
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

let dep ?(label = "primary") backend =
  {
    Service.dep_label = label;
    dep_scales = seal_opts.Compiler.scales;
    dep_plan = Lazy.force plan;
    dep_backend = Service.Per_attempt backend;
    dep_sentinel = None;
  }

let clean_dep () = dep (fun ~req_seed:_ ~attempt:_ -> clear_backend ())

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
    default_deadline_ms = 60_000.0;
  }

let with_service cfg deployment f =
  let svc = Service.create cfg ~circuit:micro ~ladder:deployment in
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
  with_service (quick_cfg ()) (transient_fault_dep ()) (fun svc ->
      let o = Service.infer svc ~seed:7 (image 1) in
      let got = ok_tensor "transient" o in
      Alcotest.(check string) "served by the deployment" "primary" o.Service.out_served_by;
      Alcotest.(check bool) "was retried" true (o.Service.out_attempts >= 2);
      let expected = direct_clean_run (image 1) in
      Alcotest.(check (float 0.0))
        "bit-identical to the clean run" 0.0
        (T.max_abs_diff (T.flatten expected) (T.flatten got));
      let s = Service.stats svc in
      Alcotest.(check bool) "retry counted" true (s.Service.s_retries >= 1);
      Alcotest.(check int) "no worker crashes" 0 s.Service.s_worker_crashes)

(* --- (b) persistent fault: typed error after the retries, service lives *)

let test_persistent_fault_typed_error () =
  let cfg = quick_cfg ~domains:1 () in
  (* every attempt of seed 3 is poisoned; other seeds compute cleanly *)
  let deployment =
    dep (fun ~req_seed ~attempt:_ ->
        if req_seed = 3 then poisoned_backend ~req_seed else clear_backend ())
  in
  with_service cfg deployment (fun svc ->
      let o = Service.infer svc ~seed:3 (image 3) in
      (match o.Service.out_result with
      | Error (Herr.Numeric_blowup _, _) -> ()
      | Ok _ -> Alcotest.fail "a persistently poisoned request cannot succeed"
      | Error (e, c) -> Alcotest.failf "wrong error class: %s" (Herr.to_string (e, c)));
      Alcotest.(check int) "every retry spent" (cfg.Service.max_retries + 1) o.Service.out_attempts;
      Alcotest.(check string) "the deployment ran it" "primary" o.Service.out_served_by;
      (* a later clean request on the same service is still answered *)
      let fine = Service.infer svc ~seed:4 (image 4) in
      let got = ok_tensor "clean request after the failure" fine in
      Alcotest.(check int) "first attempt" 1 fine.Service.out_attempts;
      Alcotest.(check (float 0.0))
        "bit-identical to the clean run" 0.0
        (T.max_abs_diff (T.flatten (direct_clean_run (image 4))) (T.flatten got));
      let s = Service.stats svc in
      Alcotest.(check int) "one typed failure" 1 s.Service.s_failed;
      Alcotest.(check int) "one success" 1 s.Service.s_succeeded;
      Alcotest.(check int) "retries counted" cfg.Service.max_retries s.Service.s_retries)

(* --- (c) deadlines fire; the pool keeps serving -------------------- *)

let test_deadline_fires () =
  let slow_dep =
    dep ~label:"slow" (fun ~req_seed:_ ~attempt:_ ->
        Unix.sleepf 0.15;
        clear_backend ())
  in
  with_service (quick_cfg ~domains:1 ()) slow_dep (fun svc ->
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
  with_service (quick_cfg ~domains:1 ()) gated_dep (fun svc ->
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
  with_service cfg gated_dep (fun svc ->
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
  with_service (quick_cfg ~domains:1 ()) crashing_dep (fun svc ->
      let o = Service.infer svc ~seed:4 (image 4) in
      (match o.Service.out_result with
      | Error (Herr.Worker_crashed { reason; _ }, _) ->
          Alcotest.(check bool) "reason captured" true (String.length reason > 0)
      | _ -> Alcotest.fail "expected a typed Worker_crashed failure");
      (* a hard failure: no retry *)
      Alcotest.(check int) "one attempt" 1 o.Service.out_attempts;
      let s = Service.stats svc in
      Alcotest.(check bool) "crash converted and counted" true (s.Service.s_worker_crashes >= 1))

(* --- (e) concurrent == sequential, bit for bit ---------------------- *)

let test_concurrent_matches_sequential () =
  let n = 8 in
  let run ~domains =
    with_service (quick_cfg ~domains ()) (clean_dep ()) (fun svc ->
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

(* --- graceful drain (SIGTERM protocol, automated) ----------------------
   The three assertions of the shutdown contract, previously only exercised
   end-to-end by scripts: in-flight requests complete, new submissions are
   refused with a typed [Overloaded], and drain reports completion (the
   worker's cue to exit 0). *)

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
  with_service cfg gated_dep (fun svc ->
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
      (* (3) ... and report completion once the in-flight work lands *)
      Alcotest.(check bool) "drain completes" true (Service.drain svc ~timeout_ms:10_000.0);
      Alcotest.(check int) "nothing in flight" 0 (Service.inflight svc);
      (* (1) the admitted requests ran to real outcomes *)
      ignore (ok_tensor "in-flight #1 completed" (Service.await svc t1));
      ignore (ok_tensor "in-flight #2 completed" (Service.await svc t2)))

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
  with_service (quick_cfg ~domains:1 ()) pausable (fun svc ->
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

(* --- retry backoff clamped to the remaining budget --------------------
   On a manual clock (only backoff sleeps advance it; the 1 ms await polls
   do not), a persistently-failing deployment with a 100 ms budget and a 40 ms
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
  with_service cfg (persistent_fault_dep ()) (fun svc ->
      let o = Service.infer svc ~deadline_ms:100.0 ~seed:5 (image 5) in
      (match o.Service.out_result with
      | Error (Herr.Deadline_exceeded { budget_ms; elapsed_ms }, _) ->
          Alcotest.(check (float 0.01)) "budget echoed" 100.0 budget_ms;
          Alcotest.(check (float 0.01)) "failed fast at the budget, not after" 100.0 elapsed_ms
      | Ok _ -> Alcotest.fail "persistently-failing deployment cannot succeed"
      | Error (e, c) -> Alcotest.failf "wrong error class: %s" (Herr.to_string (e, c)));
      (* 40 ms + (80 ms clamped to 60 ms) = exactly the budget; unclamped the
         schedule would have slept 1240 ms of virtual time over 6 attempts *)
      Alcotest.(check (float 1e-6)) "clock parked at the deadline" 0.1 (Atomic.get clock);
      Alcotest.(check int) "retries stopped early" 2 o.Service.out_attempts)

(* micro compiled with sentinels, its ring pinned to 2048 (rotation keys
   re-selected at that size) so real key generation and inference stay
   fast; shared by the real-backend deployment tests *)
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

(* The deployment [ladder_of_keyset] builds is a plan prepared once per
   worker, whose sampler is reseeded per attempt. On the real backend (a small
   ring) with sentinels on, answers served concurrently must equal a
   one-shot plan run on a fresh per-request view of the same keyset, bit
   for bit, and each must carry the sentinel margin measured on the plan. *)
let test_prepared_rungs_match_one_shot () =
  let compiled = Lazy.force pinned_sentinel_compile in
  let seed = 5 and spec = Chet.Integrity.spec_for micro in
  let keyset = Compiler.keyset compiled ~seed ~with_secret:true () in
  let deployment = Service.ladder_of_keyset compiled ~keyset ~sentinel:spec () in
  let one_shot img ~req_seed =
    let module H = (val Compiler.view keyset ~req_seed) in
    let module PE = Chet_plan.Plan_exec.Make (H) in
    PE.eval ~sentinel:(Chet.Integrity.sentinel spec) compiled.Compiler.opts.Compiler.scales micro
      ~policy:compiled.Compiler.policy img
  in
  with_service (quick_cfg ()) deployment (fun svc ->
      List.init 4 (fun i -> (i, Service.submit svc ~seed:(40 + i) (image i)))
      |> List.iter (fun (i, ticket) ->
             let o = Service.await svc ticket in
             let got = ok_tensor "prepared deployment" o in
             if not (Float.is_finite o.Service.out_margin_bits) then
               Alcotest.failf "request %d: no sentinel margin" i;
             let expected = one_shot (image i) ~req_seed:(40 + i) in
             Alcotest.(check bool)
               (Printf.sprintf "request %d bit-identical" i)
               true (got.T.data = expected.T.data)))

(* The twin decision is the compile's: a sentinel compile's rotation keys
   cover only the twin layout's doubled amounts, so a deployment built from
   it without [?sentinel] must still run the twin plan — and answer on the
   first attempt, not fail every attempt on a missing rotation key. *)
let test_sentinel_compile_unverified_ladder () =
  let compiled = Lazy.force pinned_sentinel_compile in
  let deployment = Service.ladder_of_compiled compiled ~seed:5 ~with_secret:true () in
  Alcotest.(check bool) "runs twin" true deployment.Service.dep_plan.Chet_plan.Plan.p_twin;
  with_service (quick_cfg ()) deployment (fun svc ->
      let o = Service.infer svc ~seed:9 (image 9) in
      let got = ok_tensor "unverified twin deployment" o in
      Alcotest.(check string) "served by the deployment" "primary" o.Service.out_served_by;
      Alcotest.(check bool) "not degraded" false o.Service.out_degraded;
      Alcotest.(check int) "first attempt" 1 o.Service.out_attempts;
      Alcotest.(check bool) "unverified: no margin" true (Float.is_nan o.Service.out_margin_bits);
      let expected = direct_clean_run (image 9) in
      Alcotest.(check int) "same class as the clean run" (T.argmax expected) (T.argmax got))

(* The twin flag cannot be asked of a compile that did not choose it, a
   deployment cannot promise verification on a plan without the sentinel
   lane, or run a plan built for another circuit, and a service has no
   second deployment to build. *)
let test_ladder_geometry_rejected () =
  let plain = Lazy.force compiled in
  let spec = Chet.Integrity.spec_for micro in
  let refused name build =
    match build () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  refused "?sentinel for a circuit compiled without sentinels" (fun () ->
      Service.ladder_of_keyset plain ~keyset:(Compiler.clear_keyset plain) ~sentinel:spec ());
  refused "a reduced-scale rung" (fun () ->
      Service.ladder_of_compiled plain ~seed:5 ~reduced_rungs:1 ~with_secret:true ());
  refused "a cleartext fallback" (fun () ->
      Service.ladder_of_compiled plain ~seed:5 ~clear_fallback:true ~with_secret:true ());
  let rejected name deployment =
    match Service.create (quick_cfg ()) ~circuit:micro ~ladder:deployment with
    | svc ->
        Service.shutdown svc;
        Alcotest.failf "Service.create accepted %s" name
    | exception Invalid_argument _ -> ()
  in
  let verified = { (clean_dep ()) with Service.dep_sentinel = Some spec } in
  rejected "a verified deployment on a plan without the sentinel lane" verified;
  let other = { (Models.micro.Models.build ()) with Chet_nn.Circuit.name = "micro-2" } in
  let foreign =
    Chet_plan.Plan.build ~slots:(Compiler.params_n (Lazy.force compiled).Compiler.params / 2)
      ~policy:(policy ()) other
  in
  rejected "a deployment whose plan was built for another circuit"
    { (clean_dep ()) with Service.dep_plan = foreign }

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "queue: shed + close semantics" `Quick test_queue_shed_and_close;
        Alcotest.test_case "(a) transient fault retried, bit-identical" `Quick
          test_transient_fault_retried;
        Alcotest.test_case "(b) persistent fault: typed error after its retries" `Quick
          test_persistent_fault_typed_error;
        Alcotest.test_case "(c) deadline fires, pool keeps serving" `Quick test_deadline_fires;
        Alcotest.test_case "(c') deadline expires while queued" `Quick
          test_deadline_expires_in_queue;
        Alcotest.test_case "(d) overload sheds with typed Overloaded" `Quick test_overload_sheds;
        Alcotest.test_case "worker crash typed + contained" `Quick
          test_worker_crash_is_typed_and_contained;
        Alcotest.test_case "(e) concurrent bit-identical to sequential" `Quick
          test_concurrent_matches_sequential;
        Alcotest.test_case "graceful drain: finish, refuse typed, report done" `Quick
          test_graceful_drain;
        Alcotest.test_case "cancel mid-circuit frees the worker, typed + node id" `Quick
          test_midcircuit_cancel_frees_worker;
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

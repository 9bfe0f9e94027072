(* The hardened-runtime contract, tested adversarially: every corruption
   class Fault_backend can inject must surface through Checked_backend as the
   matching typed Herr.Fhe_error — never as a silently-garbage prediction —
   and the clean composition (no fault armed) must be observationally
   identical to the bare backend. Also exercises the compiler's graceful
   degradation: a pinned modulus budget that rejects the first scale
   candidate must be survived by the search, with the rejection logged
   structurally. *)

module Compiler = Chet.Compiler
module Scale_select = Chet.Scale_select
module Layout = Chet_runtime.Layout
module Kernels = Chet_runtime.Kernels
module Models = Chet_nn.Models
module Circuit = Chet_nn.Circuit
module Hisa = Chet_hisa.Hisa
module Herr = Chet_hisa.Herr
module Checked = Chet_hisa.Checked_backend
module Fault = Chet_hisa.Fault_backend
module Clear = Chet_hisa.Clear_backend
module T = Chet_tensor.Tensor

let seal_opts = Compiler.default_options ~target:Compiler.Seal ()
let micro = Models.micro.Models.build ()
let image = Models.input_for Models.micro ~seed:77

(* compile and generate keys once; every fault test deploys the same
   configuration, each run on a fresh view of the one keyset *)
let compiled = lazy (Compiler.compile seal_opts micro)
let keys = lazy (Compiler.keyset (Lazy.force compiled) ~seed:42 ~with_secret:true ())

(* Run one full encrypted inference with [fault] armed between the real
   backend and the checker, returning what the checker thought of it. *)
let run_with_fault ?(trigger = 0) fault =
  let compiled = Lazy.force compiled and ks = Lazy.force keys in
  let faulty, log =
    Fault.wrap (Fault.default_config ~trigger (Some fault)) (Compiler.view ks ~req_seed:0)
  in
  let checked = Checked.wrap ~scheme:ks.Compiler.ks_scheme faulty in
  let module H = (val checked) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let outcome =
    try
      ignore
        (E.eval compiled.Compiler.opts.Compiler.scales compiled.Compiler.circuit
           ~policy:compiled.Compiler.policy image);
      Ok ()
    with Herr.Fhe_error (e, c) -> Error (e, c)
  in
  (outcome, log)

let check_detected name fault ~matches =
  let outcome, log = run_with_fault fault in
  Alcotest.(check bool) (name ^ ": fault fired") true log.Fault.fired;
  match outcome with
  | Ok () -> Alcotest.failf "%s: injected fault was not detected" name
  | Error (e, c) ->
      if not (matches e) then
        Alcotest.failf "%s: wrong error class: %s" name (Herr.to_string (e, c))

let test_scale_corruption_detected () =
  check_detected "scale corruption" Fault.Scale_corruption ~matches:(function
    | Herr.Scale_mismatch _ -> true
    | _ -> false)

let test_level_drop_detected () =
  check_detected "premature level drop" Fault.Premature_level_drop ~matches:(function
    | Herr.Level_mismatch _ -> true
    | _ -> false)

let test_slot_scramble_detected () =
  check_detected "slot scramble" Fault.Slot_scramble ~matches:(function
    | Herr.Corrupt_ciphertext _ -> true
    | _ -> false)

let test_nan_poison_detected () =
  check_detected "nan poison" Fault.Nan_poison ~matches:(function
    | Herr.Numeric_blowup _ -> true
    | _ -> false)

let test_dropped_rescale_detected () =
  check_detected "dropped rescale" Fault.Dropped_rescale ~matches:(function
    | Herr.Illegal_rescale _ -> true
    | _ -> false)

(* ops a clean inference puts through the fault wrapper's counter: every
   intercepted op but encode and decrypt, which it forwards uncounted *)
let clean_op_count () =
  let compiled = Lazy.force compiled and ks = Lazy.force keys in
  let n = ref 0 in
  let around op _ run =
    (match op with Hisa.Encode | Hisa.Decrypt -> () | _ -> incr n);
    run ()
  in
  let module H = (val Hisa.intercept { Hisa.around } (Compiler.view ks ~req_seed:0)) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  ignore
    (E.eval compiled.Compiler.opts.Compiler.scales compiled.Compiler.circuit
       ~policy:compiled.Compiler.policy image);
  !n

let test_late_trigger_still_detected () =
  (* arming the fault deep into the circuit — three quarters of the way
     through a clean run's ops — must still be caught *)
  let trigger = 3 * clean_op_count () / 4 in
  let outcome, log = run_with_fault ~trigger Fault.Scale_corruption in
  Alcotest.(check bool) "fired late" true (log.Fault.fired && log.Fault.fired_at_op >= trigger);
  match outcome with
  | Ok () -> Alcotest.fail "late fault not detected"
  | Error (Herr.Scale_mismatch _, _) -> ()
  | Error (e, c) -> Alcotest.failf "wrong class: %s" (Herr.to_string (e, c))

let test_clean_composition_transparent () =
  (* with no fault armed, Checked(Fault(backend)) computes exactly what the
     bare backend computes — the monitors are observationally invisible.
     Both sides run on a view of the same keyset for the same request, so
     they draw the same encryption randomness. *)
  let compiled = Lazy.force compiled and ks = Lazy.force keys in
  let run_bare () =
    let module H = (val Compiler.view ks ~req_seed:0) in
    let module E = Chet_plan.Plan_exec.Make (H) in
    E.eval compiled.Compiler.opts.Compiler.scales compiled.Compiler.circuit
      ~policy:compiled.Compiler.policy image
  in
  let run_wrapped () =
    let faulty, log = Fault.wrap (Fault.default_config None) (Compiler.view ks ~req_seed:0) in
    let checked = Checked.wrap ~scheme:ks.Compiler.ks_scheme faulty in
    let module H = (val checked) in
    let module E = Chet_plan.Plan_exec.Make (H) in
    let out =
      E.eval compiled.Compiler.opts.Compiler.scales compiled.Compiler.circuit
        ~policy:compiled.Compiler.policy image
    in
    Alcotest.(check bool) "nothing fired" false log.Fault.fired;
    out
  in
  let bare = T.flatten (run_bare ()) and wrapped = T.flatten (run_wrapped ()) in
  Alcotest.(check (float 0.0)) "bit-identical output" 0.0 (T.max_abs_diff bare wrapped)

(* --- silent corruption: the class the per-op monitors cannot see -------- *)

let test_silent_corruption_evades_monitors () =
  (* the defining property of the class: every per-op screen passes, the run
     completes, and without a sentinel the caller gets a confidently wrong
     answer — which is exactly why the end-to-end lane exists *)
  let outcome, log = run_with_fault Fault.Silent_corruption in
  Alcotest.(check bool) "fault fired" true log.Fault.fired;
  Alcotest.(check string) "fired in decode" "decode" log.Fault.fired_in;
  match outcome with
  | Ok () -> ()
  | Error (e, c) ->
      Alcotest.failf "silent corruption should evade the monitors, got %s" (Herr.to_string (e, c))

let test_silent_corruption_caught_by_sentinel () =
  (* same fault, but the deployment was compiled with the sentinel twin lane:
     the corruption perturbs the probe slots too, and verification raises the
     typed violation instead of returning the garbage *)
  let circuit = Models.micro.Models.build () in
  let opts = { (Compiler.default_options ()) with Compiler.sentinel = true } in
  let compiled = Compiler.compile opts circuit in
  let isp = Chet.Integrity.spec_for circuit in
  let ks = Compiler.keyset compiled ~seed:42 ~with_secret:true () in
  let faulty, log =
    Fault.wrap (Fault.default_config (Some Fault.Silent_corruption)) (Compiler.view ks ~req_seed:0)
  in
  let checked = Checked.wrap ~scheme:ks.Compiler.ks_scheme faulty in
  let module H = (val checked) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let sentinel = Chet.Integrity.sentinel isp in
  match
    E.eval ~sentinel compiled.Compiler.opts.Compiler.scales circuit
      ~policy:compiled.Compiler.policy image
  with
  | _ -> Alcotest.fail "corrupted answer escaped the sentinel"
  | exception Herr.Fhe_error (Herr.Integrity_violation _, _) ->
      Alcotest.(check bool) "fault fired" true log.Fault.fired

(* --- direct Checked_backend unit tests (no executor in the loop) -------- *)

let chain = [| 1073741789; 1073741783; 1073741741 |]

let checked_clear () =
  let scheme = Hisa.Rns_chain chain in
  Checked.wrap ~scheme
    (Clear.make { Clear.slots = 16; scheme; strict_modulus = false; encode_noise = false })

let test_checked_illegal_divisor () =
  let module H = (val checked_clear () : Hisa.S) in
  let a = H.encrypt (H.encode [| 1.0 |] ~scale:(1 lsl 40)) in
  Alcotest.(check bool) "caught" true
    (try
       ignore (H.rescale (H.mul a a) 12345);
       false
     with Herr.Fhe_error (Herr.Illegal_rescale _, _) -> true)

let test_checked_nan_encode () =
  let module H = (val checked_clear () : Hisa.S) in
  Alcotest.(check bool) "caught" true
    (try
       ignore (H.encode [| 1.0; Float.nan |] ~scale:1024);
       false
     with Herr.Fhe_error (Herr.Numeric_blowup { slot = 1; _ }, _) -> true)

let test_checked_oversized_rotation () =
  let module H = (val checked_clear () : Hisa.S) in
  let a = H.encrypt (H.encode [| 1.0 |] ~scale:1024) in
  Alcotest.(check bool) "caught" true
    (try
       ignore (H.rot_left a 16);
       false
     with Herr.Fhe_error (Herr.Slot_overflow _, _) -> true)

(* --- graceful degradation: scale search under a pinned modulus budget --- *)

let test_scale_search_recovers_from_exhaustion () =
  let images = [ image ] in
  let policy = Layout.All_hw in
  (* the budget the deployment would naturally need for the default scales *)
  let natural = Compiler.select_params seal_opts micro ~policy in
  match natural with
  | Compiler.Pow2_params _ -> Alcotest.fail "expected RNS params for SEAL"
  | Compiler.Rns_params p ->
      (* Pin the *largest* budget that still rejects the default starting
         candidate (2^40, 2^30, 2^30, 2^20) with Modulus_exhausted — shaving
         primes off the natural chain until the exhaustion becomes real.
         Using the largest such budget keeps the fallback candidates
         feasible, which is the recovery we want to witness. *)
      let pin k =
        Compiler.Rns_params
          { p with num_primes = p.num_primes - k; log_q = p.log_q - (k * p.prime_bits) }
      in
      let start_scales =
        { Kernels.pc = 1 lsl 40; pw = 1 lsl 30; pu = 1 lsl 30; pm = 1 lsl 20 }
      in
      let rec find k =
        if p.num_primes - k < 2 then None
        else
          match
            Scale_select.evaluate ~fixed_params:(pin k) seal_opts micro ~policy ~images
              ~tolerance:0.35 start_scales
          with
          | Scale_select.Fhe_rejected (Herr.Modulus_exhausted _, _) -> Some (pin k)
          | _ -> find (k + 1)
      in
      let pinned =
        match find 1 with
        | Some pinned -> pinned
        | None -> Alcotest.fail "no pinned budget exhausts the starting candidate"
      in
      let lines = ref [] in
      let result =
        try
          Scale_select.search ~fixed_params:pinned
            ~log:(fun s -> lines := s :: !lines)
            seal_opts micro ~policy ~images ~tolerance:0.35 ()
        with Compiler.Compilation_failure msg ->
          Alcotest.failf "search aborted (%s); log:\n%s" msg
            (String.concat "\n" (List.rev !lines))
      in
      (* the first candidate was rejected for a *structural* FHE reason... *)
      let saw_exhaustion =
        List.exists
          (fun r ->
            match r.Scale_select.rej_verdict with
            | Scale_select.Fhe_rejected (Herr.Modulus_exhausted _, _) -> true
            | _ -> false)
          result.Scale_select.rejections
      in
      Alcotest.(check bool) "modulus exhaustion rejected and logged" true saw_exhaustion;
      Alcotest.(check bool) "rejection lines logged" true (!lines <> []);
      Alcotest.(check bool) "log names the reason" true
        (List.exists
           (fun l ->
             let contains s sub =
               let n = String.length s and m = String.length sub in
               let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
               go 0
             in
             contains l "modulus")
           !lines);
      (* ...and the search still converged on workable scales *)
      let ec, ew, eu, em = result.Scale_select.exponents in
      Alcotest.(check bool) "search recovered" true (ec >= 4 && ew >= 4 && eu >= 4 && em >= 4);
      Alcotest.(check bool) "accepted under the pinned budget" true
        (Scale_select.acceptable ~fixed_params:pinned seal_opts micro ~policy ~images
           ~tolerance:0.35 result.Scale_select.scales)

let suite =
  [
    ( "fault-injection",
      [
        Alcotest.test_case "scale corruption -> Scale_mismatch" `Quick test_scale_corruption_detected;
        Alcotest.test_case "level drop -> Level_mismatch" `Quick test_level_drop_detected;
        Alcotest.test_case "slot scramble -> Corrupt_ciphertext" `Quick test_slot_scramble_detected;
        Alcotest.test_case "nan poison -> Numeric_blowup" `Quick test_nan_poison_detected;
        Alcotest.test_case "dropped rescale -> Illegal_rescale" `Quick test_dropped_rescale_detected;
        Alcotest.test_case "late trigger still detected" `Quick test_late_trigger_still_detected;
        Alcotest.test_case "clean composition transparent" `Quick test_clean_composition_transparent;
        Alcotest.test_case "silent corruption evades per-op monitors" `Quick
          test_silent_corruption_evades_monitors;
        Alcotest.test_case "silent corruption -> Integrity_violation (sentinel)" `Quick
          test_silent_corruption_caught_by_sentinel;
        Alcotest.test_case "checked: illegal divisor" `Quick test_checked_illegal_divisor;
        Alcotest.test_case "checked: NaN encode" `Quick test_checked_nan_encode;
        Alcotest.test_case "checked: oversized rotation" `Quick test_checked_oversized_rotation;
        Alcotest.test_case "scale search survives pinned budget" `Quick
          test_scale_search_recovers_from_exhaustion;
      ] );
  ]

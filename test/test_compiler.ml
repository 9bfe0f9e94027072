(* Tests of the CHET compiler passes: parameter selection, layout selection
   via the cost model, rotation-key selection, and profile-guided scale
   search — plus an integration test showing a compiled configuration
   actually runs correctly on the real scheme it selected. *)

module Compiler = Chet.Compiler
module Scale_select = Chet.Scale_select
module Layout = Chet_runtime.Layout
module Kernels = Chet_runtime.Kernels
module Models = Chet_nn.Models
module Circuit = Chet_nn.Circuit
module Reference = Chet_nn.Reference
module Security = Chet_crypto.Security
module T = Chet_tensor.Tensor
module Hisa = Chet_hisa.Hisa

let seal_opts = Compiler.default_options ~target:Compiler.Seal ()
let heaan_opts = Compiler.default_options ~target:Compiler.Heaan ()

let micro = Models.micro.Models.build ()
let lenet_small = Models.lenet5_small.Models.build ()

let test_params_seal_micro () =
  let p = Compiler.select_params seal_opts micro ~policy:Layout.All_hw in
  match p with
  | Compiler.Rns_params { n; num_primes; log_q; prime_bits } ->
      Alcotest.(check bool) "enough depth" true (num_primes >= 3);
      Alcotest.(check int) "prime bits" 30 prime_bits;
      Alcotest.(check int) "logQ" ((num_primes + 2) * 30) log_q;
      (* the security table must hold: logQ fits this N at 128 bits *)
      Alcotest.(check bool) "secure" true (log_q <= Security.max_log_q Security.Bits128 n)
  | Compiler.Pow2_params _ -> Alcotest.fail "expected RNS params for SEAL"

let test_params_heaan_micro () =
  match Compiler.select_params heaan_opts micro ~policy:Layout.All_hw with
  | Compiler.Pow2_params { n; log_fresh; log_special } ->
      Alcotest.(check bool) "consumed something" true (log_fresh > 60);
      Alcotest.(check int) "special = fresh" log_fresh log_special;
      Alcotest.(check bool) "legacy secure" true
        (log_fresh <= Security.legacy_heaan_max_log_q n)
  | Compiler.Rns_params _ -> Alcotest.fail "expected pow2 params for HEAAN"

let test_params_grow_with_depth () =
  (* deeper circuits must consume more modulus *)
  let p_small = Compiler.select_params seal_opts micro ~policy:Layout.All_hw in
  let p_lenet = Compiler.select_params seal_opts lenet_small ~policy:Layout.All_hw in
  Alcotest.(check bool) "lenet needs more primes" true
    (Compiler.params_log_q p_lenet > Compiler.params_log_q p_small)

let test_params_depend_on_layout () =
  (* both layouts must produce valid parameters for the same circuit *)
  List.iter
    (fun policy ->
      let p = Compiler.select_params seal_opts lenet_small ~policy in
      Alcotest.(check bool) "n is a power of two" true
        (let n = Compiler.params_n p in
         n land (n - 1) = 0 && n >= 2048))
    Layout.all_policies

let test_cost_positive_and_orders () =
  let p = Compiler.select_params seal_opts lenet_small ~policy:Layout.All_hw in
  let c_small = Compiler.estimate_cost seal_opts micro ~policy:Layout.All_hw
      ~params:(Compiler.select_params seal_opts micro ~policy:Layout.All_hw)
  in
  let c_lenet = Compiler.estimate_cost seal_opts lenet_small ~policy:Layout.All_hw ~params:p in
  Alcotest.(check bool) "positive" true (c_small > 0.0);
  Alcotest.(check bool) "bigger network costs more" true (c_lenet > c_small)

let test_rotation_selection () =
  let params = Compiler.select_params seal_opts micro ~policy:Layout.All_hw in
  let rotations, counters =
    Compiler.select_rotations seal_opts micro ~policy:Layout.All_hw ~params
  in
  Alcotest.(check bool) "has rotations" true (List.length rotations > 0);
  (* far fewer distinct keys than N/2 possible amounts (§5.4) *)
  Alcotest.(check bool) "far fewer than slots" true
    (List.length rotations < Compiler.params_n params / 8);
  (* conv 3x3 on a HW layout must rotate by the row stride *)
  Alcotest.(check bool) "nontrivial amounts" true
    (List.exists (fun (a, _) -> a > 1) rotations);
  Alcotest.(check bool) "counters consistent" true
    (Chet_hisa.Instrument.total_rotations counters
    = List.fold_left (fun acc (_, uses) -> acc + uses) 0 rotations)

let test_compile_end_to_end_micro () =
  let compiled = Compiler.compile seal_opts micro in
  Alcotest.(check int) "all four policies reported" 4 (List.length compiled.Compiler.reports);
  let best = compiled.Compiler.policy in
  List.iter
    (fun r ->
      Alcotest.(check bool) "best is minimal" true
        (r.Compiler.pr_cost
        >= (List.find (fun r -> r.Compiler.pr_policy = best) compiled.Compiler.reports)
             .Compiler.pr_cost))
    compiled.Compiler.reports

let test_compiled_runs_on_real_scheme () =
  (* deploy the compiled configuration on the real RNS-CKKS backend with
     exactly the selected rotation keys, and verify output fidelity *)
  let opts = { seal_opts with Compiler.scales = Kernels.default_scales } in
  let compiled = Compiler.compile opts micro in
  let backend = Compiler.instantiate compiled ~seed:5 ~with_secret:true () in
  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let image = Models.input_for Models.micro ~seed:31 in
  let expected = Reference.eval micro image in
  let got = E.eval opts.Compiler.scales micro ~policy:compiled.Compiler.policy image in
  let diff = T.max_abs_diff (T.flatten expected) (T.flatten got) in
  if diff > 0.05 then Alcotest.failf "compiled micro on real scheme: diff %.4f" diff

let test_compiled_runs_on_real_heaan () =
  let compiled = Compiler.compile heaan_opts micro in
  let backend = Compiler.instantiate compiled ~seed:6 ~with_secret:true () in
  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let image = Models.input_for Models.micro ~seed:32 in
  let expected = Reference.eval micro image in
  let got = E.eval heaan_opts.Compiler.scales micro ~policy:compiled.Compiler.policy image in
  let diff = T.max_abs_diff (T.flatten expected) (T.flatten got) in
  if diff > 0.05 then Alcotest.failf "compiled micro on real HEAAN: diff %.4f" diff

let test_scale_search () =
  let images = List.init 2 (fun i -> Models.input_for Models.micro ~seed:(50 + i)) in
  let result =
    Scale_select.search seal_opts micro ~policy:Layout.All_hw ~images ~tolerance:0.05
      ~start_exponents:(34, 24, 24, 18) ()
  in
  let ec, ew, eu, em = result.Scale_select.exponents in
  (* the search must have shrunk something from the start *)
  Alcotest.(check bool) "made progress" true (ec + ew + eu + em < 34 + 24 + 24 + 18);
  Alcotest.(check bool) "result acceptable" true
    (Scale_select.acceptable seal_opts micro ~policy:Layout.All_hw ~images ~tolerance:0.05
       result.Scale_select.scales);
  (* shrinking any factor further must be unacceptable (local minimum) *)
  let shrunk =
    [
      (ec - 1, ew, eu, em); (ec, ew - 1, eu, em); (ec, ew, eu - 1, em); (ec, ew, eu, em - 1);
    ]
  in
  List.iter
    (fun (c, w, u, m) ->
      let s = { Kernels.pc = 1 lsl c; pw = 1 lsl w; pu = 1 lsl u; pm = 1 lsl m } in
      Alcotest.(check bool) "minimal" false
        (Scale_select.acceptable seal_opts micro ~policy:Layout.All_hw ~images ~tolerance:0.05 s))
    shrunk

let test_scale_search_rejects_impossible () =
  let images = [ Models.input_for Models.micro ~seed:60 ] in
  Alcotest.(check bool) "impossible tolerance" true
    (try
       ignore
         (Scale_select.search seal_opts micro ~policy:Layout.All_hw ~images ~tolerance:1e-12
            ~start_exponents:(10, 8, 8, 6) ());
       false
     with Compiler.Compilation_failure msg ->
       (* the failure message names the structured reason for the last rejection *)
       String.length msg > 0
       && String.sub msg 0 12 = "scale search"
       &&
       let contains s sub =
         let n = String.length s and m = String.length sub in
         let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
         go 0
       in
       contains msg "tolerance")

let suite =
  [
    ( "compiler",
      [
        Alcotest.test_case "params: SEAL micro" `Quick test_params_seal_micro;
        Alcotest.test_case "params: HEAAN micro" `Quick test_params_heaan_micro;
        Alcotest.test_case "params grow with depth" `Quick test_params_grow_with_depth;
        Alcotest.test_case "params valid for all layouts" `Quick test_params_depend_on_layout;
        Alcotest.test_case "cost model ordering" `Quick test_cost_positive_and_orders;
        Alcotest.test_case "rotation-key selection" `Quick test_rotation_selection;
        Alcotest.test_case "compile picks cheapest layout" `Quick test_compile_end_to_end_micro;
        Alcotest.test_case "compiled config runs on real SEAL" `Slow test_compiled_runs_on_real_scheme;
        Alcotest.test_case "compiled config runs on real HEAAN" `Slow test_compiled_runs_on_real_heaan;
        Alcotest.test_case "profile-guided scale search" `Slow test_scale_search;
        Alcotest.test_case "scale search rejects impossible" `Quick test_scale_search_rejects_impossible;
      ] );
  ]

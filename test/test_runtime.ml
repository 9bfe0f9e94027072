(* Runtime kernel tests: every layout policy must produce the same numbers as
   the plaintext reference engine — first through the cleartext HISA backend
   (exact up to fixed-point quantisation), then end-to-end through the real
   RNS-CKKS scheme on a small network. *)

module Hisa = Chet_hisa.Hisa
module Clear = Chet_hisa.Clear_backend
module Layout = Chet_runtime.Layout
module Kernels = Chet_runtime.Kernels
module Circuit = Chet_nn.Circuit
module Models = Chet_nn.Models
module Reference = Chet_nn.Reference
module T = Chet_tensor.Tensor
module Dataset = Chet_tensor.Dataset

let scales = Kernels.default_scales

let clear_backend ?(slots = 4096) () =
  Clear.make
    {
      Clear.slots;
      scheme = Hisa.Rns_chain (Array.make 64 ((1 lsl 30) - 35));
      strict_modulus = false;
      encode_noise = false;
    }

(* ------------------------------------------------------------------ *)
(* Layout unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_layout_pack_roundtrip () =
  List.iter
    (fun kind ->
      let meta = Layout.create ~kind ~slots:4096 ~channels:5 ~height:9 ~width:7 ~margin:2 () in
      let t = Dataset.image ~seed:1 ~channels:5 ~height:9 ~width:7 in
      let packed = Layout.pack meta t in
      Alcotest.(check int) "ct count" (Layout.num_cts meta) (Array.length packed);
      let back = Layout.unpack meta packed in
      Alcotest.(check (float 0.0)) "roundtrip" 0.0 (T.max_abs_diff t back))
    [ Layout.HW; Layout.CHW ]

let test_layout_hw_one_channel_per_ct () =
  let meta = Layout.create ~kind:Layout.HW ~slots:4096 ~channels:3 ~height:8 ~width:8 () in
  Alcotest.(check int) "cts" 3 (Layout.num_cts meta);
  Alcotest.(check int) "cpc" 1 meta.Layout.ch_per_ct

let test_layout_chw_packing () =
  let meta = Layout.create ~kind:Layout.CHW ~slots:4096 ~channels:8 ~height:8 ~width:8 () in
  Alcotest.(check bool) "packs >1 channel" true (meta.Layout.ch_per_ct > 1);
  Alcotest.(check bool) "pow2" true (meta.Layout.ch_per_ct land (meta.Layout.ch_per_ct - 1) = 0);
  Alcotest.(check bool) "fewer cts" true (Layout.num_cts meta < 8)

let test_layout_zero_gaps () =
  let meta = Layout.create ~kind:Layout.HW ~slots:1024 ~channels:1 ~height:6 ~width:6 ~margin:2 () in
  let t = Dataset.image ~seed:2 ~channels:1 ~height:6 ~width:6 in
  let packed = Layout.pack meta t in
  (* number of nonzero slots equals the number of logical positions *)
  let nonzero = Array.fold_left (fun acc v -> if v <> 0.0 then acc + 1 else acc) 0 packed.(0) in
  Alcotest.(check bool) "gaps zero" true (nonzero <= 36)

let test_layout_too_big_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Layout.create ~kind:Layout.HW ~slots:64 ~channels:1 ~height:32 ~width:32 ());
       false
     with Chet_hisa.Herr.Fhe_error (Chet_hisa.Herr.Slot_overflow _, _) -> true)

let test_vector_meta () =
  let meta = Layout.vector_meta ~slots:2048 ~length:10 () in
  Alcotest.(check int) "one ct" 1 (Layout.num_cts meta);
  Alcotest.(check int) "slot of c" 7 (Layout.slot_of meta ~c:7 ~h:0 ~w:0)

(* ------------------------------------------------------------------ *)
(* Kernels against the reference engine                                *)
(* ------------------------------------------------------------------ *)

let check_model_policy ?(tol = 2e-2) ?slots spec policy =
  let circuit = spec.Models.build () in
  let image = Models.input_for spec ~seed:7 in
  let expected = Reference.eval circuit image in
  let backend = clear_backend ?slots () in
  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let got = E.eval scales circuit ~policy image in
  let diff = T.max_abs_diff (T.flatten expected) (T.flatten got) in
  if diff > tol then
    Alcotest.failf "%s under %s: max diff %.6f > %.6f" spec.Models.model_name
      (Layout.policy_name policy) diff tol

let test_micro_all_policies () =
  List.iter (check_model_policy Models.micro) Layout.all_policies

let test_lenet_small_all_policies () =
  List.iter (check_model_policy Models.lenet5_small) Layout.all_policies

let test_lenet_medium_hw_chw () =
  List.iter (check_model_policy ~slots:8192 Models.lenet5_medium) [ Layout.All_hw; Layout.All_chw ]

let test_industrial_chw () = check_model_policy ~slots:16384 Models.industrial Layout.All_chw

let test_squeezenet_chw () =
  check_model_policy ~slots:2048 Models.squeezenet_cifar Layout.All_chw

let test_single_conv_same () =
  (* focused conv test: Same padding, stride 1, multi-channel *)
  let b = Circuit.builder () in
  let x = Circuit.input b ~name:"i" [| 3; 8; 8 |] in
  let st = Random.State.make [| 5 |] in
  let weights = Dataset.glorot st [| 4; 3; 3; 3 |] in
  let bias = Dataset.bias st 4 in
  let y = Circuit.conv2d b x ~weights ~bias ~stride:1 ~padding:T.Same () in
  let circuit = Circuit.finish b ~name:"conv-test" ~output:y in
  let image = Dataset.image ~seed:3 ~channels:3 ~height:8 ~width:8 in
  List.iter
    (fun policy ->
      let expected = Reference.eval circuit image in
      let module H = (val clear_backend () : Hisa.S) in
      let module E = Chet_plan.Plan_exec.Make (H) in
      let got = E.eval scales circuit ~policy image in
      let diff = T.max_abs_diff expected got in
      if diff > 1e-3 then
        Alcotest.failf "conv same (%s): diff %.6f" (Layout.policy_name policy) diff)
    [ Layout.All_hw; Layout.All_chw ]

let test_single_conv_stride2 () =
  let b = Circuit.builder () in
  let x = Circuit.input b ~name:"i" [| 2; 8; 8 |] in
  let st = Random.State.make [| 6 |] in
  let weights = Dataset.glorot st [| 4; 2; 3; 3 |] in
  let y = Circuit.conv2d b x ~weights ~stride:2 ~padding:T.Same () in
  let circuit = Circuit.finish b ~name:"conv-s2" ~output:y in
  let image = Dataset.image ~seed:4 ~channels:2 ~height:8 ~width:8 in
  List.iter
    (fun policy ->
      let expected = Reference.eval circuit image in
      let module H = (val clear_backend () : Hisa.S) in
      let module E = Chet_plan.Plan_exec.Make (H) in
      let got = E.eval scales circuit ~policy image in
      let diff = T.max_abs_diff expected got in
      if diff > 1e-3 then
        Alcotest.failf "conv s2 (%s): diff %.6f" (Layout.policy_name policy) diff)
    [ Layout.All_hw; Layout.All_chw ]

let test_pool_then_conv () =
  (* strided metadata: pooling dilates, the next conv must still be right *)
  let b = Circuit.builder () in
  let x = Circuit.input b ~name:"i" [| 2; 12; 12 |] in
  let st = Random.State.make [| 7 |] in
  let x = Circuit.avg_pool b x ~ksize:2 ~stride:2 in
  let weights = Dataset.glorot st [| 3; 2; 3; 3 |] in
  let x = Circuit.conv2d b x ~weights ~stride:1 ~padding:T.Same () in
  let circuit = Circuit.finish b ~name:"pool-conv" ~output:x in
  let image = Dataset.image ~seed:5 ~channels:2 ~height:12 ~width:12 in
  List.iter
    (fun policy ->
      let expected = Reference.eval circuit image in
      let module H = (val clear_backend () : Hisa.S) in
      let module E = Chet_plan.Plan_exec.Make (H) in
      let got = E.eval scales circuit ~policy image in
      let diff = T.max_abs_diff expected got in
      if diff > 1e-3 then
        Alcotest.failf "pool+conv (%s): diff %.6f" (Layout.policy_name policy) diff)
    [ Layout.All_hw; Layout.All_chw ]

(* ------------------------------------------------------------------ *)
(* End-to-end with the real RNS-CKKS backend                           *)
(* ------------------------------------------------------------------ *)

let test_micro_real_seal () =
  let module C = Chet_crypto.Rns_ckks in
  let params = C.default_params ~n:2048 ~bits:30 ~num_coeff_primes:8 () in
  let ctx = C.make_context params in
  let rng = Chet_crypto.Sampling.create ~seed:99 in
  let sk, keys = C.keygen ctx rng in
  C.add_power_of_two_rotation_keys ctx rng sk keys;
  let backend =
    Chet_hisa.Seal_backend.make { Chet_hisa.Seal_backend.ctx; rng; keys; secret = Some sk }
  in
  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let spec = Models.micro in
  let circuit = spec.Models.build () in
  let image = Models.input_for spec ~seed:21 in
  let expected = Reference.eval circuit image in
  let got = E.eval scales circuit ~policy:Layout.All_hw image in
  let diff = T.max_abs_diff (T.flatten expected) (T.flatten got) in
  if diff > 0.05 then Alcotest.failf "micro on real RNS-CKKS: diff %.4f" diff

let suite =
  [
    ( "layout",
      [
        Alcotest.test_case "pack/unpack roundtrip" `Quick test_layout_pack_roundtrip;
        Alcotest.test_case "HW single channel" `Quick test_layout_hw_one_channel_per_ct;
        Alcotest.test_case "CHW packing" `Quick test_layout_chw_packing;
        Alcotest.test_case "gaps stay zero" `Quick test_layout_zero_gaps;
        Alcotest.test_case "overflow rejected" `Quick test_layout_too_big_rejected;
        Alcotest.test_case "vector meta" `Quick test_vector_meta;
      ] );
    ( "kernels",
      [
        Alcotest.test_case "conv same padding" `Quick test_single_conv_same;
        Alcotest.test_case "conv stride 2" `Quick test_single_conv_stride2;
        Alcotest.test_case "pool then conv" `Quick test_pool_then_conv;
        Alcotest.test_case "micro: all policies" `Quick test_micro_all_policies;
        Alcotest.test_case "LeNet-5-small: all policies" `Slow test_lenet_small_all_policies;
        Alcotest.test_case "LeNet-5-medium: HW+CHW" `Slow test_lenet_medium_hw_chw;
        Alcotest.test_case "Industrial: CHW" `Slow test_industrial_chw;
        Alcotest.test_case "SqueezeNet: CHW" `Slow test_squeezenet_chw;
      ] );
    ( "end-to-end",
      [ Alcotest.test_case "micro on real RNS-CKKS" `Slow test_micro_real_seal ] );
  ]

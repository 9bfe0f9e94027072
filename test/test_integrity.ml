(* End-to-end result integrity (DESIGN.md §16): sentinel twin layouts and
   the fault classes they must catch. *)

module Tensor = Chet_tensor.Tensor
module Layout = Chet_runtime.Layout
module Kernels = Chet_runtime.Kernels
module Models = Chet_nn.Models
module Reference = Chet_nn.Reference
module Herr = Chet_hisa.Herr
module Hisa = Chet_hisa.Hisa
module Clear = Chet_hisa.Clear_backend
module Integrity = Chet.Integrity
module Compiler = Chet.Compiler
module Checked = Chet_hisa.Checked_backend

let clear_backend ?(slots = 4096) () =
  Clear.make
    { Clear.slots; scheme = Hisa.Pow2_modulus 8000; strict_modulus = false; encode_noise = false }

(* --- twin layout mechanics ------------------------------------------- *)

let test_twin_layout_geometry () =
  let plain = Layout.create ~kind:Layout.CHW ~slots:4096 ~channels:4 ~height:8 ~width:8 () in
  let twin = Layout.create ~kind:Layout.CHW ~slots:4096 ~channels:4 ~height:8 ~width:8 ~twin:true () in
  Alcotest.(check int) "col stride doubles" (2 * plain.Layout.col_stride) twin.Layout.col_stride;
  Alcotest.(check int) "row stride doubles" (2 * plain.Layout.row_stride) twin.Layout.row_stride;
  Alcotest.(check int) "ch stride doubles" (2 * plain.Layout.ch_stride) twin.Layout.ch_stride;
  Alcotest.(check int) "offset doubles" (2 * plain.Layout.offset) twin.Layout.offset;
  (* every physical position is even, so its twin (odd) never collides *)
  Layout.iter_positions twin (fun c h w ->
      Alcotest.(check int) "even slot" 0 (Layout.slot_of twin ~c ~h ~w mod 2))

let test_twin_pack_roundtrip () =
  let meta = Layout.create ~kind:Layout.CHW ~slots:4096 ~channels:3 ~height:6 ~width:5 ~twin:true () in
  let img = Chet_tensor.Dataset.image ~seed:11 ~channels:3 ~height:6 ~width:5 in
  let probe = Chet_tensor.Dataset.image ~seed:99 ~channels:3 ~height:6 ~width:5 in
  let vecs = Layout.pack ~probe meta img in
  let back = Layout.unpack meta vecs in
  let back_twin = Layout.unpack_twin meta vecs in
  Alcotest.(check bool) "primary survives" true (back.Tensor.data = img.Tensor.data);
  Alcotest.(check bool) "probe survives" true (back_twin.Tensor.data = probe.Tensor.data);
  (* a probe on a twin-less layout is a typed error, not silent truncation *)
  let plain = Layout.create ~kind:Layout.CHW ~slots:4096 ~channels:3 ~height:6 ~width:5 () in
  (match Layout.pack ~probe plain img with
  | _ -> Alcotest.fail "expected Invalid_op"
  | exception Herr.Fhe_error (Herr.Invalid_op _, _) -> ())

(* --- sentinel clean runs --------------------------------------------- *)

(* The sentinel must ride through every kernel unperturbed AND must not
   perturb the primary result: on the clear backend both lanes are exact,
   so both comparisons can be tight. *)
let run_sentinel_clean (spec : Models.spec) =
  let circuit = spec.Models.build () in
  let scales = Kernels.default_scales in
  let image = Models.input_for spec ~seed:3 in
  let isp = Integrity.spec_for circuit in
  let backend = clear_backend ~slots:8192 () in
  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  List.iter
    (fun policy ->
      (* plain run = ground truth for the primary lane *)
      let plain_out = E.eval scales circuit ~policy image in
      let seen_twin = ref None in
      let sentinel = Integrity.sentinel ~observe:(fun t -> seen_twin := Some t) isp in
      let out = E.eval ~sentinel scales circuit ~policy image in
      let max_diff =
        Array.fold_left Float.max 0.0
          (Array.mapi
             (fun i v -> Float.abs (v -. plain_out.Tensor.data.(i)))
             out.Tensor.data)
      in
      if max_diff > 1e-9 then
        Alcotest.failf "%s/%s: sentinel perturbed primary by %g" spec.Models.model_name
          (Layout.policy_name policy) max_diff;
      match !seen_twin with
      | None -> Alcotest.fail "sentinel verify never ran"
      | Some t ->
          let m = Integrity.margin_bits isp t in
          if m <= 0.0 then
            Alcotest.failf "%s/%s: clean sentinel margin %.2f <= 0" spec.Models.model_name
              (Layout.policy_name policy) m)
    Layout.all_policies

let test_sentinel_clean_micro () = run_sentinel_clean Models.micro

let test_sentinel_clean_zoo () =
  (* every bundled network, run through the real plan and kernels on the
     clear backend with the probe in *both* lanes: a layout overflow
     surfaces as a typed [Slot_overflow], and a kernel that mixed the lanes
     would fail one of the two verdicts *)
  let module H = (val clear_backend ~slots:32768 () : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  List.iter
    (fun (spec : Models.spec) ->
      let circuit = spec.Models.build () in
      let isp = Integrity.spec_for circuit in
      let out =
        E.eval ~sentinel:(Integrity.sentinel isp) Kernels.default_scales circuit
          ~policy:Layout.All_chw isp.Integrity.it_probe
      in
      (* the primary lane carried the probe too: it must meet the same bar *)
      Integrity.verify isp out;
      let margin = Integrity.margin_bits isp out in
      if margin <= 0.0 then
        Alcotest.failf "%s: clean validation margin %.2f <= 0" spec.Models.model_name margin)
    Models.all

(* --- sentinel on analysis + real backends ---------------------------- *)

let compile_sentinel ?(tolerance = Integrity.default_tolerance) () =
  let spec = Models.micro in
  let circuit = spec.Models.build () in
  let opts = { (Compiler.default_options ()) with Compiler.sentinel = true } in
  let compiled = Compiler.compile opts circuit in
  (spec, circuit, compiled, Integrity.spec_for ~tolerance circuit)

let test_sentinel_real_backend () =
  let spec, circuit, compiled, isp = compile_sentinel () in
  let backend = Compiler.instantiate compiled ~seed:7 ~with_secret:true () in
  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let image = Models.input_for spec ~seed:5 in
  let margin = ref Float.nan in
  let sentinel = Integrity.sentinel ~observe:(fun t -> margin := Integrity.margin_bits isp t) isp in
  let out = E.eval ~sentinel compiled.Compiler.opts.Compiler.scales circuit
      ~policy:compiled.Compiler.policy image
  in
  (* primary fidelity: same bar as the compiled-deployment tests *)
  let reference = Reference.eval circuit image in
  let diff =
    Array.fold_left Float.max 0.0
      (Array.mapi (fun i v -> Float.abs (v -. reference.Tensor.data.(i))) out.Tensor.data)
  in
  if diff > 0.05 then Alcotest.failf "primary fidelity under sentinel: diff %.4f" diff;
  if not (!margin > 0.0) then Alcotest.failf "real-backend sentinel margin %.2f" !margin

(* --- checked backend on a deep chain ---------------------------------
   Checked predicts no precision: a legal circuit of any depth runs, and
   precision is measured by the sentinel lane instead. *)

let test_checked_deep_square_chain () =
  (* 40 squarings, each rescaled, inside an 8000-bit modulus budget *)
  let scheme = Hisa.Pow2_modulus 8000 in
  let module H = (val Checked.wrap ~scheme (clear_backend ~slots:64 ()) : Hisa.S) in
  let scale = 1 lsl 20 in
  let c = ref (H.encrypt (H.encode (Array.make 64 1.0) ~scale)) in
  for _ = 1 to 40 do
    c := H.rescale (H.mul !c !c) scale
  done;
  ignore (H.decode (H.decrypt !c))

let suite =
  [
    ( "integrity",
      [
        Alcotest.test_case "twin layout geometry" `Quick test_twin_layout_geometry;
        Alcotest.test_case "twin pack roundtrip" `Quick test_twin_pack_roundtrip;
        Alcotest.test_case "sentinel clean: micro, all policies" `Quick test_sentinel_clean_micro;
        Alcotest.test_case "sentinel clean: zoo validation" `Slow test_sentinel_clean_zoo;
        Alcotest.test_case "sentinel on real backend" `Slow test_sentinel_real_backend;
        Alcotest.test_case "checked: 40-deep squaring runs" `Quick test_checked_deep_square_chain;
      ] );
  ]

(* Property tests over the runtime: random well-shaped circuits must produce
   the same outputs through their compiled plans (cleartext HISA backend,
   any layout policy) as through the reference engine. This is the strongest
   coverage we have of kernel/layout interactions — shapes, strides, padding
   and scale management are all exercised by construction. *)

module Hisa = Chet_hisa.Hisa
module Clear = Chet_hisa.Clear_backend
module Kernels = Chet_runtime.Kernels
module Layout = Chet_runtime.Layout
module Circuit = Chet_nn.Circuit
module Reference = Chet_nn.Reference
module T = Chet_tensor.Tensor
module Dataset = Chet_tensor.Dataset

(* Build a random circuit: input [c; s; s], then a random sequence of layer
   blocks, then optionally flatten+fc. Shapes are kept small so the whole
   suite stays fast. *)
let random_circuit seed =
  let st = Random.State.make [| seed; 77 |] in
  let b = Circuit.builder () in
  let c0 = 1 + Random.State.int st 3 in
  let s0 = [| 8; 10; 12 |].(Random.State.int st 3) in
  let x = ref (Circuit.input b ~name:"x" [| c0; s0; s0 |]) in
  let blocks = 1 + Random.State.int st 3 in
  for _ = 1 to blocks do
    let c, h, _ = ((!x).Circuit.shape.(0), (!x).Circuit.shape.(1), (!x).Circuit.shape.(2)) in
    match Random.State.int st 6 with
    | 0 ->
        (* conv, random kernel/padding/stride *)
        let k = [| 1; 3 |].(Random.State.int st 2) in
        let padding = if Random.State.bool st then T.Same else T.Valid in
        let stride = if padding = T.Same && h >= 4 && Random.State.bool st then 2 else 1 in
        let out_c = 1 + Random.State.int st 4 in
        if h > k then begin
          let weights = Dataset.glorot st [| out_c; c; k; k |] in
          x := Circuit.conv2d b !x ~weights ~bias:(Dataset.bias st out_c) ~stride ~padding ()
        end
    | 1 -> if h >= 4 && h mod 2 = 0 then x := Circuit.avg_pool b !x ~ksize:2 ~stride:2
    | 2 -> x := Circuit.poly_act b !x ~a:(0.05 +. Random.State.float st 0.1) ~b:1.0
    | 3 -> x := Circuit.square b !x
    | 4 ->
        let scale = Array.init c (fun _ -> 0.7 +. Random.State.float st 0.6) in
        let shift = Array.init c (fun _ -> Random.State.float st 0.2 -. 0.1) in
        x := Circuit.batch_norm b !x ~scale ~shift
    | _ ->
        (* branch: two convs then concat *)
        let out_c = 1 + Random.State.int st 2 in
        let w1 = Dataset.glorot st [| out_c; c; 3; 3 |] in
        let w2 = Dataset.glorot st [| out_c; c; 3; 3 |] in
        let a = Circuit.conv2d b !x ~weights:w1 ~stride:1 ~padding:T.Same () in
        let c2 = Circuit.conv2d b !x ~weights:w2 ~stride:1 ~padding:T.Same () in
        x := Circuit.concat b [ a; c2 ]
  done;
  let x =
    if Random.State.bool st then begin
      let flat = Circuit.flatten b !x in
      let out_d = 4 + Random.State.int st 8 in
      let weights = Dataset.glorot st [| out_d; T.numel_of_shape flat.Circuit.shape |] in
      Circuit.matmul b flat ~weights ~bias:(Dataset.bias st out_d) ()
    end
    else !x
  in
  Circuit.finish b ~name:(Printf.sprintf "random-%d" seed) ~output:x

let backend () =
  Clear.make
    {
      Clear.slots = 2048;
      scheme = Hisa.Rns_chain (Array.make 64 ((1 lsl 30) - 35));
      strict_modulus = false;
      encode_noise = false;
    }

let check_circuit_policy seed policy =
  let circuit = random_circuit seed in
  let shape = circuit.Circuit.input.Circuit.shape in
  let image = Dataset.image ~seed ~channels:shape.(0) ~height:shape.(1) ~width:shape.(2) in
  let expected = Reference.eval circuit image in
  let module H = (val backend () : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let got = E.eval Kernels.default_scales circuit ~policy image in
  let diff = T.max_abs_diff (T.flatten expected) (T.flatten got) in
  let bound = 2e-2 *. Float.max 1.0 (T.max_abs expected) in
  if diff > bound then
    QCheck2.Test.fail_reportf "circuit %d under %s: diff %.5f > %.5f" seed
      (Layout.policy_name policy) diff bound
  else true

let prop name policy =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:25 ~print:string_of_int
       QCheck2.Gen.(int_range 0 10000)
       (fun seed -> check_circuit_policy seed policy))

let test_random_assignments () =
  (* arbitrary per-node assignments (not just the four policies) must also be
     correct — conversions can appear anywhere *)
  let st = Random.State.make [| 4242 |] in
  for seed = 0 to 7 do
    let circuit = random_circuit seed in
    let kinds = Hashtbl.create 16 in
    List.iter
      (fun (node : Circuit.node) ->
        Hashtbl.replace kinds node.Circuit.id
          (if Random.State.bool st then Chet_runtime.Layout.HW else Chet_runtime.Layout.CHW))
      (Circuit.topo_order circuit);
    let kind_of (node : Circuit.node) = Hashtbl.find kinds node.Circuit.id in
    let shape = circuit.Circuit.input.Circuit.shape in
    let image = Dataset.image ~seed ~channels:shape.(0) ~height:shape.(1) ~width:shape.(2) in
    let expected = Reference.eval circuit image in
    let module H = (val backend () : Hisa.S) in
    let module PE = Chet_plan.Plan_exec.Make (H) in
    let plan = Chet_plan.Plan.build_assigned ~slots:H.slots ~kind_of circuit in
    let got = PE.run (PE.prepare Kernels.default_scales plan) image in
    let diff = T.max_abs_diff (T.flatten expected) (T.flatten got) in
    let bound = 2e-2 *. Float.max 1.0 (T.max_abs expected) in
    if diff > bound then
      Alcotest.failf "random assignment on circuit %d: diff %.5f > %.5f" seed diff bound
  done

(* --- the dense kernel's lattice fold ------------------------------------

   A dense layer over metas the kernel meets in practice: HW and CHW, twin,
   strided after a pool, non-power-of-two width and height, out_dim not a
   multiple of the lane count, and a meta whose padded box is not
   mixed-radix (the full-fold fallback). Each must match Reference, and the
   kernel's rotate-accumulate count must be what the interceptors see. *)

module Instrument = Chet_hisa.Instrument

let dense_case ~meta ~out_d seed =
  let st = Random.State.make [| seed; 91 |] in
  let c, h, w = (meta.Layout.channels, meta.Layout.height, meta.Layout.width) in
  let b = Circuit.builder () in
  let x = Circuit.flatten b (Circuit.input b ~name:"x" [| c; h; w |]) in
  let weights = Dataset.glorot st [| out_d; c * h * w |] in
  let bias = Dataset.bias st out_d in
  let fc = Circuit.matmul b x ~weights ~bias () in
  let circuit = Circuit.finish b ~name:"dense" ~output:fc in
  let image = Dataset.image ~seed ~channels:c ~height:h ~width:w in
  let expected = Reference.eval circuit image in
  let fma_rots = ref 0 and hoisted = ref 0 in
  let around op _ run =
    (match op with
    | Hisa.Fma_rot _ -> incr fma_rots
    | Hisa.Rot_many ks -> hoisted := !hoisted + Array.length ks
    | _ -> ());
    run ()
  in
  let counted, counters = Instrument.wrap (Hisa.intercept { Hisa.around } (backend ())) in
  let module H = (val counted : Hisa.S) in
  let module K = Kernels.Make (H) in
  let cfg = Kernels.default_scales in
  let op = K.matmul cfg ~meta ~budget:(ref 0) ~weights ~bias:(Some bias) in
  let input = K.encrypt_tensor cfg meta image in
  Instrument.reset counters;
  fma_rots := 0;
  let got = K.decrypt_tensor (op.K.sg_run input) in
  let what = Format.asprintf "%a -> %d" Layout.pp meta out_d in
  let diff = T.max_abs_diff (T.flatten expected) (T.flatten got) in
  let bound = 2e-2 *. Float.max 1.0 (T.max_abs expected) in
  if diff > bound then Alcotest.failf "%s: diff %.5f > %.5f" what diff bound;
  Alcotest.(check int) (what ^ ": sg_rot_acc = intercepted fma_rot") op.K.sg_rot_acc !fma_rots;
  Alcotest.(check int)
    (what ^ ": Instrument rotations = rot-acc + hoisted lane shifts")
    (op.K.sg_rot_acc + !hoisted)
    (Instrument.total_rotations counters);
  match Kernels.dense_fold meta ~out_dim:out_d with
  | None -> 0
  | Some d ->
      (* every lane but an unlifted lane 0 is one hoisted shift per input *)
      let shifts = d.Kernels.dn_lanes - if d.Kernels.dn_lift > 0 then 0 else 1 in
      Alcotest.(check int) (what ^ ": lane shifts") (Layout.num_cts meta * shifts) !hoisted;
      d.Kernels.dn_lanes

let test_dense_lattice () =
  let slots = 2048 in
  let create kind ?(margin = 2) ?twin c h w =
    Layout.create ~kind ~slots ~channels:c ~height:h ~width:w ~margin ?twin ()
  in
  (* a 2x2/2 pool's output meta: odd extent, doubled strides *)
  let pooled m =
    Layout.after_stride
      (Layout.with_spatial m ~height:(m.Layout.height - 1) ~width:(m.Layout.width - 1))
      2
  in
  let lattice =
    [
      (create Layout.HW 2 5 7, 5);
      (create Layout.CHW 3 6 3, 13);
      (create Layout.CHW ~twin:true 2 5 6, 7);
      (create Layout.HW ~twin:true 3 3 5, 4);
      (pooled (create Layout.CHW 2 9 9), 13);
      (pooled (create Layout.HW ~twin:true 2 7 11), 6);
      (pooled (pooled (create Layout.CHW 4 12 12)), 10);
      (Layout.vector_meta ~slots ~length:21 (), 3);
    ]
  in
  let packed_ragged = ref false in
  List.iteri
    (fun i (meta, out_d) ->
      Alcotest.(check bool) "lattice fold applies" true (Kernels.dense_fold meta ~out_dim:out_d <> None);
      let lanes = dense_case ~meta ~out_d i in
      if lanes > 1 && out_d mod lanes <> 0 then packed_ragged := true)
    lattice;
  Alcotest.(check bool) "some case packs a ragged last group" true !packed_ragged;
  (* plan-wide: the fused rotate-accumulates the prepared plan reports are
     the ones a LeNet-5-small inference performs *)
  let spec = Chet_nn.Models.lenet5_small in
  let circuit = spec.Chet_nn.Models.build () in
  let fma_rots = ref 0 in
  let around op _ run =
    (match op with Hisa.Fma_rot _ -> incr fma_rots | _ -> ());
    run ()
  in
  let module H = (val Hisa.intercept { Hisa.around } (backend ()) : Hisa.S) in
  let module PE = Chet_plan.Plan_exec.Make (H) in
  let plan = Chet_plan.Plan.build ~slots:H.slots ~policy:Layout.All_chw circuit in
  let prepared = PE.prepare Kernels.default_scales plan in
  ignore (PE.run prepared (Chet_nn.Models.input_for spec ~seed:1));
  Alcotest.(check int) "plan fused_rot_acc = intercepted fma_rot"
    plan.Chet_plan.Plan.p_stats.Chet_plan.Plan.fused_rot_acc !fma_rots;
  (* margin 0: the width axis pads to 8 > row stride 6, so the box is not
     mixed-radix and the kernel folds over every slot *)
  List.iteri
    (fun i twin ->
      let meta = create Layout.HW ~margin:0 ~twin 2 3 6 in
      Alcotest.(check bool) "fallback" true (Kernels.dense_fold meta ~out_dim:5 = None);
      ignore (dense_case ~meta ~out_d:5 (100 + i)))
    [ false; true ]

let suite =
  [
    ( "runtime:props",
      [
        Alcotest.test_case "dense lattice fold vs Reference" `Quick test_dense_lattice;
        prop "random circuits: HW" Layout.All_hw;
        prop "random circuits: CHW" Layout.All_chw;
        prop "random circuits: HW-conv CHW-rest" Layout.Hw_conv_chw_rest;
        Alcotest.test_case "random per-node assignments" `Slow test_random_assignments;
      ] );
  ]

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
    match Random.State.int st 5 with
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
    | _ ->
        let scale = Array.init c (fun _ -> 0.7 +. Random.State.float st 0.6) in
        let shift = Array.init c (fun _ -> Random.State.float st 0.2 -. 0.1) in
        x := Circuit.batch_norm b !x ~scale ~shift
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
   mixed-radix (the full-fold fallback). Each must match Reference, the
   kernel's rotate-accumulate count must be what the interceptors see, and
   its output meta must be {!Kernels.dense_out_meta}'s. *)

module Instrument = Chet_hisa.Instrument

let dense_case ?(last = false) ~meta ~out_d seed =
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
  let op = K.matmul cfg ~meta ~budget:(ref 0) ~weights ~bias:(Some bias) ~last in
  let input = K.encrypt_tensor cfg meta image in
  Instrument.reset counters;
  fma_rots := 0;
  let out = op.K.sg_run input in
  let got = K.decrypt_tensor out in
  let what = Format.asprintf "%a -> %d" Layout.pp meta out_d in
  if out.K.meta <> Kernels.dense_out_meta meta ~out_dim:out_d ~last then
    Alcotest.failf "%s: output meta %a, dense_out_meta %a" what Layout.pp out.K.meta Layout.pp
      (Kernels.dense_out_meta meta ~out_dim:out_d ~last);
  let diff = T.max_abs_diff (T.flatten expected) (T.flatten got) in
  let bound = 2e-2 *. Float.max 1.0 (T.max_abs expected) in
  if diff > bound then Alcotest.failf "%s: diff %.5f > %.5f" what diff bound;
  Alcotest.(check int) (what ^ ": sg_rot_acc = intercepted fma_rot") op.K.sg_rot_acc !fma_rots;
  Alcotest.(check int)
    (what ^ ": Instrument rotations = rot-acc + hoisted lane shifts")
    (op.K.sg_rot_acc + !hoisted)
    (Instrument.total_rotations counters);
  match Kernels.dense_fold meta ~out_dim:out_d ~last with
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
      (match Kernels.dense_fold meta ~out_dim:out_d ~last:false with
      | None -> Alcotest.fail "lattice fold applies"
      | Some d ->
          (* only a single-axis lattice (the vector) may fold once *)
          let single = List.length d.Kernels.dn_axes = 1 in
          if d.Kernels.dn_once && not single then Alcotest.fail "folds once on a multi-axis meta");
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
      Alcotest.(check bool) "fallback" true (Kernels.dense_fold meta ~out_dim:5 ~last:false = None);
      ignore (dense_case ~meta ~out_d:5 (100 + i)))
    [ false; true ]

(* --- folding once ------------------------------------------------------

   A dense layer over a vector (a single-axis lattice) folds once, after
   merging the outputs' partial products into disjoint boxes: contiguous
   and twin vectors, ragged output counts (not a power of two), inputs that
   must be lifted first and inputs already high enough. A strided vector,
   which is what a fold-once layer leaves for the next one, leaves room for
   lanes and folds per group. *)

let test_dense_fold_once () =
  let slots = 2048 in
  let vec ?twin ?stride ?(offset = 0) length =
    { (Layout.vector_meta ~slots ~length ?twin ?stride ()) with Layout.offset }
  in
  let once =
    [
      (vec 21, 3, true);
      (vec 32, 10, true);
      (vec ~twin:true 12, 5, true);
      (vec ~offset:300 21, 7, false);
      (vec ~twin:true ~offset:400 12, 6, false);
    ]
  in
  List.iteri
    (fun i (meta, out_d, lifted) ->
      let what = Format.asprintf "%a -> %d" Layout.pp meta out_d in
      (match Kernels.dense_fold meta ~out_dim:out_d ~last:false with
      | Some d ->
          if not d.Kernels.dn_once then Alcotest.failf "%s: does not fold once" what;
          Alcotest.(check bool) (what ^ ": lifted") lifted (d.Kernels.dn_lift > 0);
          (* outputs [dn_stride] apart, a power of two past the box *)
          let t = d.Kernels.dn_stride in
          Alcotest.(check bool) (what ^ ": power-of-two stride") true (t land (t - 1) = 0)
      | None -> Alcotest.failf "%s: no fold" what);
      ignore (dense_case ~meta ~out_d (200 + i)))
    once;
  List.iteri
    (fun i (meta, out_d) ->
      match Kernels.dense_fold meta ~out_dim:out_d ~last:false with
      | Some d when not d.Kernels.dn_once -> ignore (dense_case ~meta ~out_d (300 + i))
      | _ -> Alcotest.fail "a strided vector folds per group")
    [ (vec ~stride:32 ~offset:64 10, 2); (vec ~twin:true ~stride:64 ~offset:128 6, 5) ];
  (* a strided vector packs and unpacks, with zeros everywhere else *)
  List.iter
    (fun twin ->
      let meta = vec ~twin ~stride:32 ~offset:96 10 in
      let st = Random.State.make [| 7 |] in
      let values = Array.init 10 (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let t = T.of_array [| 10; 1; 1 |] values in
      let packed = Layout.pack meta t in
      Alcotest.(check int) "one ciphertext" 1 (Array.length packed);
      let nonzero = Array.fold_left (fun a v -> if v <> 0.0 then a + 1 else a) 0 packed.(0) in
      Alcotest.(check int) "only the outputs' slots" 10 nonzero;
      Alcotest.(check bool)
        "pack/unpack round trip" true
        (T.flatten (Layout.unpack meta packed) = T.flatten t))
    [ false; true ];
  (* the plan's static metas of dense layers fed by a vector and by a
     strided vector are the kernel's *)
  let b = Circuit.builder () in
  let st = Random.State.make [| 5 |] in
  let x = Circuit.flatten b (Circuit.input b ~name:"x" [| 2; 4; 4 |]) in
  let dense input out_d in_d =
    Circuit.matmul b input ~weights:(Dataset.glorot st [| out_d; in_d |])
      ~bias:(Dataset.bias st out_d) ()
  in
  let fc1 = dense x 24 32 in
  let fc2 = dense fc1 7 24 in
  let fc3 = dense fc2 5 7 in
  let circuit = Circuit.finish b ~name:"three-dense" ~output:fc3 in
  let image = Dataset.image ~seed:3 ~channels:2 ~height:4 ~width:4 in
  let expected = Reference.eval circuit image in
  List.iter
    (fun policy ->
      let module H = (val backend () : Hisa.S) in
      let module PE = Chet_plan.Plan_exec.Make (H) in
      let plan = Chet_plan.Plan.build ~slots:H.slots ~policy circuit in
      let metas = Hashtbl.create 8 in
      Array.iter
        (fun (step : Chet_plan.Plan.step) ->
          (match step.Chet_plan.Plan.st_node.Circuit.op with
          | Circuit.MatMul { input; weights; _ }
            when step.Chet_plan.Plan.st_op = Chet_plan.Plan.Op_node ->
              let src = Hashtbl.find metas input.Circuit.id in
              let out_dim = weights.T.shape.(0) in
              let last = step.Chet_plan.Plan.st_last in
              Alcotest.(check bool) "only fc3 is the last dense layer" (input == fc2) last;
              if step.Chet_plan.Plan.st_meta <> Kernels.dense_out_meta src ~out_dim ~last then
                Alcotest.fail "plan meta differs from dense_out_meta";
              if input == fc1 then
                Alcotest.(check bool) "fc2 folds once" true
                  (match Kernels.dense_fold src ~out_dim ~last with
                  | Some d -> d.Kernels.dn_once
                  | None -> false)
          | _ -> ());
          Hashtbl.replace metas step.Chet_plan.Plan.st_node.Circuit.id step.Chet_plan.Plan.st_meta)
        plan.Chet_plan.Plan.p_steps;
      let got = PE.run (PE.prepare Kernels.default_scales plan) image in
      let diff = T.max_abs_diff (T.flatten expected) (T.flatten got) in
      if diff > 2e-2 *. Float.max 1.0 (T.max_abs expected) then
        Alcotest.failf "three dense layers (%s): diff %.5f" (Layout.policy_name policy) diff)
    [ Layout.All_hw; Layout.All_chw ]

(* --- folding once over a lattice ----------------------------------------

   A dense layer no later dense layer reads ([last]) folds once over any
   mixed-radix lattice whose boxes fit: HW and CHW inputs, twin on and off,
   one and two input ciphertexts, the input lifted so the boxes stay above
   slot 0. Boxes that do not fit fall back to the per-group fold, as does
   every multi-axis input that a later dense layer reads. *)

let test_dense_fold_once_lattice () =
  let slots = 2048 in
  let create kind ?twin ?(margin = 1) c h w =
    Layout.create ~kind ~slots ~channels:c ~height:h ~width:w ~margin ?twin ()
  in
  let once =
    [
      (create Layout.HW 2 6 6, 4);
      (create Layout.HW ~twin:true 2 6 6, 4);
      (create Layout.CHW 3 4 4, 5);
      (create Layout.CHW ~twin:true 2 4 4, 6);
      (create Layout.HW ~twin:true 3 3 4, 3);
      (create Layout.HW ~margin:2 1 3 3, 64);
    ]
  in
  List.iteri
    (fun i (meta, out_d) ->
      let what = Format.asprintf "%a -> %d" Layout.pp meta out_d in
      (match Kernels.dense_fold meta ~out_dim:out_d ~last:true with
      | Some d ->
          if not d.Kernels.dn_once then Alcotest.failf "%s: does not fold once" what;
          Alcotest.(check bool) (what ^ ": multi-axis") true (List.length d.Kernels.dn_axes > 1);
          Alcotest.(check bool) (what ^ ": lifted") true (d.Kernels.dn_lift > 0)
      | None -> Alcotest.failf "%s: no fold" what);
      (match Kernels.dense_fold meta ~out_dim:out_d ~last:false with
      | Some d when not d.Kernels.dn_once -> ()
      | _ -> Alcotest.failf "%s: folds once although a dense layer reads it" what);
      ignore (dense_case ~last:true ~meta ~out_d (400 + i)))
    once;
  (* 65 boxes of 32 slots pass the last slot even below the anchor *)
  let meta = create Layout.HW ~margin:2 1 3 3 in
  (match Kernels.dense_fold meta ~out_dim:65 ~last:true with
  | Some d when not d.Kernels.dn_once -> ()
  | _ -> Alcotest.fail "65 boxes that do not fit fold per group");
  ignore (dense_case ~last:true ~meta ~out_d:65 450);
  (* through the plan: the first of two dense layers keeps the per-group
     fold over its lattice, the second folds once over the vector; a lone
     dense layer folds once over the lattice *)
  let st = Random.State.make [| 11 |] in
  let circuit ~outs =
    let b = Circuit.builder () in
    let x = Circuit.flatten b (Circuit.input b ~name:"x" [| 2; 4; 4 |]) in
    let out, _ =
      List.fold_left
        (fun (x, in_d) out_d ->
          ( Circuit.matmul b x ~weights:(Dataset.glorot st [| out_d; in_d |])
              ~bias:(Dataset.bias st out_d) (),
            out_d ))
        (x, 32) outs
    in
    Circuit.finish b ~name:"dense" ~output:out
  in
  let image = Dataset.image ~seed:4 ~channels:2 ~height:4 ~width:4 in
  List.iter
    (fun (circuit, once) ->
      let expected = Reference.eval circuit image in
      List.iter
        (fun (policy, twin) ->
          let module H = (val backend () : Hisa.S) in
          let module PE = Chet_plan.Plan_exec.Make (H) in
          let plan = Chet_plan.Plan.build ~twin ~slots:H.slots ~policy circuit in
          let metas = Hashtbl.create 8 in
          let folds = ref [] in
          Array.iter
            (fun (step : Chet_plan.Plan.step) ->
              (match step.Chet_plan.Plan.st_node.Circuit.op with
              | Circuit.MatMul { input; weights; _ } ->
                  let src = Hashtbl.find metas input.Circuit.id in
                  let last = step.Chet_plan.Plan.st_last in
                  (match Kernels.dense_fold src ~out_dim:weights.T.shape.(0) ~last with
                  | Some d -> folds := d.Kernels.dn_once :: !folds
                  | None -> Alcotest.fail "dense layer without a lattice fold")
              | _ -> ());
              Hashtbl.replace metas step.Chet_plan.Plan.st_node.Circuit.id
                step.Chet_plan.Plan.st_meta)
            plan.Chet_plan.Plan.p_steps;
          let what = Printf.sprintf "%s%s" (Layout.policy_name policy) (if twin then " twin" else "") in
          Alcotest.(check (list bool)) (what ^ ": which layers fold once") once (List.rev !folds);
          let got = PE.run (PE.prepare Kernels.default_scales plan) image in
          let diff = T.max_abs_diff (T.flatten expected) (T.flatten got) in
          if diff > 2e-2 *. Float.max 1.0 (T.max_abs expected) then
            Alcotest.failf "%s: diff %.5f" what diff)
        [ (Layout.All_hw, false); (Layout.All_hw, true); (Layout.All_chw, false); (Layout.All_chw, true) ])
    [ (circuit ~outs:[ 6; 3 ], [ false; true ]); (circuit ~outs:[ 5 ], [ true ]) ]

let suite =
  [
    ( "runtime:props",
      [
        Alcotest.test_case "dense lattice fold vs Reference" `Quick test_dense_lattice;
        Alcotest.test_case "dense fold-once on vector inputs vs Reference" `Quick
          test_dense_fold_once;
        Alcotest.test_case "last dense layer folds once over a lattice vs Reference" `Quick
          test_dense_fold_once_lattice;
        prop "random circuits: HW" Layout.All_hw;
        prop "random circuits: CHW" Layout.All_chw;
        prop "random circuits: HW-conv CHW-rest" Layout.Hw_conv_chw_rest;
        Alcotest.test_case "random per-node assignments" `Slow test_random_assignments;
      ] );
  ]

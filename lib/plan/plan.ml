(* Compiled execution plans (DESIGN.md §14).

   A [Plan.t] is how every circuit runs — in deployment and in the
   compiler's analyses alike: a topologically scheduled array of explicit
   steps over a fixed-size ciphertext arena, with

   - conversions materialised as their own steps (emitted on demand before
     the first consumer that needs the kind, then shared — layout conversion
     is pure, so converting once is value-identical to converting per use);
   - buffer lifetimes resolved at plan time: each step names the arena slot
     it writes and the slots that die after it, so the executor's live set
     is bounded by the arena high-water mark instead of the circuit size;
   - static layout metadata per step, recomputed (not trusted) when a plan
     is reloaded from its serialised frame;
   - optionally the interleaved twin (sentinel) geometry of DESIGN.md §16,
     so sentinel-verified inference runs the same plan machinery.

   The plan itself is backend-free; lib/plan/plan_exec.ml instantiates it
   against a HISA backend with prepare-once staged kernels. *)

module Circuit = Chet_nn.Circuit
module Tensor = Chet_tensor.Tensor
module Herr = Chet_hisa.Herr
module Layout = Chet_runtime.Layout
module Kernels = Chet_runtime.Kernels
module Serial = Chet_crypto.Serial

let err ~op e = Herr.raise_err ~backend:"plan" ~op e

type op =
  | Op_node  (** run the circuit node's own kernel *)
  | Op_convert of Layout.kind  (** layout-convert the node's raw value *)

type step = {
  st_id : int;  (** position in the schedule *)
  st_node : Circuit.node;  (** circuit node this step computes (or converts) *)
  st_op : op;
  st_kind : Layout.kind;  (** layout kind of the result *)
  st_srcs : int array;  (** arena slots read *)
  st_dst : int;  (** arena slot written *)
  st_release : int array;  (** slots dead after this step (never contains [st_dst]) *)
  st_meta : Layout.meta;  (** static layout of the result *)
}

type stats = {
  mutable fused_mul_rescale : int;
  mutable fused_rot_acc : int;
  mutable fused_mul_acc : int;
}

type t = {
  p_circuit : Circuit.t;
  p_policy : Layout.layout_policy option;  (** [None]: an arbitrary per-node assignment *)
  p_slots : int;
  p_margin : int;
  p_twin : bool;
  p_input_meta : Layout.meta;
  p_steps : step array;
  p_arena : int;  (** arena size = ciphertext-tensor high-water mark *)
  p_output : int;  (** arena slot holding the circuit output after the last step *)
  p_stats : stats;  (** fusion counts, filled in by [Plan_exec.prepare] *)
}

(* --- static meta inference ------------------------------------------- *)

let sources (node : Circuit.node) =
  match node.Circuit.op with
  | Circuit.Input _ -> []
  | Circuit.Conv2d { input; _ }
  | Circuit.MatMul { input; _ }
  | Circuit.AvgPool { input; _ }
  | Circuit.PolyAct { input; _ }
  | Circuit.BatchNorm { input; _ } ->
      [ input ]
  | Circuit.GlobalAvgPool n | Circuit.Square n | Circuit.Flatten n -> [ n ]
  | Circuit.Concat ns -> ns
  | Circuit.Residual (a, b) -> [ a; b ]

(* Output meta of a node given its (already layout-converted) source metas —
   must mirror the meta arithmetic of the corresponding kernels exactly. *)
let node_out_meta (node : Circuit.node) (src_metas : Layout.meta list) =
  match (node.Circuit.op, src_metas) with
  | Circuit.Conv2d { weights; stride; padding; _ }, [ m ] ->
      let cout = weights.Tensor.shape.(0) in
      let kh = weights.Tensor.shape.(2) and kw = weights.Tensor.shape.(3) in
      let _, _, out_spatial = Kernels.conv_geometry m ~kh ~kw ~stride ~padding in
      Layout.with_channels out_spatial cout
  | Circuit.MatMul { weights; _ }, [ m ] ->
      Kernels.dense_out_meta m ~out_dim:weights.Tensor.shape.(0)
  | Circuit.AvgPool { ksize; stride; _ }, [ m ] ->
      Layout.after_stride
        (Layout.with_spatial m ~height:(m.Layout.height - ksize + 1)
           ~width:(m.Layout.width - ksize + 1))
        stride
  | Circuit.GlobalAvgPool _, [ m ] -> Layout.with_spatial m ~height:1 ~width:1
  | (Circuit.PolyAct _ | Circuit.Square _ | Circuit.BatchNorm _ | Circuit.Flatten _), [ m ] -> m
  | Circuit.Concat _, (first :: _ as ms) ->
      Layout.with_channels first (List.fold_left (fun a m -> a + m.Layout.channels) 0 ms)
  | Circuit.Residual _, [ a; _ ] -> a
  | _ ->
      Herr.raise_err ~backend:"plan" ~op:"infer" ~node_id:node.Circuit.id
        ~layer:(Layout.op_name node)
        (Herr.Invalid_op { reason = "source arity mismatch in plan meta inference" })

let input_meta_of ~slots ~margin ~twin (circuit : Circuit.t) ~kind =
  let node = circuit.Circuit.input in
  match node.Circuit.shape with
  | [| c; h; w |] -> Layout.create ~kind ~slots ~channels:c ~height:h ~width:w ~margin ~twin ()
  | shape ->
      Herr.raise_err ~backend:"plan" ~op:"input_meta" ~node_id:node.Circuit.id
        ~layer:(Layout.op_name node)
        (Herr.Shape_mismatch
           {
             expected = "[c; h; w]";
             got = "[" ^ String.concat "; " (Array.to_list (Array.map string_of_int shape)) ^ "]";
           })

(* --- plan construction ------------------------------------------------ *)

(* Abstract step before slot assignment: [st_srcs] holds value ids (= step
   ids of the producing steps), rewritten to arena slots by the liveness
   pass below. *)

let schedule ?margin ?(twin = false) ~slots ~policy ~kind_of (circuit : Circuit.t) =
  let margin =
    match margin with Some m -> m | None -> Layout.required_margin circuit
  in
  let input_kind = kind_of circuit.Circuit.input in
  let in_meta = input_meta_of ~slots ~margin ~twin circuit ~kind:input_kind in
  (* 1. schedule: one step per node in topo order, conversion steps emitted
     on demand before their first consumer and shared by later ones *)
  let rev_steps = ref [] in
  let n_steps = ref 0 in
  let step_meta : (int, Layout.meta) Hashtbl.t = Hashtbl.create 64 in
  let raw : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let conv : (int * Layout.kind, int) Hashtbl.t = Hashtbl.create 16 in
  let emit node op kind srcs meta =
    let id = !n_steps in
    incr n_steps;
    rev_steps :=
      {
        st_id = id;
        st_node = node;
        st_op = op;
        st_kind = kind;
        st_srcs = Array.of_list srcs;
        st_dst = -1;
        st_release = [||];
        st_meta = meta;
      }
      :: !rev_steps;
    Hashtbl.replace step_meta id meta;
    id
  in
  let raw_id (node : Circuit.node) =
    match Hashtbl.find_opt raw node.Circuit.id with
    | Some id -> id
    | None ->
        Herr.raise_err ~backend:"plan" ~op:"build" ~node_id:node.Circuit.id
          ~layer:(Layout.op_name node)
          (Herr.Missing_node { node_id = node.Circuit.id })
  in
  let value (node : Circuit.node) ~want =
    let rid = raw_id node in
    let rmeta = Hashtbl.find step_meta rid in
    if rmeta.Layout.kind = want then rid
    else begin
      match Hashtbl.find_opt conv (node.Circuit.id, want) with
      | Some cid -> cid
      | None ->
          let cmeta = Layout.converted rmeta ~to_kind:want in
          let cid = emit node (Op_convert want) want [ rid ] cmeta in
          Hashtbl.replace conv ((node.Circuit.id, want)) cid;
          cid
    end
  in
  List.iter
    (fun (node : Circuit.node) ->
      let kind = kind_of node in
      let sid =
        match node.Circuit.op with
        | Circuit.Input _ ->
            (* the plan executor is handed an input encrypted at the plan's
               input layout, so this is a pass-through (guarded at run time
               against inputs encrypted at another layout) *)
            let m =
              if in_meta.Layout.kind = kind then in_meta
              else Layout.converted in_meta ~to_kind:kind
            in
            emit node Op_node kind [] m
        | Circuit.MatMul _ ->
            (* matmul reads any layout directly: weight plaintexts are
               placed by the input's own metadata, no conversion step *)
            let src = List.hd (sources node) in
            let rid = raw_id src in
            let m = node_out_meta node [ Hashtbl.find step_meta rid ] in
            emit node Op_node kind [ rid ] m
        | _ ->
            let sids = List.map (fun s -> value s ~want:kind) (sources node) in
            let m =
              node_out_meta node (List.map (Hashtbl.find step_meta) sids)
            in
            emit node Op_node kind sids m
      in
      Hashtbl.replace raw node.Circuit.id sid)
    (Circuit.topo_order circuit);
  let ordered = Array.of_list (List.rev !rev_steps) in
  let n = Array.length ordered in
  if n = 0 then err ~op:"build" (Herr.Invalid_op { reason = "empty circuit" });
  let output_vid = raw_id circuit.Circuit.output in
  (* 2. liveness: last step index reading each value *)
  let last_use = Array.make n (-1) in
  Array.iter
    (fun st -> Array.iter (fun v -> last_use.(v) <- st.st_id) st.st_srcs)
    ordered;
  (* 3. slot assignment with a free list. The destination is drawn from the
     slots free *before* the step and releases are applied after it, so a
     step never overwrites a slot it still reads and [st_dst] is never in
     [st_release]. Min-index-first keeps the assignment deterministic. *)
  let module IS = Set.Make (Int) in
  let free = ref IS.empty in
  let next_slot = ref 0 in
  let slot_of_vid = Array.make n (-1) in
  let steps =
    Array.map
      (fun st ->
        let dst =
          match IS.min_elt_opt !free with
          | Some s ->
              free := IS.remove s !free;
              s
          | None ->
              let s = !next_slot in
              incr next_slot;
              s
        in
        slot_of_vid.(st.st_id) <- dst;
        let releases =
          Array.to_list st.st_srcs
          |> List.sort_uniq compare
          |> List.filter (fun v -> last_use.(v) = st.st_id && v <> output_vid)
          |> List.map (fun v -> slot_of_vid.(v))
        in
        List.iter (fun s -> free := IS.add s !free) releases;
        {
          st with
          st_srcs = Array.map (fun v -> slot_of_vid.(v)) st.st_srcs;
          st_dst = dst;
          st_release = Array.of_list releases;
        })
      ordered
  in
  {
    p_circuit = circuit;
    p_policy = policy;
    p_slots = slots;
    p_margin = margin;
    p_twin = twin;
    p_input_meta = in_meta;
    p_steps = steps;
    p_arena = !next_slot;
    p_output = slot_of_vid.(output_vid);
    p_stats = { fused_mul_rescale = 0; fused_rot_acc = 0; fused_mul_acc = 0 };
  }

let build ?margin ?twin ~slots ~policy circuit =
  schedule ?margin ?twin ~slots ~policy:(Some policy) ~kind_of:(Layout.assign policy circuit)
    circuit

let build_assigned ?margin ?twin ~slots ~kind_of circuit =
  schedule ?margin ?twin ~slots ~policy:None ~kind_of circuit

(* --- validation -------------------------------------------------------- *)

(* Replay the schedule against a liveness bitmap: every read hits a live
   slot, no step releases its own destination, the output survives. This is
   both the arena invariant the tests assert and the schema check applied to
   deserialised plans before any ciphertext touches them. *)
let validate (t : t) =
  let problem = ref None in
  let fail r = if !problem = None then problem := Some r in
  if Array.length t.p_steps = 0 then fail "empty plan";
  if t.p_arena < 1 then fail "empty arena";
  if t.p_output < 0 || t.p_output >= t.p_arena then fail "output slot out of range";
  let live = Array.make (Stdlib.max 1 t.p_arena) false in
  Array.iteri
    (fun i st ->
      if !problem = None then begin
        if st.st_id <> i then fail (Printf.sprintf "step %d has id %d" i st.st_id);
        let check_slot what s =
          if s < 0 || s >= t.p_arena then
            fail (Printf.sprintf "step %d: %s slot %d out of range [0,%d)" i what s t.p_arena)
        in
        check_slot "destination" st.st_dst;
        Array.iter (check_slot "source") st.st_srcs;
        Array.iter (check_slot "release") st.st_release;
        if !problem = None then begin
          Array.iter
            (fun s -> if not live.(s) then fail (Printf.sprintf "step %d reads dead slot %d" i s))
            st.st_srcs;
          if live.(st.st_dst) then
            fail (Printf.sprintf "step %d overwrites live slot %d" i st.st_dst);
          live.(st.st_dst) <- true;
          Array.iter
            (fun s ->
              if s = st.st_dst then fail (Printf.sprintf "step %d releases its own destination" i);
              if not live.(s) then fail (Printf.sprintf "step %d releases dead slot %d" i s);
              live.(s) <- false)
            st.st_release
        end
      end)
    t.p_steps;
  if !problem = None && not live.(t.p_output) then fail "output slot dead after the last step";
  match !problem with None -> Ok () | Some r -> Error r

let summary (t : t) =
  let conversions =
    Array.fold_left
      (fun acc st -> match st.st_op with Op_convert _ -> acc + 1 | Op_node -> acc)
      0 t.p_steps
  in
  Printf.sprintf
    "%d steps (%d conversions), arena %d slots, fused: %d mul+rescale, %d rot-acc, %d mul-acc"
    (Array.length t.p_steps) conversions t.p_arena t.p_stats.fused_mul_rescale
    t.p_stats.fused_rot_acc t.p_stats.fused_mul_acc

(* --- serialisation: the checksummed PLAN frame ------------------------- *)

(* v2 added the twin flag after the policy tag; a v1 frame (written before
   plans could carry the sentinel lane) loads as [twin = false]. A policy
   tag of -1 marks an arbitrary per-node assignment. *)
let plan_version = 2

let policy_tag = function
  | Layout.All_hw -> 0
  | Layout.All_chw -> 1
  | Layout.Hw_conv_chw_rest -> 2
  | Layout.Chw_fc_hw_before -> 3

let policy_of_tag = function
  | 0 -> Layout.All_hw
  | 1 -> Layout.All_chw
  | 2 -> Layout.Hw_conv_chw_rest
  | 3 -> Layout.Chw_fc_hw_before
  | n -> raise (Serial.Corrupt (Printf.sprintf "unknown layout policy %d" n))

let kind_tag = function Layout.HW -> 0 | Layout.CHW -> 1

let kind_of_tag = function
  | 0 -> Layout.HW
  | 1 -> Layout.CHW
  | n -> raise (Serial.Corrupt (Printf.sprintf "PLAN: unknown layout kind %d" n))

let op_tag = function Op_node -> 0 | Op_convert k -> 1 + kind_tag k

let op_of_tag = function
  | 0 -> Op_node
  | 1 -> Op_convert Layout.HW
  | 2 -> Op_convert Layout.CHW
  | n -> raise (Serial.Corrupt (Printf.sprintf "PLAN: unknown step op %d" n))

let write w (t : t) =
  Serial.write_frame w "PLAN" (fun w ->
      Serial.write_int w plan_version;
      Serial.write_string w t.p_circuit.Circuit.name;
      Serial.write_int w (match t.p_policy with Some p -> policy_tag p | None -> -1);
      Serial.write_int w (if t.p_twin then 1 else 0);
      Serial.write_int w t.p_slots;
      Serial.write_int w t.p_margin;
      Serial.write_int w t.p_arena;
      Serial.write_int w t.p_output;
      Serial.write_int w t.p_stats.fused_mul_rescale;
      Serial.write_int w t.p_stats.fused_rot_acc;
      Serial.write_int w t.p_stats.fused_mul_acc;
      Serial.write_int w (Array.length t.p_steps);
      Array.iter
        (fun st ->
          Serial.write_int w st.st_node.Circuit.id;
          Serial.write_int w (op_tag st.st_op);
          Serial.write_int w (kind_tag st.st_kind);
          Serial.write_int w st.st_dst;
          Serial.write_int_array w st.st_srcs;
          Serial.write_int_array w st.st_release)
        t.p_steps)

(* Deserialise against a circuit the caller already has (plans never carry
   weights — the Bundle's own metadata identifies the model). The layout
   metadata is *recomputed* from the schedule, not read from the wire, and
   the result is replay-validated, so a truncated or bit-flipped frame that
   somehow survives the checksum still cannot direct a read at a released
   slot. *)
let read r ~(circuit : Circuit.t) =
  Serial.read_frame r "PLAN" (fun r ->
      let version = Serial.read_int r in
      if version < 1 || version > plan_version then
        raise
          (Serial.Corrupt (Printf.sprintf "PLAN: version %d, expected 1..%d" version plan_version));
      let name = Serial.read_string r in
      if name <> circuit.Circuit.name then
        raise
          (Serial.Corrupt
             (Printf.sprintf "PLAN: compiled for circuit %S, loading against %S" name
                circuit.Circuit.name));
      let policy =
        match Serial.read_int r with
        | -1 when version >= 2 -> None
        | tag -> (
            try Some (policy_of_tag tag)
            with Serial.Corrupt reason -> raise (Serial.Corrupt ("PLAN: " ^ reason)))
      in
      let twin =
        if version < 2 then false
        else
          match Serial.read_int r with
          | 0 -> false
          | 1 -> true
          | k -> raise (Serial.Corrupt (Printf.sprintf "PLAN: bad twin flag %d" k))
      in
      let slots = Serial.read_int r in
      let margin = Serial.read_int r in
      let arena = Serial.read_int r in
      let output = Serial.read_int r in
      let fused_mul_rescale = Serial.read_int r in
      let fused_rot_acc = Serial.read_int r in
      let fused_mul_acc = Serial.read_int r in
      let n = Serial.read_int r in
      if n < 0 || n > 1_000_000 then
        raise (Serial.Corrupt (Printf.sprintf "PLAN: implausible step count %d" n));
      if arena < 1 || arena > n then
        raise (Serial.Corrupt (Printf.sprintf "PLAN: implausible arena size %d" arena));
      let nodes : (int, Circuit.node) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (nd : Circuit.node) -> Hashtbl.replace nodes nd.Circuit.id nd)
        (Circuit.topo_order circuit);
      let node_of id =
        match Hashtbl.find_opt nodes id with
        | Some nd -> nd
        | None -> raise (Serial.Corrupt (Printf.sprintf "PLAN: unknown circuit node %d" id))
      in
      let raw_steps =
        Array.init n (fun i ->
            let node = node_of (Serial.read_int r) in
            let op = op_of_tag (Serial.read_int r) in
            let kind = kind_of_tag (Serial.read_int r) in
            let dst = Serial.read_int r in
            let srcs = Serial.read_int_array r in
            let release = Serial.read_int_array r in
            (i, node, op, kind, dst, srcs, release))
      in
      (* recompute metas in schedule order; any structural damage surfaces
         as Corrupt here rather than as a malformed plan downstream. The
         input layout takes the kind of the schedule's own input step. *)
      let input_kind =
        match
          Array.find_opt
            (fun (_, node, op, _, _, _, _) ->
              op = Op_node && node.Circuit.id = circuit.Circuit.input.Circuit.id)
            raw_steps
        with
        | Some (_, _, _, kind, _, _, _) -> kind
        | None -> raise (Serial.Corrupt "PLAN: schedule never computes the circuit input")
      in
      let in_meta =
        try input_meta_of ~slots ~margin ~twin circuit ~kind:input_kind
        with Herr.Fhe_error _ -> raise (Serial.Corrupt "PLAN: input layout does not fit the frame's slot count")
      in
      let slot_meta : Layout.meta option array = Array.make arena None in
      let meta_at what i s =
        match if s >= 0 && s < arena then slot_meta.(s) else None with
        | Some m -> m
        | None ->
            raise (Serial.Corrupt (Printf.sprintf "PLAN: step %d %s reads slot %d with no value" i what s))
      in
      let steps =
        Array.map
          (fun (i, node, op, kind, dst, srcs, release) ->
            let meta =
              try
                match op with
                | Op_convert k ->
                    if Array.length srcs <> 1 then
                      raise (Serial.Corrupt (Printf.sprintf "PLAN: step %d convert arity" i));
                    Layout.converted (meta_at "convert" i srcs.(0)) ~to_kind:k
                | Op_node -> begin
                    match node.Circuit.op with
                    | Circuit.Input _ ->
                        if in_meta.Layout.kind = kind then in_meta
                        else Layout.converted in_meta ~to_kind:kind
                    | _ ->
                        node_out_meta node
                          (Array.to_list (Array.mapi (fun j s -> meta_at (Printf.sprintf "source %d" j) i s) srcs))
                  end
              with Herr.Fhe_error _ ->
                raise (Serial.Corrupt (Printf.sprintf "PLAN: step %d meta inference failed" i))
            in
            if dst >= 0 && dst < arena then slot_meta.(dst) <- Some meta;
            {
              st_id = i;
              st_node = node;
              st_op = op;
              st_kind = kind;
              st_srcs = srcs;
              st_dst = dst;
              st_release = release;
              st_meta = meta;
            })
          raw_steps
      in
      let t =
        {
          p_circuit = circuit;
          p_policy = policy;
          p_slots = slots;
          p_margin = margin;
          p_twin = twin;
          p_input_meta = in_meta;
          p_steps = steps;
          p_arena = arena;
          p_output = output;
          p_stats = { fused_mul_rescale; fused_rot_acc; fused_mul_acc };
        }
      in
      match validate t with
      | Ok () -> t
      | Error reason -> raise (Serial.Corrupt ("PLAN: " ^ reason)))

let to_string (t : t) =
  let w = Serial.writer () in
  write w t;
  Serial.contents w

let of_string ~circuit s = read (Serial.reader s) ~circuit

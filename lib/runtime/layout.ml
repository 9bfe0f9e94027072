module Tensor = Chet_tensor.Tensor
module Circuit = Chet_nn.Circuit
module Herr = Chet_hisa.Herr

let err ~op e = Herr.raise_err ~backend:"layout" ~op e

type kind = HW | CHW

type meta = {
  kind : kind;
  channels : int;
  height : int;
  width : int;
  offset : int;
  col_stride : int;
  row_stride : int;
  ch_stride : int;
  ch_per_ct : int;
  slots : int;
  twin : bool;
}

let floor_pow2 n =
  let rec loop p = if p * 2 <= n then loop (p * 2) else p in
  if n < 1 then 0 else loop 1

(* extent of one channel block, inclusive of the trailing margin *)
let channel_extent ~height ~width ~margin ~row_stride =
  ((height + (2 * margin)) * row_stride) + (2 * margin) + width

(* Twin (sentinel) layouts interleave: logical position [s] of the plain
   layout lives at physical slot [2s], and slot [2s+1] carries the sentinel
   copy of the same position. Every stride and offset is doubled, so every
   rotation amount any kernel derives from this meta is even — and rotation
   by an even amount preserves slot parity even across wrap-around, which is
   what guarantees the primary (even) and sentinel (odd) computations can
   never read each other's slots. *)
let spread_of twin = if twin then 2 else 1

let create ~kind ~slots ~channels ~height ~width ?(margin = 2) ?(twin = false) () =
  let spread = spread_of twin in
  let base_row = width + (2 * margin) in
  let base_ch = channel_extent ~height ~width ~margin ~row_stride:base_row in
  let row_stride = spread * base_row in
  let ch_stride = spread * base_ch in
  let offset = spread * ((margin * base_row) + margin) in
  if ch_stride > slots then err ~op:"create" (Herr.Slot_overflow { slots; requested = ch_stride });
  let rec ceil_pow2 p n = if p >= n then p else ceil_pow2 (p * 2) n in
  let ch_per_ct =
    match kind with
    | HW -> 1
    | CHW -> Stdlib.min (floor_pow2 (slots / ch_stride)) (ceil_pow2 1 channels)
  in
  {
    kind;
    channels;
    height;
    width;
    offset;
    col_stride = spread;
    row_stride;
    ch_stride;
    ch_per_ct;
    slots;
    twin;
  }

let vector_meta ~slots ~length ?(twin = false) ?stride () =
  let spread = spread_of twin in
  let stride = Option.value stride ~default:spread in
  if length * stride > slots then
    err ~op:"vector_meta" (Herr.Slot_overflow { slots; requested = length * stride });
  {
    kind = CHW;
    channels = length;
    height = 1;
    width = 1;
    offset = 0;
    col_stride = spread;
    row_stride = spread;
    ch_stride = stride;
    ch_per_ct =
      Stdlib.max 1 (Stdlib.min (slots / stride) (floor_pow2 (Stdlib.max 1 length) * 2));
    slots;
    twin;
  }

let num_cts meta = (meta.channels + meta.ch_per_ct - 1) / meta.ch_per_ct
let ct_index meta c = c / meta.ch_per_ct

let slot_of meta ~c ~h ~w =
  meta.offset + ((c mod meta.ch_per_ct) * meta.ch_stride) + (h * meta.row_stride)
  + (w * meta.col_stride)

let flat_index meta ~c ~h ~w = (((c * meta.height) + h) * meta.width) + w

let iter_positions meta f =
  for c = 0 to meta.channels - 1 do
    for h = 0 to meta.height - 1 do
      for w = 0 to meta.width - 1 do
        f c h w
      done
    done
  done

let check_shape ~op meta t =
  if
    t.Tensor.shape <> [| meta.channels; meta.height; meta.width |]
    && t.Tensor.shape <> [| meta.channels * meta.height * meta.width |]
  then
    err ~op
      (Herr.Shape_mismatch
         {
           expected = Printf.sprintf "[%d; %d; %d]" meta.channels meta.height meta.width;
           got =
             "[" ^ String.concat "; " (Array.to_list (Array.map string_of_int t.Tensor.shape)) ^ "]";
         })

let pack ?probe meta t =
  check_shape ~op:"pack" meta t;
  (match probe with
  | Some p ->
      if not meta.twin then
        err ~op:"pack" (Herr.Invalid_op { reason = "sentinel probe on a layout without twin slots" });
      check_shape ~op:"pack" meta p
  | None -> ());
  let out = Array.init (num_cts meta) (fun _ -> Array.make meta.slots 0.0) in
  iter_positions meta (fun c h w ->
      let v = t.Tensor.data.(flat_index meta ~c ~h ~w) in
      out.(ct_index meta c).(slot_of meta ~c ~h ~w) <- v;
      match probe with
      | Some p ->
          out.(ct_index meta c).(slot_of meta ~c ~h ~w + 1) <-
            p.Tensor.data.(flat_index meta ~c ~h ~w)
      | None -> ());
  out

let unpack meta vecs =
  let t = Tensor.create [| meta.channels; meta.height; meta.width |] in
  iter_positions meta (fun c h w ->
      t.Tensor.data.(flat_index meta ~c ~h ~w) <- vecs.(ct_index meta c).(slot_of meta ~c ~h ~w));
  t

(* The sentinel side of {!unpack}: the tensor the odd (twin) slots carry. *)
let unpack_twin meta vecs =
  if not meta.twin then
    err ~op:"unpack_twin" (Herr.Invalid_op { reason = "layout has no twin slots" });
  let t = Tensor.create [| meta.channels; meta.height; meta.width |] in
  iter_positions meta (fun c h w ->
      t.Tensor.data.(flat_index meta ~c ~h ~w) <-
        vecs.(ct_index meta c).(slot_of meta ~c ~h ~w + 1));
  t

let plains meta f =
  let out = Array.init (num_cts meta) (fun _ -> Array.make meta.slots 0.0) in
  iter_positions meta (fun c h w ->
      let v = f c h w in
      out.(ct_index meta c).(slot_of meta ~c ~h ~w) <- v;
      if meta.twin then out.(ct_index meta c).(slot_of meta ~c ~h ~w + 1) <- v);
  out

let plain_ct meta j f =
  let out = Array.make meta.slots 0.0 in
  let c_lo = j * meta.ch_per_ct in
  let c_hi = Stdlib.min meta.channels (c_lo + meta.ch_per_ct) - 1 in
  for c = c_lo to c_hi do
    for h = 0 to meta.height - 1 do
      for w = 0 to meta.width - 1 do
        let v = f c h w in
        out.(slot_of meta ~c ~h ~w) <- v;
        if meta.twin then out.(slot_of meta ~c ~h ~w + 1) <- v
      done
    done
  done;
  out

let with_spatial meta ~height ~width =
  if height > meta.height || width > meta.width then
    err ~op:"with_spatial"
      (Herr.Invalid_op
         {
           reason =
             Printf.sprintf "can only shrink the spatial extent: %dx%d -> %dx%d" meta.height
               meta.width height width;
         });
  { meta with height; width }

let after_stride meta s =
  if s < 1 then
    err ~op:"after_stride"
      (Herr.Invalid_op { reason = Printf.sprintf "stride must be >= 1, got %d" s });
  {
    meta with
    height = ((meta.height - 1) / s) + 1;
    width = ((meta.width - 1) / s) + 1;
    col_stride = meta.col_stride * s;
    row_stride = meta.row_stride * s;
  }

let with_channels meta channels =
  (* keep block geometry; recompute packing density for the new channel
     count, never exceeding the existing block capacity *)
  let ch_per_ct =
    if meta.kind = HW then 1
    else begin
      let cap = Stdlib.max 1 (floor_pow2 (meta.slots / Stdlib.max 1 meta.ch_stride)) in
      let rec ceil_pow2 p = if p >= channels then p else ceil_pow2 (p * 2) in
      Stdlib.min cap (ceil_pow2 1)
    end
  in
  { meta with channels; ch_per_ct }

(* Meta of a layout-converted tensor — must mirror Kernels.convert's meta
   arithmetic exactly (the plan's static meta inference relies on it). *)
let converted meta ~to_kind =
  if meta.kind = to_kind then meta
  else begin
    match to_kind with
    | CHW -> with_channels { meta with kind = CHW } meta.channels
    | HW -> with_channels { meta with kind = HW; ch_per_ct = 1 } meta.channels
  end

let max_extent meta =
  meta.offset
  + ((meta.ch_per_ct - 1) * meta.ch_stride)
  + ((meta.height - 1) * meta.row_stride)
  + ((meta.width - 1) * meta.col_stride)

let max_rotation_safe meta d =
  let d = abs d in
  let occupied = max_extent meta + if meta.twin then 1 else 0 in
  meta.offset - d >= 0 && occupied + d < meta.slots

let pp fmt meta =
  Format.fprintf fmt "%s[%dx%dx%d] cpc=%d strides=(%d,%d) ch=%d off=%d slots=%d%s"
    (match meta.kind with HW -> "HW" | CHW -> "CHW")
    meta.channels meta.height meta.width meta.ch_per_ct meta.col_stride meta.row_stride
    meta.ch_stride meta.offset meta.slots
    (if meta.twin then " twin" else "")

(* ---- Layout policies (§5.3) -------------------------------------------- *)

(* Human description of a node for error context ("which layer broke"). *)
let op_name (node : Circuit.node) =
  match node.Circuit.op with
  | Circuit.Input { name; _ } -> Printf.sprintf "input %S" name
  | Circuit.Conv2d { weights; stride; _ } ->
      Printf.sprintf "conv2d %dx%d/%d" weights.Tensor.shape.(2) weights.Tensor.shape.(3) stride
  | Circuit.MatMul { weights; _ } -> Printf.sprintf "matmul ->%d" weights.Tensor.shape.(0)
  | Circuit.AvgPool { ksize; stride; _ } -> Printf.sprintf "avg_pool %dx%d/%d" ksize ksize stride
  | Circuit.GlobalAvgPool _ -> "global_avg_pool"
  | Circuit.PolyAct _ -> "poly_act"
  | Circuit.Square _ -> "square"
  | Circuit.BatchNorm _ -> "batch_norm"
  | Circuit.Flatten _ -> "flatten"

(* The four pruned layout policies of §5.3. *)
type layout_policy =
  | All_hw
  | All_chw
  | Hw_conv_chw_rest
  | Chw_fc_hw_before

let policy_name = function
  | All_hw -> "HW"
  | All_chw -> "CHW"
  | Hw_conv_chw_rest -> "HW-conv, CHW-rest"
  | Chw_fc_hw_before -> "CHW-fc, HW-before"

let all_policies = [ All_hw; All_chw; Hw_conv_chw_rest; Chw_fc_hw_before ]

(* Assign a layout kind to every node's output under a policy. *)
let assign policy circuit =
  let assignment = Hashtbl.create 64 in
  let seen_fc = ref false in
  List.iter
    (fun (node : Circuit.node) ->
      let kind =
        match policy with
        | All_hw -> HW
        | All_chw -> CHW
        | Hw_conv_chw_rest -> begin
            match node.Circuit.op with
            | Circuit.Conv2d _ -> HW
            | _ -> CHW
          end
        | Chw_fc_hw_before ->
            if !seen_fc then CHW else HW
      in
      (match node.Circuit.op with Circuit.MatMul _ -> seen_fc := true | _ -> ());
      Hashtbl.replace assignment node.Circuit.id kind)
    (Circuit.topo_order circuit);
  fun (node : Circuit.node) ->
    match Hashtbl.find_opt assignment node.Circuit.id with
    | Some kind -> kind
    | None ->
        (* the node is not part of the circuit this assignment was built
           for — a diagnosable wiring bug, not a bare [Not_found] *)
        Herr.raise_err ~backend:"executor" ~op:"assign" ~node_id:node.Circuit.id
          ~layer:(op_name node)
          (Herr.Missing_node { node_id = node.Circuit.id })

(* Margin needed by the circuit's Same convolutions (border head-room), in
   *input-image pixels*: a Same convolution applied after striding ops needs
   its radius multiplied by the accumulated stride, because the layout's
   physical strides have been dilated by then. *)
let required_margin circuit =
  let cum = Hashtbl.create 64 in
  let cum_of (n : Circuit.node) = try Hashtbl.find cum n.Circuit.id with Not_found -> 1 in
  List.fold_left
    (fun acc (node : Circuit.node) ->
      let in_cum =
        match Circuit.(node.op) with
        | Circuit.Input _ -> 1
        | Circuit.Conv2d { input; _ } | Circuit.MatMul { input; _ } | Circuit.AvgPool { input; _ }
        | Circuit.PolyAct { input; _ } | Circuit.BatchNorm { input; _ } ->
            cum_of input
        | Circuit.GlobalAvgPool n | Circuit.Square n | Circuit.Flatten n -> cum_of n
      in
      let out_cum, need =
        match node.Circuit.op with
        | Circuit.Conv2d { weights; stride; padding; _ } ->
            let radius =
              match padding with
              | Tensor.Same -> weights.Tensor.shape.(2) / 2
              | Tensor.Valid -> 0
            in
            (in_cum * stride, radius * in_cum)
        | Circuit.AvgPool { stride; _ } -> (in_cum * stride, 0)
        | _ -> (in_cum, 0)
      in
      Hashtbl.replace cum node.Circuit.id out_cum;
      Stdlib.max acc need)
    1 (Circuit.topo_order circuit)

(* Layout policies: which physical layout kind every circuit node's output
   takes (§5.3), plus the circuit facts layout construction needs. Plans
   (lib/plan) are scheduled from an assignment computed here and executed
   by lib/plan/plan_exec.ml — the single executor, which the compiler's
   analyses also run (§5.1). *)

module Herr = Chet_hisa.Herr
module Circuit = Chet_nn.Circuit
module Tensor = Chet_tensor.Tensor

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
  | Circuit.Concat _ -> "concat"
  | Circuit.Residual _ -> "residual"

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
        | All_hw -> Layout.HW
        | All_chw -> Layout.CHW
        | Hw_conv_chw_rest -> begin
            match node.Circuit.op with
            | Circuit.Conv2d _ -> Layout.HW
            | _ -> Layout.CHW
          end
        | Chw_fc_hw_before ->
            if !seen_fc then Layout.CHW else Layout.HW
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
        | Circuit.Concat ns -> List.fold_left (fun a n -> Stdlib.max a (cum_of n)) 1 ns
        | Circuit.Residual (x, y) -> Stdlib.max (cum_of x) (cum_of y)
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

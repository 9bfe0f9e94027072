module Tensor = Chet_tensor.Tensor

type t = { multiplies : int; additions : int; total : int }

let zero = { multiplies = 0; additions = 0; total = 0 }

let make m a = { multiplies = m; additions = a; total = m + a }

let count_node (node : Circuit.node) =
  let out_elems = Tensor.numel_of_shape node.Circuit.shape in
  match node.Circuit.op with
  | Circuit.Input _ | Circuit.Flatten _ -> zero
  | Circuit.Conv2d { input; weights; bias; _ } ->
      ignore input;
      let cin = weights.Tensor.shape.(1) in
      let kh = weights.Tensor.shape.(2) and kw = weights.Tensor.shape.(3) in
      let macs = out_elems * cin * kh * kw in
      let bias_adds = match bias with Some _ -> out_elems | None -> 0 in
      make macs (macs + bias_adds)
  | Circuit.MatMul { weights; bias; _ } ->
      let in_dim = weights.Tensor.shape.(1) in
      let macs = out_elems * in_dim in
      let bias_adds = match bias with Some _ -> out_elems | None -> 0 in
      make macs (macs + bias_adds)
  | Circuit.AvgPool { ksize; _ } -> make out_elems (out_elems * ksize * ksize)
  | Circuit.GlobalAvgPool n ->
      let h = n.Circuit.shape.(1) and w = n.Circuit.shape.(2) in
      make out_elems (out_elems * h * w)
  | Circuit.PolyAct _ -> make (3 * out_elems) out_elems (* x·x, a·x², b·x, + *)
  | Circuit.Square _ -> make out_elems 0
  | Circuit.BatchNorm _ -> make out_elems out_elems

let count circuit =
  List.fold_left
    (fun acc node ->
      let c = count_node node in
      {
        multiplies = acc.multiplies + c.multiplies;
        additions = acc.additions + c.additions;
        total = acc.total + c.total;
      })
    zero (Circuit.topo_order circuit)

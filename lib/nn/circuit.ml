module Tensor = Chet_tensor.Tensor

type node = { id : int; op : op; shape : int array }

and op =
  | Input of { name : string; encrypted : bool }
  | Conv2d of {
      input : node;
      weights : Tensor.t;
      bias : float array option;
      stride : int;
      padding : Tensor.padding;
    }
  | MatMul of { input : node; weights : Tensor.t; bias : float array option }
  | AvgPool of { input : node; ksize : int; stride : int }
  | GlobalAvgPool of node
  | PolyAct of { input : node; a : float; b : float }
  | Square of node
  | BatchNorm of { input : node; scale : float array; shift : float array }
  | Flatten of node

type t = { name : string; input : node; output : node; node_count : int }
type builder = { mutable next_id : int; mutable input_node : node option }

let builder () = { next_id = 0; input_node = None }

let fresh b op shape =
  let node = { id = b.next_id; op; shape = Array.copy shape } in
  b.next_id <- b.next_id + 1;
  node

let input b ~name ?(encrypted = true) shape =
  let node = fresh b (Input { name; encrypted }) shape in
  (match b.input_node with
  | Some _ -> invalid_arg "Circuit.input: only one input tensor is supported"
  | None -> b.input_node <- Some node);
  node

let as_chw node =
  match node.shape with
  | [| c; h; w |] -> (c, h, w)
  | _ -> invalid_arg "Circuit: expected a [c; h; w] node"

let conv2d b node ~weights ?bias ~stride ~padding () =
  let c, h, w = as_chw node in
  (match weights.Tensor.shape with
  | [| _; cin; _; _ |] when cin = c -> ()
  | _ -> invalid_arg "Circuit.conv2d: weights do not match input channels");
  let cout = weights.Tensor.shape.(0) in
  let kh = weights.Tensor.shape.(2) and kw = weights.Tensor.shape.(3) in
  (match bias with
  | Some bs when Array.length bs <> cout -> invalid_arg "Circuit.conv2d: bias arity"
  | _ -> ());
  let oh = Tensor.conv_output_dim h kh stride padding in
  let ow = Tensor.conv_output_dim w kw stride padding in
  fresh b (Conv2d { input = node; weights; bias; stride; padding }) [| cout; oh; ow |]

let matmul b node ~weights ?bias () =
  let in_dim = Tensor.numel_of_shape node.shape in
  (match weights.Tensor.shape with
  | [| _; d |] when d = in_dim -> ()
  | _ -> invalid_arg "Circuit.matmul: weights do not match input size");
  let out_dim = weights.Tensor.shape.(0) in
  (match bias with
  | Some bs when Array.length bs <> out_dim -> invalid_arg "Circuit.matmul: bias arity"
  | _ -> ());
  fresh b (MatMul { input = node; weights; bias }) [| out_dim |]

let avg_pool b node ~ksize ~stride =
  let c, h, w = as_chw node in
  if (h - ksize) mod stride <> 0 || (w - ksize) mod stride <> 0 then
    invalid_arg "Circuit.avg_pool: window does not tile the image";
  fresh b (AvgPool { input = node; ksize; stride })
    [| c; ((h - ksize) / stride) + 1; ((w - ksize) / stride) + 1 |]

let global_avg_pool b node =
  let c, _, _ = as_chw node in
  fresh b (GlobalAvgPool node) [| c; 1; 1 |]

let poly_act b node ~a ~b:coeff_b = fresh b (PolyAct { input = node; a; b = coeff_b }) node.shape
let square b node = fresh b (Square node) node.shape

let batch_norm b node ~scale ~shift =
  let c, _, _ = as_chw node in
  if Array.length scale <> c || Array.length shift <> c then
    invalid_arg "Circuit.batch_norm: per-channel parameter arity";
  fresh b (BatchNorm { input = node; scale; shift }) node.shape

let flatten b node = fresh b (Flatten node) [| Tensor.numel_of_shape node.shape |]

let finish b ~name ~output =
  match b.input_node with
  | None -> invalid_arg "Circuit.finish: no input node"
  | Some input -> { name; input; output; node_count = b.next_id }

let predecessors node =
  match node.op with
  | Input _ -> []
  | Conv2d { input; _ } | MatMul { input; _ } | AvgPool { input; _ } | PolyAct { input; _ }
  | BatchNorm { input; _ } ->
      [ input ]
  | GlobalAvgPool n | Square n | Flatten n -> [ n ]

let topo_order t =
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit node =
    if not (Hashtbl.mem visited node.id) then begin
      Hashtbl.add visited node.id ();
      List.iter visit (predecessors node);
      order := node :: !order
    end
  in
  visit t.output;
  List.rev !order

let layer_counts t =
  List.fold_left
    (fun (conv, fc, act) node ->
      match node.op with
      | Conv2d _ -> (conv + 1, fc, act)
      | MatMul _ -> (conv, fc + 1, act)
      | PolyAct _ | Square _ -> (conv, fc, act + 1)
      | Input _ | AvgPool _ | GlobalAvgPool _ | BatchNorm _ | Flatten _ -> (conv, fc, act))
    (0, 0, 0) (topo_order t)

let multiplicative_depth t =
  let depth = Hashtbl.create 64 in
  let d node = Hashtbl.find depth node.id in
  List.iter
    (fun node ->
      let v =
        match node.op with
        | Input _ -> 0
        | Conv2d { input; _ } | MatMul { input; _ } | BatchNorm { input; _ } -> d input + 1
        | AvgPool { input; _ } -> d input + 1 (* the 1/k² scaling multiply *)
        | GlobalAvgPool n -> d n + 1
        | PolyAct { input; a; _ } -> d input + if a = 0.0 then 1 else 2
        | Square n -> d n + 1
        | Flatten n -> d n
      in
      Hashtbl.replace depth node.id v)
    (topo_order t);
  d t.output

module Tensor = Chet_tensor.Tensor

let eval_all circuit image =
  let values : (int, Tensor.t) Hashtbl.t = Hashtbl.create 64 in
  let v (node : Circuit.node) = Hashtbl.find values node.Circuit.id in
  List.iter
    (fun (node : Circuit.node) ->
      let result =
        match node.Circuit.op with
        | Circuit.Input _ ->
            if image.Tensor.shape <> node.shape then
              invalid_arg "Reference.eval: image does not match the input schema";
            image
        | Circuit.Conv2d { input; weights; bias; stride; padding } ->
            Tensor.conv2d ~input:(v input) ~weights ?bias ~stride ~padding ()
        | Circuit.MatMul { input; weights; bias } -> Tensor.matmul_vec ~weights ?bias (v input)
        | Circuit.AvgPool { input; ksize; stride } -> Tensor.avg_pool2d ~input:(v input) ~ksize ~stride
        | Circuit.GlobalAvgPool n -> Tensor.global_avg_pool (v n)
        | Circuit.PolyAct { input; a; b } -> Tensor.poly_act ~a ~b (v input)
        | Circuit.Square n -> Tensor.square (v n)
        | Circuit.BatchNorm { input; scale; shift } -> Tensor.batch_norm ~scale ~shift (v input)
        | Circuit.Flatten n -> Tensor.flatten (v n)
      in
      Hashtbl.replace values node.Circuit.id result)
    (Circuit.topo_order circuit);
  values

let eval circuit image =
  Hashtbl.find (eval_all circuit image) circuit.Circuit.output.Circuit.id

let max_intermediate_abs circuit image =
  let values = eval_all circuit image in
  Hashtbl.fold (fun _ t acc -> Float.max acc (Tensor.max_abs t)) values 0.0

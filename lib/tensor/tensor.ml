type t = { shape : int array; data : float array }

let numel_of_shape shape = Array.fold_left ( * ) 1 shape
let create shape = { shape = Array.copy shape; data = Array.make (numel_of_shape shape) 0.0 }

let of_array shape data =
  if numel_of_shape shape <> Array.length data then invalid_arg "Tensor.of_array: size mismatch";
  { shape = Array.copy shape; data = Array.copy data }

let numel t = Array.length t.data
let copy t = { shape = Array.copy t.shape; data = Array.copy t.data }

let index t idx =
  if Array.length idx <> Array.length t.shape then invalid_arg "Tensor: rank mismatch";
  let lin = ref 0 in
  Array.iteri
    (fun d i ->
      if i < 0 || i >= t.shape.(d) then invalid_arg "Tensor: index out of bounds";
      lin := (!lin * t.shape.(d)) + i)
    idx;
  !lin

let get t idx = t.data.(index t idx)
let set t idx v = t.data.(index t idx) <- v

let index3 t c h w =
  (* fast path for [c; h; w] tensors *)
  ((c * t.shape.(1)) + h) * t.shape.(2) + w

let get3 t c h w = t.data.(index3 t c h w)
let set3 t c h w v = t.data.(index3 t c h w) <- v
let map f t = { t with data = Array.map f t.data }

let equal_shape a b = a.shape = b.shape

let max_abs_diff a b =
  if not (equal_shape a b) then invalid_arg "Tensor.max_abs_diff: shape mismatch";
  let m = ref 0.0 in
  Array.iteri (fun i v -> m := Float.max !m (Float.abs (v -. b.data.(i)))) a.data;
  !m

let max_abs a = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 a.data

let pp fmt t =
  Format.fprintf fmt "tensor%s[" (String.concat "x" (Array.to_list (Array.map string_of_int t.shape)));
  Array.iteri (fun i v -> if i < 8 then Format.fprintf fmt "%s%.4f" (if i > 0 then "; " else "") v) t.data;
  if Array.length t.data > 8 then Format.fprintf fmt "; …";
  Format.fprintf fmt "]"

type padding = Same | Valid

let conv_output_dim size k stride padding =
  match padding with
  | Valid -> ((size - k) / stride) + 1
  | Same -> ((size - 1) / stride) + 1

let conv2d ~input ~weights ?bias ~stride ~padding () =
  (match input.shape with
  | [| _; _; _ |] -> ()
  | _ -> invalid_arg "Tensor.conv2d: input must be [c; h; w]");
  (match weights.shape with
  | [| _; _; _; _ |] -> ()
  | _ -> invalid_arg "Tensor.conv2d: weights must be [cout; cin; kh; kw]");
  let cin = input.shape.(0) and h = input.shape.(1) and w = input.shape.(2) in
  let cout = weights.shape.(0) and kh = weights.shape.(2) and kw = weights.shape.(3) in
  if weights.shape.(1) <> cin then invalid_arg "Tensor.conv2d: channel mismatch";
  (match padding with
  | Same ->
      if kh land 1 = 0 || kw land 1 = 0 then
        invalid_arg "Tensor.conv2d: Same padding needs odd kernels"
  | Valid -> ());
  let oh = conv_output_dim h kh stride padding in
  let ow = conv_output_dim w kw stride padding in
  let ph = match padding with Same -> kh / 2 | Valid -> 0 in
  let pw = match padding with Same -> kw / 2 | Valid -> 0 in
  let out = create [| cout; oh; ow |] in
  let widx o c dy dx = (((((o * cin) + c) * kh) + dy) * kw) + dx in
  for o = 0 to cout - 1 do
    let b = match bias with Some bs -> bs.(o) | None -> 0.0 in
    for i = 0 to oh - 1 do
      for j = 0 to ow - 1 do
        let acc = ref b in
        for c = 0 to cin - 1 do
          for dy = 0 to kh - 1 do
            for dx = 0 to kw - 1 do
              let y = (i * stride) + dy - ph and x = (j * stride) + dx - pw in
              if y >= 0 && y < h && x >= 0 && x < w then
                acc := !acc +. (get3 input c y x *. weights.data.(widx o c dy dx))
            done
          done
        done;
        set3 out o i j !acc
      done
    done
  done;
  out

let flatten t = { shape = [| Array.length t.data |]; data = Array.copy t.data }

let matmul_vec ~weights ?bias input =
  (match weights.shape with
  | [| _; _ |] -> ()
  | _ -> invalid_arg "Tensor.matmul_vec: weights must be [out; in]");
  let out_dim = weights.shape.(0) and in_dim = weights.shape.(1) in
  let x = flatten input in
  if Array.length x.data <> in_dim then invalid_arg "Tensor.matmul_vec: dimension mismatch";
  let out = create [| out_dim |] in
  for o = 0 to out_dim - 1 do
    let acc = ref (match bias with Some bs -> bs.(o) | None -> 0.0) in
    for i = 0 to in_dim - 1 do
      acc := !acc +. (weights.data.((o * in_dim) + i) *. x.data.(i))
    done;
    out.data.(o) <- !acc
  done;
  out

let avg_pool2d ~input ~ksize ~stride =
  let c = input.shape.(0) and h = input.shape.(1) and w = input.shape.(2) in
  let oh = ((h - ksize) / stride) + 1 and ow = ((w - ksize) / stride) + 1 in
  let out = create [| c; oh; ow |] in
  let inv = 1.0 /. float_of_int (ksize * ksize) in
  for ch = 0 to c - 1 do
    for i = 0 to oh - 1 do
      for j = 0 to ow - 1 do
        let acc = ref 0.0 in
        for dy = 0 to ksize - 1 do
          for dx = 0 to ksize - 1 do
            acc := !acc +. get3 input ch ((i * stride) + dy) ((j * stride) + dx)
          done
        done;
        set3 out ch i j (!acc *. inv)
      done
    done
  done;
  out

let global_avg_pool t =
  let c = t.shape.(0) and h = t.shape.(1) and w = t.shape.(2) in
  let out = create [| c; 1; 1 |] in
  let inv = 1.0 /. float_of_int (h * w) in
  for ch = 0 to c - 1 do
    let acc = ref 0.0 in
    for i = 0 to h - 1 do
      for j = 0 to w - 1 do
        acc := !acc +. get3 t ch i j
      done
    done;
    set3 out ch 0 0 (!acc *. inv)
  done;
  out

let poly_act ~a ~b t = map (fun x -> (a *. x *. x) +. (b *. x)) t
let square t = map (fun x -> x *. x) t

let batch_norm ~scale ~shift t =
  let c = t.shape.(0) in
  if Array.length scale <> c || Array.length shift <> c then
    invalid_arg "Tensor.batch_norm: per-channel parameter mismatch";
  let out = copy t in
  let hw = t.shape.(1) * t.shape.(2) in
  for ch = 0 to c - 1 do
    for k = 0 to hw - 1 do
      out.data.((ch * hw) + k) <- (t.data.((ch * hw) + k) *. scale.(ch)) +. shift.(ch)
    done
  done;
  out

let concat_channels = function
  | [] -> invalid_arg "Tensor.concat_channels: empty"
  | first :: _ as ts ->
      let h = first.shape.(1) and w = first.shape.(2) in
      List.iter
        (fun t ->
          if t.shape.(1) <> h || t.shape.(2) <> w then
            invalid_arg "Tensor.concat_channels: spatial dims differ")
        ts;
      let total_c = List.fold_left (fun acc t -> acc + t.shape.(0)) 0 ts in
      let out = create [| total_c; h; w |] in
      let pos = ref 0 in
      List.iter
        (fun t ->
          Array.blit t.data 0 out.data (!pos * h * w) (Array.length t.data);
          pos := !pos + t.shape.(0))
        ts;
      out

let argmax t =
  let best = ref 0 in
  Array.iteri (fun i v -> if v > t.data.(!best) then best := i) t.data;
  !best

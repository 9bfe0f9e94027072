(* Homomorphic tensor kernels, written once against the HISA and instantiated
   per backend (real schemes, cleartext reference, simulator, and the
   compiler's data-flow analyses — §5.1's "execute the circuit under a
   different interpretation").

   Every kernel is prepare-once: its constructor does everything
   input-independent up front — geometry, shape checks, plaintext vector
   construction, constant-scale encodes — and returns an {!op} whose
   [sg_run] closure replays only the per-inference homomorphic work, with
   accumulation dispatched through the fused HISA ops. lib/plan/plan_exec.ml
   stages one op per plan step.

   Conventions shared by all kernels:
   - the layout invariant: slots outside valid logical positions are zero;
     ops that scramble the gap slots (conv, pool, matmul) end with a
     plaintext mask that restores it (the "Mask" of Figures 1 and 4);
   - rotations are normalised to left-rotations in [0, slots);
   - after any scale-raising op the tensor is rescaled back towards the
     working scale as far as maxRescale allows (§5.5's interplay between
     scales and rescaling). *)

module Hisa = Chet_hisa.Hisa
module Herr = Chet_hisa.Herr
module Tensor = Chet_tensor.Tensor

let err ~op e = Herr.raise_err ~backend:"kernels" ~op e

let shape_str a = "[" ^ String.concat "; " (Array.to_list (Array.map string_of_int a)) ^ "]"

type scales = {
  pc : int;  (** ciphertext (image) working scale *)
  pw : int;  (** plaintext-vector weight scale *)
  pu : int;  (** scalar weight scale *)
  pm : int;  (** mask scale *)
}

(* pm must dominate the CKKS encoding noise of a 0/1 mask (~sqrt(N)/2 in the
   slot domain); pu*pm = pw*pm = pc so one chain prime rescales a layer. *)
let default_scales = { pc = 1 lsl 30; pw = 1 lsl 16; pu = 1 lsl 16; pm = 1 lsl 14 }

(* --- backend-free geometry (shared with the plan compiler) ----------- *)

let conv_geometry meta ~kh ~kw ~stride ~padding =
  let ph = match padding with Tensor.Same -> kh / 2 | Tensor.Valid -> 0 in
  let pw_ = match padding with Tensor.Same -> kw / 2 | Tensor.Valid -> 0 in
  let oh = Tensor.conv_output_dim meta.Layout.height kh stride padding in
  let ow = Tensor.conv_output_dim meta.Layout.width kw stride padding in
  let spatial =
    Layout.with_spatial meta ~height:(((oh - 1) * stride) + 1) ~width:(((ow - 1) * stride) + 1)
  in
  let out = Layout.after_stride spatial stride in
  (ph, pw_, out)

(* rotation amount bringing input position (y0+dy, x0+dx) to the slot of
   output position (y0, x0) *)
let tap_rotation meta ~dy ~dx = (dy * meta.Layout.row_stride) + (dx * meta.Layout.col_stride)

(* --- dense layers: the lattice fold ----------------------------------

   A dense layer's input occupies a lattice per ciphertext: anchor
   [offset], then axes (col_stride, width), (row_stride, height) and
   (ch_stride, occupied channel blocks). Folding a partial product over
   that lattice, one power-of-two axis at a time, sums [box] slots instead
   of all of them, and leaves the total on the box's bottom corner.
   [dn_lanes] outputs share one fold: lane [k] reads the input lifted
   [dn_lift - k·spread] slots, a sub-lattice disjoint from the other lanes'
   as long as [k·spread] stays below the strides' gcd. The placement tree
   then carries group [g] down by [g·lanes·spread] in log-depth
   power-of-two steps — left rotations by the same amounts the folds of
   narrower layers use — so the lanes of all groups tile consecutive output
   positions below the lifted anchor, output 0 at [dn_base]. The lift is
   just large enough for that tile to stay above slot 0.

   One fold can serve every output instead ([dn_once]): each output's
   partial product gets its own box, [dn_stride] slots from the next one —
   the smallest power of two at or above the box's extent
   [Σ (count − 1)·stride + spread], so the boxes are disjoint — and the
   placement tree merges the partials before the fold. One fold then sums
   every box at once, and one mask keeps the [out_dim] corners:
   [out_dim − 1 + F] key switches for F fold steps, against
   [out_dim·(F + 1) − 1] folding per output. The boxes go below the anchor
   (output 0 lowest), lifting the input first when they would pass slot 0.
   The output is a strided vector, output [o] at [dn_base + o·dn_stride].

   A vector input (a single-axis lattice) folds once whenever that is
   cheaper. A multi-axis input folds once only when [last] says no later
   dense layer reads the output: its box is wide, so the stride spreads the
   outputs far apart, and a dense layer reading them would need many more
   rotation amounts (keys) for few key switches saved. micro's dense layer
   (2 HW inputs, axes 2×8 and 20×8, twin) folds once in 11 key switches
   (3 placement, 6 fold, 2 lift) against 27 per group. *)

type dense_fold = {
  dn_axes : (int * int) list;  (** (stride, power-of-two count) of each folded axis *)
  dn_lanes : int;  (** outputs packed into one fold (1 when folding once) *)
  dn_lift : int;  (** slots every lane is first moved up *)
  dn_base : int;  (** slot of output 0 *)
  dn_stride : int;  (** slots between consecutive outputs *)
  dn_once : bool;  (** one fold after the placement tree serves every output *)
}

(* [None] when the padded box is not mixed-radix ([count·stride] of one
   axis overrunning the next stride) or the lifted fold would wrap past the
   last slot; the kernel then folds over every slot. *)
let dense_fold meta ~out_dim ~last =
  let spread = Layout.spread_of meta.Layout.twin in
  let occupied =
    match meta.Layout.kind with
    | Layout.HW -> 1
    | Layout.CHW -> Stdlib.min meta.Layout.ch_per_ct meta.Layout.channels
  in
  let rec ceil_pow2 p n = if p >= n then p else ceil_pow2 (p * 2) n in
  let axes =
    List.filter_map
      (fun (s, c) -> if c > 1 then Some (s, ceil_pow2 1 c) else None)
      [
        (meta.Layout.col_stride, meta.Layout.width);
        (meta.Layout.row_stride, meta.Layout.height);
        (meta.Layout.ch_stride, occupied);
      ]
    |> List.sort compare
  in
  let rec mixed_radix = function
    | (s, c) :: ((s', _) :: _ as rest) -> c * s <= s' && mixed_radix rest
    | _ -> true
  in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let g = List.fold_left (fun acc (s, _) -> gcd acc s) 0 axes in
  let max_lanes = Stdlib.max 1 (Stdlib.min out_dim (if g = 0 then 1 else g / spread)) in
  let log2 n =
    let rec loop n acc = if n <= 1 then acc else loop (n / 2) (acc + 1) in
    loop n 0
  in
  let folds = List.fold_left (fun acc (_, c) -> acc + log2 c) 0 axes in
  let n_in = Layout.num_cts meta in
  let groups k = (out_dim + k - 1) / k in
  let lift k = Stdlib.max 0 ((((groups k * k) - 1) * spread) - meta.Layout.offset) in
  (* key switches per inference: lane shifts (lane 0 too once lifted),
     then per group its fold and its place in the tree *)
  let cost k =
    (n_in * (k - if lift k > 0 then 0 else 1)) + (groups k * (folds + 1)) - 1
  in
  let lanes = ref 1 in
  for k = 2 to max_lanes do
    if cost k <= cost !lanes then lanes := k
  done;
  let lanes = !lanes in
  let top = List.fold_left (fun acc (s, c) -> acc + ((c - 1) * s)) 0 axes in
  let per_group =
    let lift = lift lanes in
    let anchor = meta.Layout.offset + lift in
    if mixed_radix axes && anchor + top + spread <= meta.Layout.slots then
      Some
        {
          dn_axes = axes;
          dn_lanes = lanes;
          dn_lift = lift;
          dn_base = anchor - (((groups lanes * lanes) - 1) * spread);
          dn_stride = spread;
          dn_once = false;
        }
    else None
  in
  let once =
    let allowed =
      match axes with [ _ ] -> true | _ -> axes <> [] && last && mixed_radix axes
    in
    (* a box spans the lattice and the twin slot; [t] is a power of two,
       hence a multiple of [spread] *)
    let extent = top + spread in
    let t = ceil_pow2 1 extent in
    let lift = Stdlib.max 0 (((out_dim - 1) * t) - meta.Layout.offset) in
    let anchor = meta.Layout.offset + lift in
    let cost_once = out_dim - 1 + folds + if lift > 0 then n_in else 0 in
    let cheaper = match per_group with None -> true | Some _ -> cost_once < cost lanes in
    if allowed && cheaper && anchor + extent <= meta.Layout.slots then
      Some
        {
          dn_axes = axes;
          dn_lanes = 1;
          dn_lift = lift;
          dn_base = anchor - ((out_dim - 1) * t);
          dn_stride = t;
          dn_once = true;
        }
    else None
  in
  match once with Some _ -> once | None -> per_group

let dense_out_meta meta ~out_dim ~last =
  let vector ?stride () =
    Layout.vector_meta ~slots:meta.Layout.slots ~length:out_dim ~twin:meta.Layout.twin ?stride ()
  in
  match dense_fold meta ~out_dim ~last with
  | Some d -> { (vector ~stride:d.dn_stride ()) with Layout.offset = d.dn_base }
  | None -> vector ()

module Make (H : Hisa.S) = struct
  type ct_tensor = { meta : Layout.meta; cts : H.ct array }

  let rot ct amount =
    let s = H.slots in
    let amount = ((amount mod s) + s) mod s in
    if amount = 0 then ct else H.rot_left ct amount

  (* --- scale management ------------------------------------------- *)

  (* Loop: maxRescale's upper bound is a native int, so one call can remove
     at most ~62 bits; deep scale backlogs (squarings) need several rounds. *)
  let rec rescale_toward cfg ct =
    let s = H.scale_of ct in
    let ub = s /. float_of_int cfg.pc in
    if ub < 2.0 then ct
    else begin
      let ub_int = if ub >= 4.0e18 then max_int else int_of_float ub in
      let d = H.max_rescale ct ub_int in
      if d > 1 then rescale_toward cfg (H.rescale ct d) else ct
    end

  let normalize cfg t = { t with cts = Array.map (rescale_toward cfg) t.cts }

  (* --- encryptor / decryptor --------------------------------------- *)

  let encrypt_tensor ?probe cfg meta tensor =
    let vecs = Layout.pack ?probe meta tensor in
    { meta; cts = Array.map (fun v -> H.encrypt (H.encode v ~scale:cfg.pc)) vecs }

  let decrypt_tensor t =
    Layout.unpack t.meta (Array.map (fun ct -> H.decode (H.decrypt ct)) t.cts)

  (* Decrypt once, split into the primary result and (for twin layouts) the
     sentinel tensor carried in the odd slots. *)
  let decrypt_parts t =
    let vecs = Array.map (fun ct -> H.decode (H.decrypt ct)) t.cts in
    let twin = if t.meta.Layout.twin then Some (Layout.unpack_twin t.meta vecs) else None in
    (Layout.unpack t.meta vecs, twin)

  (* --- helpers ------------------------------------------------------ *)

  (* A kernel reading [d] physical slots beyond the image on either side
     needs that much zero head-room; [d = 0] (Valid padding, pooling) reads
     only inside the image and needs none. *)
  let check_taps ~op meta d =
    if d > 0 && not (Layout.max_rotation_safe meta d) then
      err ~op
        (Herr.Slot_overflow
           { slots = meta.Layout.slots; requested = Layout.max_extent meta + d })
      (* layout margins too small for this kernel's taps: increase ~margin *)

  (* --- prepared kernels ---------------------------------------------- *)

  type op = {
    sg_run : ct_tensor -> ct_tensor;
    sg_mul_rescale : int;  (** fused mulPlain+rescale traversals per inference *)
    sg_rot_acc : int;  (** fused rotate-accumulate steps per inference *)
    sg_mul_acc : int;  (** fused multiply-accumulate steps per inference *)
  }

  let nop_counts run = { sg_run = run; sg_mul_rescale = 0; sg_rot_acc = 0; sg_mul_acc = 0 }

  (* Plaintext staging: encode now while the plaintext [budget] lasts (the
     memory bound on a prepared executor), re-encode per inference after.
     Either way the encode is deterministic, so staging cannot change
     results. *)
  let staged_pt budget build ~scale =
    if !budget > 0 then begin
      decr budget;
      let p = H.encode (build ()) ~scale in
      fun () -> p
    end
    else fun () -> H.encode (build ()) ~scale

  (* Dynamic-scale plaintexts (biases/shifts encode at the scale observed
     mid-inference): the trajectory of a fixed circuit repeats across
     requests, so memoise per (ct index, scale). *)
  let dynamic_pts build_vecs =
    let vecs = lazy (build_vecs ()) in
    let cache = Hashtbl.create 4 in
    fun i ~scale ->
      match Hashtbl.find_opt cache (i, scale) with
      | Some p -> p
      | None ->
          let p = H.encode (Lazy.force vecs).(i) ~scale in
          Hashtbl.add cache (i, scale) p;
          p

  (* sum a ciphertext's slots so that slot 0's block receives the total of
     the [count] blocks spaced [stride] apart; [count] must be a power of
     two. After the fold, positions offset by anything else hold partial
     garbage (to be masked by the caller). *)
  let fold_blocks ct ~count ~stride =
    let acc = ref ct and step = ref (count / 2) in
    while !step >= 1 do
      acc := H.fma_rot !acc !acc (!step * stride);
      step := !step / 2
    done;
    !acc

  let log2i n =
    let rec loop n acc = if n <= 1 then acc else loop (n / 2) (acc + 1) in
    loop n 0

  (* the mulPlain+rescale peephole: mask and renormalise in one traversal *)
  let mask_normalize cfg cts pts =
    Array.mapi (fun i ct -> rescale_toward cfg (H.mul_plain ct (pts.(i) ()))) cts

  (* --- convolution -------------------------------------------------- *)

  let conv_geometry = conv_geometry
  let tap_rotation = tap_rotation

  let conv2d cfg ~meta ~budget ~weights ~bias ~stride ~padding =
    let cout = weights.Tensor.shape.(0) and cin = weights.Tensor.shape.(1) in
    let kh = weights.Tensor.shape.(2) and kw = weights.Tensor.shape.(3) in
    if cin <> meta.Layout.channels then
      err ~op:"conv2d"
        (Herr.Shape_mismatch
           {
             expected = Printf.sprintf "weights with %d input channels" meta.Layout.channels;
             got =
               Printf.sprintf "weights %s (%d input channels)" (shape_str weights.Tensor.shape)
                 cin;
           });
    let ph, pw_, out_spatial = conv_geometry meta ~kh ~kw ~stride ~padding in
    let out_meta = Layout.with_channels out_spatial cout in
    check_taps ~op:"conv2d" meta (tap_rotation meta ~dy:ph ~dx:pw_);
    let w_at o c dy dx = Tensor.get weights [| o; c; dy; dx |] in
    (* the bias is added after the rescale, at the scale then observed, so
       its encoding scale fits a native int *)
    let bias_pts =
      Option.map
        (fun bs -> dynamic_pts (fun () -> Layout.plains out_meta (fun c _ _ -> bs.(c))))
        bias
    in
    let add_bias t' =
      match bias_pts with
      | None -> t'
      | Some dyn ->
          let scale_now = int_of_float (H.scale_of t'.cts.(0)) in
          { t' with cts = Array.mapi (fun i ct -> H.add_plain ct (dyn i ~scale:scale_now)) t'.cts }
    in
    (* rotated input ciphertexts, shared across output channels: every
       amount ciphertext [j] is read at, rotated in one hoisted call *)
    let norm a = ((a mod H.slots) + H.slots) mod H.slots in
    let hoisted_of taps =
      let amounts = Array.make (Layout.num_cts meta) [] in
      Array.iter
        (List.iter (fun (j, a) ->
             let a = norm a in
             if a <> 0 && not (List.mem a amounts.(j)) then amounts.(j) <- a :: amounts.(j)))
        taps;
      let amounts = Array.map (fun l -> Array.of_list (List.rev l)) amounts in
      fun t ->
        let rotated = Hashtbl.create 64 in
        Array.iteri
          (fun j ks ->
            if Array.length ks > 0 then
              Array.iteri
                (fun i ct -> Hashtbl.replace rotated (j, ks.(i)) ct)
                (H.rot_many t.cts.(j) ks))
          amounts;
        fun j a ->
          let a = norm a in
          if a = 0 then t.cts.(j) else Hashtbl.find rotated (j, a)
    in
    match meta.Layout.kind with
    | Layout.HW ->
        (* one input ciphertext per channel; weights enter as scalars, and
           the accumulator is masked once per output ciphertext (Fig. 4) *)
        let taps =
          Array.init cout (fun o ->
              let l = ref [] in
              for c = 0 to cin - 1 do
                for dy = 0 to kh - 1 do
                  for dx = 0 to kw - 1 do
                    let w = w_at o c dy dx in
                    if w <> 0.0 then
                      l := (c, tap_rotation meta ~dy:(dy - ph) ~dx:(dx - pw_), w) :: !l
                  done
                done
              done;
              List.rev !l)
        in
        let rotated_of = hoisted_of (Array.map (List.map (fun (c, a, _) -> (c, a))) taps) in
        let nout = Layout.num_cts out_meta in
        let mask_pts =
          Array.init nout (fun j ->
              staged_pt budget (fun () -> Layout.plain_ct out_meta j (fun _ _ _ -> 1.0)) ~scale:cfg.pm)
        in
        let run t =
          let rotated_ct = rotated_of t in
          let out_cts =
            Array.init cout (fun o ->
                match taps.(o) with
                | [] -> H.mul_scalar t.cts.(0) 0.0 ~scale:cfg.pu
                | (c0, a0, w0) :: rest ->
                    List.fold_left
                      (fun acc (c, a, w) -> H.fma_scalar acc (rotated_ct c a) w ~scale:cfg.pu)
                      (H.mul_scalar (rotated_ct c0 a0) w0 ~scale:cfg.pu)
                      rest)
          in
          add_bias { meta = out_meta; cts = mask_normalize cfg out_cts mask_pts }
        in
        {
          sg_run = run;
          sg_mul_rescale = nout;
          sg_rot_acc = 0;
          sg_mul_acc = Array.fold_left (fun a l -> a + Stdlib.max 0 (List.length l - 1)) 0 taps;
        }
    | Layout.CHW ->
        (* channels packed in blocks; weights enter as plaintext vectors and
           partial sums fold across blocks *)
        let cpc = meta.Layout.ch_per_ct in
        let in_cts_n = Layout.num_cts meta in
        (* plaintext weights live on the *output* spatial grid but with the
           *input* channel structure *)
        let mid_meta = Layout.with_channels out_spatial cin in
        let out_cpc = out_meta.Layout.ch_per_ct in
        let out_ct_count = Layout.num_cts out_meta in
        (* a tap's weight vector is nonzero exactly when one of the input
           channels packed into ciphertext [j] has a nonzero weight there —
           decided from the weights, without building the vector *)
        let any_weight o j dy dx =
          let c_hi = Stdlib.min cin ((j + 1) * mid_meta.Layout.ch_per_ct) - 1 in
          let rec go c = c <= c_hi && (w_at o c dy dx <> 0.0 || go (c + 1)) in
          go (j * mid_meta.Layout.ch_per_ct)
        in
        let taps =
          Array.init cout (fun o ->
              let l = ref [] in
              for j = 0 to in_cts_n - 1 do
                for dy = 0 to kh - 1 do
                  for dx = 0 to kw - 1 do
                    let build () = Layout.plain_ct mid_meta j (fun c _ _ -> w_at o c dy dx) in
                    if any_weight o j dy dx then begin
                      let amount = tap_rotation meta ~dy:(dy - ph) ~dx:(dx - pw_) in
                      l := (j, amount, staged_pt budget build ~scale:cfg.pw) :: !l
                    end
                  done
                done
              done;
              List.rev !l)
        in
        let rotated_of = hoisted_of (Array.map (List.map (fun (j, a, _) -> (j, a))) taps) in
        (* per-channel placement masks: the fold leaves partial sums in the
           other blocks, which must not pollute sibling channels *)
        let mask_pts =
          Array.init cout (fun o ->
              staged_pt budget
                (fun () ->
                  Layout.plain_ct out_meta (o / out_cpc) (fun c _ _ -> if c = o then 1.0 else 0.0))
                ~scale:cfg.pm)
        in
        let run t =
          let rotated_ct = rotated_of t in
          let outs = Array.make out_ct_count None in
          for o = 0 to cout - 1 do
            let acc = ref None in
            List.iter
              (fun (j, amount, p) ->
                let x = rotated_ct j amount in
                acc :=
                  Some
                    (match !acc with
                    | None -> H.mul_plain x (p ())
                    | Some a -> H.fma_plain a x (p ())))
              taps.(o);
            let acc =
              match !acc with
              | Some ct -> ct
              | None -> H.mul_scalar t.cts.(0) 0.0 ~scale:cfg.pw
            in
            (* fold the per-block partials into block 0, place channel o
               into its block of its output ciphertext, mask to that block *)
            let folded =
              if cpc > 1 then fold_blocks acc ~count:cpc ~stride:meta.Layout.ch_stride else acc
            in
            let placed = rot folded (-(o mod out_cpc) * out_meta.Layout.ch_stride) in
            let m = mask_pts.(o) () in
            outs.(o / out_cpc) <-
              (match outs.(o / out_cpc) with
              | None -> Some (H.mul_plain placed m)
              | Some a -> Some (H.fma_plain a placed m))
          done;
          let cts = Array.map (function Some ct -> rescale_toward cfg ct | None -> assert false) outs in
          add_bias { meta = out_meta; cts }
        in
        {
          sg_run = run;
          sg_mul_rescale = out_ct_count;
          sg_rot_acc = (if cpc > 1 then cout * log2i cpc else 0);
          sg_mul_acc =
            Array.fold_left (fun a l -> a + Stdlib.max 0 (List.length l - 1)) 0 taps
            + Stdlib.max 0 (cout - out_ct_count);
        }

  (* --- pooling ------------------------------------------------------ *)

  (* pooling reads strictly inside the image: no head-room needed. The 1/k²
     averaging factor rides along in the mask (one multiply). *)
  let avg_pool cfg ~meta ~budget ~ksize ~stride =
    let taps = ref [] in
    for dy = 0 to ksize - 1 do
      for dx = 0 to ksize - 1 do
        if dy <> 0 || dx <> 0 then taps := tap_rotation meta ~dy ~dx :: !taps
      done
    done;
    let taps = List.rev !taps in
    let out_meta =
      Layout.after_stride
        (Layout.with_spatial meta
           ~height:(meta.Layout.height - ksize + 1)
           ~width:(meta.Layout.width - ksize + 1))
        stride
    in
    let inv = 1.0 /. float_of_int (ksize * ksize) in
    let n = Layout.num_cts out_meta in
    let mask_pts =
      Array.init n (fun j ->
          staged_pt budget (fun () -> Layout.plain_ct out_meta j (fun _ _ _ -> inv)) ~scale:cfg.pm)
    in
    let taps = Array.of_list taps in
    let run t =
      let summed =
        Array.map (fun ct -> Array.fold_left H.add ct (H.rot_many ct taps)) t.cts
      in
      { meta = out_meta; cts = mask_normalize cfg summed mask_pts }
    in
    { sg_run = run; sg_mul_rescale = n; sg_rot_acc = 0; sg_mul_acc = 0 }

  (* sum rows into row 0, then columns into column 0 *)
  let global_avg_pool cfg ~meta ~budget =
    let is_pow2 n = n > 0 && n land (n - 1) = 0 in
    let h = meta.Layout.height and w = meta.Layout.width in
    let out_meta = Layout.with_spatial meta ~height:1 ~width:1 in
    let inv = 1.0 /. float_of_int (h * w) in
    let n = Layout.num_cts out_meta in
    let mask_pts =
      Array.init n (fun j ->
          staged_pt budget (fun () -> Layout.plain_ct out_meta j (fun _ _ _ -> inv)) ~scale:cfg.pm)
    in
    let run t =
      let summed =
        Array.map
          (fun ct ->
            let row_sum =
              if is_pow2 h then fold_blocks ct ~count:h ~stride:meta.Layout.row_stride
              else begin
                let acc = ref ct in
                for i = 1 to h - 1 do
                  acc := H.fma_rot !acc ct (i * meta.Layout.row_stride)
                done;
                !acc
              end
            in
            if is_pow2 w then fold_blocks row_sum ~count:w ~stride:meta.Layout.col_stride
            else begin
              let acc = ref row_sum in
              for j = 1 to w - 1 do
                acc := H.fma_rot !acc row_sum (j * meta.Layout.col_stride)
              done;
              !acc
            end)
          t.cts
      in
      { meta = out_meta; cts = mask_normalize cfg summed mask_pts }
    in
    let per_ct =
      (if is_pow2 h then log2i h else h - 1) + if is_pow2 w then log2i w else w - 1
    in
    { sg_run = run; sg_mul_rescale = n; sg_rot_acc = n * per_ct; sg_mul_acc = 0 }

  (* --- pointwise ops ------------------------------------------------ *)

  (* a·x² + b·x = (a·x + b) · x : one scalar multiply, one ct multiply.
     Zero slots stay zero: (a·0 + b)·0 = 0, preserving the invariant. *)
  let poly_act cfg ~a ~b =
    nop_counts (fun t ->
        let cts =
          Array.map
            (fun x ->
              let t1 = H.add_scalar (H.mul_scalar x a ~scale:cfg.pu) b in
              rescale_toward cfg (H.mul t1 x))
            t.cts
        in
        { t with cts })

  (* square, loop-jammed: multiply and renormalise in one traversal *)
  let square cfg =
    nop_counts (fun t -> { t with cts = Array.map (fun x -> rescale_toward cfg (H.mul x x)) t.cts })

  let batch_norm cfg ~meta ~budget ~scale ~shift =
    let n = Layout.num_cts meta in
    let scale_pts =
      Array.init n (fun j ->
          staged_pt budget (fun () -> Layout.plain_ct meta j (fun c _ _ -> scale.(c))) ~scale:cfg.pw)
    in
    let shift_pts = dynamic_pts (fun () -> Layout.plains meta (fun c _ _ -> shift.(c))) in
    let run t =
      let scaled = mask_normalize cfg t.cts scale_pts in
      let s_now = int_of_float (H.scale_of scaled.(0)) in
      { t with cts = Array.mapi (fun i ct -> H.add_plain ct (shift_pts i ~scale:s_now)) scaled }
    in
    { sg_run = run; sg_mul_rescale = n; sg_rot_acc = 0; sg_mul_acc = 0 }

  (* --- fully connected ---------------------------------------------- *)

  let matmul cfg ~meta ~budget ~weights ~bias ~last =
    let out_dim = weights.Tensor.shape.(0) in
    let in_dim = weights.Tensor.shape.(1) in
    if in_dim <> meta.Layout.channels * meta.Layout.height * meta.Layout.width then
      err ~op:"matmul"
        (Herr.Shape_mismatch
           {
             expected =
               Printf.sprintf "weights with input dimension %d (= %dx%dx%d)"
                 (meta.Layout.channels * meta.Layout.height * meta.Layout.width)
                 meta.Layout.channels meta.Layout.height meta.Layout.width;
             got = Printf.sprintf "weights %s" (shape_str weights.Tensor.shape);
           });
    let out_meta = dense_out_meta meta ~out_dim ~last in
    let n_in = Layout.num_cts meta in
    let spread = Layout.spread_of meta.Layout.twin in
    let bias_pts =
      Option.map
        (fun bs -> dynamic_pts (fun () -> Layout.plains out_meta (fun c _ _ -> bs.(c))))
        bias
    in
    let add_bias out_ct =
      match bias_pts with
      | None -> { meta = out_meta; cts = [| out_ct |] }
      | Some dyn ->
          let s_now = int_of_float (H.scale_of out_ct) in
          { meta = out_meta; cts = [| H.add_plain out_ct (dyn 0 ~scale:s_now) |] }
    in
    (* weight plaintexts are built one ciphertext at a time: at large ring
       dimensions the full per-output plains vector set is huge. [shift]
       places them on the input lattice moved up that many slots. *)
    let w_pt ?(shift = 0) o j =
      let m = { meta with Layout.offset = meta.Layout.offset + shift } in
      staged_pt budget
        (fun () ->
          Layout.plain_ct m j (fun c h w_ ->
              Tensor.get weights [| o; Layout.flat_index meta ~c ~h ~w:w_ |]))
        ~scale:cfg.pw
    in
    (* select [slots] (and their twins, so the sentinel lane survives) *)
    let mask_pt slots =
      staged_pt budget
        (fun () ->
          let mask = Array.make H.slots 0.0 in
          List.iter
            (fun s ->
              mask.(s) <- 1.0;
              if meta.Layout.twin then mask.(s + 1) <- 1.0)
            slots;
          mask)
        ~scale:cfg.pm
    in
    (* a group's dot products: [terms] pairs input ciphertext [j], shifted
       to lane [k], with that lane's weights *)
    let partial terms inputs =
      let acc = ref None in
      List.iter
        (fun (j, k, p) ->
          let x = inputs.(j).(k) in
          acc :=
            Some (match !acc with None -> H.mul_plain x (p ()) | Some a -> H.fma_plain a x (p ())))
        terms;
      match !acc with Some a -> a | None -> assert false
    in
    let fold_amounts axes =
      List.concat_map (fun (stride, count) -> List.init (log2i count) (fun i -> stride lsl i)) axes
    in
    let fold axes ct = List.fold_left (fun acc a -> H.fma_rot acc acc a) ct (fold_amounts axes) in
    (* the placement tree: block [g] of [count] moves [g·unit] slots down, in
       log-depth power-of-two steps (binary-counter merge, one block per
       level): a block covering [2^l] blocks moves down [unit·2^l] when it
       joins the block before it *)
    let place ~unit count block =
      let stack = ref [] in
      for g = 0 to count - 1 do
        let rec push level b = function
          | (l, below) :: rest when l = level ->
              push (level + 1) (H.fma_rot below b (unit lsl level)) rest
          | st -> (level, b) :: st
        in
        stack := push 0 (block g) !stack
      done;
      match !stack with
      | [] -> assert false
      | (_, b) :: rest ->
          List.fold_left (fun acc (l, below) -> H.fma_rot below acc (unit lsl l)) b rest
    in
    match dense_fold meta ~out_dim ~last with
    | Some { dn_once = true; dn_axes; dn_lift = lift; dn_stride = t; _ } ->
        (* tree block [g] is output [out_dim − 1 − g], so output [o] ends
           [o·t] slots above output 0 *)
        let terms =
          Array.init out_dim (fun g ->
              List.init n_in (fun j -> (j, 0, w_pt ~shift:lift (out_dim - 1 - g) j)))
        in
        let anchor = meta.Layout.offset + lift in
        let mask = mask_pt (List.init out_dim (fun g -> anchor - (g * t))) in
        let run x =
          let lifted ct = if lift = 0 then ct else (H.rot_many ct [| H.slots - lift |]).(0) in
          let inputs = Array.map (fun ct -> [| lifted ct |]) x.cts in
          let merged = place ~unit:t out_dim (fun g -> partial terms.(g) inputs) in
          add_bias (rescale_toward cfg (H.mul_plain (fold dn_axes merged) (mask ())))
        in
        {
          sg_run = run;
          sg_mul_rescale = 1;
          sg_rot_acc = out_dim - 1 + List.length (fold_amounts dn_axes);
          sg_mul_acc = (n_in - 1) * out_dim;
        }
    | Some { dn_axes; dn_lanes = lanes; dn_lift = lift; _ } ->
        let groups = (out_dim + lanes - 1) / lanes in
        (* lane [k] of group [g] ends [g·lanes + k] output positions below
           the anchor *)
        let output g k = ((groups * lanes) - 1) - ((g * lanes) + k) in
        let terms =
          Array.init groups (fun g ->
              List.concat_map
                (fun j ->
                  List.filter_map
                    (fun k ->
                      let o = output g k in
                      if o < out_dim then Some (j, k, w_pt ~shift:(lift - (k * spread)) o j)
                      else None)
                    (List.init lanes Fun.id))
                (List.init n_in Fun.id))
        in
        let lane_amounts = Array.init lanes (fun k -> ((k * spread) - lift + H.slots) mod H.slots) in
        let shifted = Array.of_list (List.filter (( <> ) 0) (Array.to_list lane_amounts)) in
        let anchor = meta.Layout.offset + lift in
        let mask = mask_pt (List.init lanes (fun k -> anchor - (k * spread))) in
        let run t =
          let lanes_of ct =
            let moved = H.rot_many ct shifted and i = ref (-1) in
            Array.map (fun a -> if a = 0 then ct else (incr i; moved.(!i))) lane_amounts
          in
          let inputs = Array.map lanes_of t.cts in
          let block g = H.mul_plain (fold dn_axes (partial terms.(g) inputs)) (mask ()) in
          add_bias (rescale_toward cfg (place ~unit:(lanes * spread) groups block))
        in
        {
          sg_run = run;
          sg_mul_rescale = 1;
          sg_rot_acc = (groups * List.length (fold_amounts dn_axes)) + (groups - 1);
          sg_mul_acc = (n_in * out_dim) - groups;
        }
    | None ->
        (* fallback all-reduce: every slot ends up holding the dot product.
           Twin layouts fold at stride 2 over half the slots — each parity
           class all-reduces within itself, keeping the sentinel dot product
           in the odd slots and the primary one in the even slots. *)
        let w_pts = Array.init out_dim (fun o -> Array.init n_in (fun j -> w_pt o j)) in
        let mask_pts =
          Array.init out_dim (fun o -> mask_pt [ Layout.slot_of out_meta ~c:o ~h:0 ~w:0 ])
        in
        let count = H.slots / spread in
        let run t =
          let out = ref None in
          for o = 0 to out_dim - 1 do
            let terms = List.init n_in (fun j -> (j, 0, w_pts.(o).(j))) in
            let total =
              fold_blocks (partial terms (Array.map (fun c -> [| c |]) t.cts)) ~count ~stride:spread
            in
            let m = mask_pts.(o) () in
            out :=
              Some (match !out with None -> H.mul_plain total m | Some a -> H.fma_plain a total m)
          done;
          add_bias (rescale_toward cfg (match !out with Some ct -> ct | None -> assert false))
        in
        {
          sg_run = run;
          sg_mul_rescale = 1;
          sg_rot_acc = out_dim * log2i count;
          sg_mul_acc = (out_dim * Stdlib.max 0 (n_in - 1)) + Stdlib.max 0 (out_dim - 1);
        }

  (* --- structural ops ------------------------------------------------ *)

  (* metadata-only: matmul consumes the layout's own flat indexing *)
  let flatten = nop_counts (fun t -> t)

  (* --- layout conversion --------------------------------------------- *)

  let convert cfg ~meta ~budget ~to_kind =
    if meta.Layout.kind = to_kind then nop_counts (fun t -> t)
    else begin
      let out_meta = Layout.converted meta ~to_kind in
      match to_kind with
      | Layout.CHW ->
          (* HW -> CHW: shift each channel into its block and add; free of
             multiplies because gap slots are zero *)
          let cpc = out_meta.Layout.ch_per_ct in
          let n_out = Layout.num_cts out_meta in
          let run t =
            let outs = Array.make n_out None in
            Array.iteri
              (fun c ct ->
                let k = -(c mod cpc) * out_meta.Layout.ch_stride in
                outs.(c / cpc) <-
                  (match outs.(c / cpc) with
                  | None -> Some (rot ct k)
                  | Some a -> Some (H.fma_rot a ct k)))
              t.cts;
            { meta = out_meta; cts = Array.map (function Some ct -> ct | None -> assert false) outs }
          in
          {
            sg_run = run;
            sg_mul_rescale = 0;
            sg_rot_acc = Stdlib.max 0 (meta.Layout.channels - n_out);
            sg_mul_acc = 0;
          }
      | Layout.HW ->
          (* CHW -> HW: extract each channel block and mask off its siblings *)
          let mask0_pt =
            staged_pt budget
              (fun () -> Layout.plain_ct { out_meta with Layout.channels = 1 } 0 (fun _ _ _ -> 1.0))
              ~scale:cfg.pm
          in
          let run t =
            (* one mask serves every channel *)
            let mask0 = mask0_pt () in
            let cts =
              Array.init meta.Layout.channels (fun c ->
                  let src = t.cts.(Layout.ct_index meta c) in
                  let moved = rot src ((c mod meta.Layout.ch_per_ct) * meta.Layout.ch_stride) in
                  rescale_toward cfg (H.mul_plain moved mask0))
            in
            { meta = out_meta; cts }
          in
          {
            sg_run = run;
            sg_mul_rescale = meta.Layout.channels;
            sg_rot_acc = 0;
            sg_mul_acc = 0;
          }
    end
end

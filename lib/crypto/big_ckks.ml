(* HEAAN-style CKKS. See big_ckks.mli.

   Key switching: for a target secret s' (s² for relinearisation, φ_g(s) for
   rotations) the key is (k0, k1) mod Q0·P with k0 = -k1·s + e + P·s'.
   Switching a polynomial d: (d·k0, d·k1) mod q·P, divided by P with
   rounding, yields a pair decrypting to d·s' + noise mod q, with noise
   ≈ ‖d·e‖/P — small because P ≥ q always. *)

module Bigint = Chet_bigint.Bigint
module Herr = Chet_herr.Herr

let err ~op e = Herr.raise_err ~backend:"big_ckks" ~op e

type params = { n : int; log_fresh : int; log_special : int; sigma : float }

let default_params ?(n = 8192) ?log_special ~log_fresh () =
  let log_special = match log_special with Some l -> l | None -> log_fresh in
  { n; log_fresh; log_special; sigma = 3.2 }

type context = { params : params; rq : Rq_big.ctx; enc : Encoding.ctx }

let log2_int n =
  let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

let make_context params =
  if params.log_special < params.log_fresh then
    invalid_arg "Big_ckks.make_context: log_special must be >= log_fresh";
  let max_product_bits = (2 * (params.log_fresh + params.log_special)) + log2_int params.n + 4 in
  {
    params;
    rq = Rq_big.make_ctx ~n:params.n ~max_product_bits;
    enc = Encoding.make ~n:params.n;
  }

let params ctx = ctx.params
let slot_count ctx = ctx.params.n / 2
let encoding ctx = ctx.enc
let total_modulus_bits ctx = ctx.params.log_fresh + ctx.params.log_special

type secret_key = { s : int array (* ternary *) }
type public_key = { pk0 : Rq_big.t; pk1 : Rq_big.t (* mod 2^log_fresh *) }
type kswitch_key = { k0 : Rq_big.t; k1 : Rq_big.t (* mod 2^(log_fresh+log_special) *) }

type keys = {
  public : public_key;
  relin : kswitch_key;
  rotation : (int, kswitch_key) Hashtbl.t;
}

type plaintext = { poly : Rq_big.t; pt_scale : float }
type ciphertext = { c0 : Rq_big.t; c1 : Rq_big.t; scale : float }

let logq_of ct = Rq_big.logq ct.c0
let scale_of ct = ct.scale
let pt_logq pt = Rq_big.logq pt.poly

let s_poly ctx ~logq (sk : secret_key) = Rq_big.of_centered_coeffs ctx.rq logq sk.s

let sample_gaussian_poly ctx rng ~logq =
  Rq_big.of_centered_coeffs ctx.rq logq (Sampling.gaussian rng ~sigma:ctx.params.sigma ctx.params.n)

let sample_uniform_poly ctx rng ~logq =
  Rq_big.of_reduced_coeffs ~logq
    (Sampling.uniform_bigint_poly rng ~modulus:(Bigint.pow2 logq) ctx.params.n)

let keygen_kswitch ctx rng sk (target : Rq_big.t) =
  let logqp = ctx.params.log_fresh + ctx.params.log_special in
  let k1 = sample_uniform_poly ctx rng ~logq:logqp in
  let e = sample_gaussian_poly ctx rng ~logq:logqp in
  let p_target = Rq_big.mul_bigint ctx.rq target (Bigint.pow2 ctx.params.log_special) in
  let k0 =
    Rq_big.add ctx.rq
      (Rq_big.sub ctx.rq e (Rq_big.mul ctx.rq k1 (s_poly ctx ~logq:logqp sk)))
      p_target
  in
  { k0; k1 }

let keygen ctx rng =
  let sk = { s = Sampling.ternary rng ctx.params.n } in
  let logq = ctx.params.log_fresh in
  let pk1 = sample_uniform_poly ctx rng ~logq in
  let e = sample_gaussian_poly ctx rng ~logq in
  let pk0 = Rq_big.sub ctx.rq e (Rq_big.mul ctx.rq pk1 (s_poly ctx ~logq sk)) in
  let logqp = ctx.params.log_fresh + ctx.params.log_special in
  let s_qp = s_poly ctx ~logq:logqp sk in
  let s_sq = Rq_big.mul ctx.rq s_qp s_qp in
  let relin = keygen_kswitch ctx rng sk s_sq in
  (sk, { public = { pk0; pk1 }; relin; rotation = Hashtbl.create 16 })

let galois_of_rotation ctx r = Encoding.galois_element ctx.enc r

let add_rotation_key ctx rng sk keys r =
  let g = galois_of_rotation ctx r in
  if not (Hashtbl.mem keys.rotation g) then begin
    let logqp = ctx.params.log_fresh + ctx.params.log_special in
    let s_g = Rq_big.automorphism ctx.rq (s_poly ctx ~logq:logqp sk) ~g in
    Hashtbl.replace keys.rotation g (keygen_kswitch ctx rng sk s_g)
  end

let add_power_of_two_rotation_keys ctx rng sk keys =
  let slots = slot_count ctx in
  let k = ref 1 in
  while !k < slots do
    add_rotation_key ctx rng sk keys !k;
    add_rotation_key ctx rng sk keys (slots - !k);
    k := !k lsl 1
  done

let rotation_key_count keys = Hashtbl.length keys.rotation

let encode ctx ~logq ~scale (z : Complexv.t) =
  let coeffs = Encoding.encode ctx.enc ~scale ~re:z.Complexv.re ~im:z.Complexv.im in
  let q = Bigint.pow2 logq in
  let poly =
    Array.map
      (fun c ->
        (* float coefficients are exact up to 2^53; beyond that we accept the
           representation error, which is far below the CKKS noise floor *)
        let sign = if c < 0.0 then -1.0 else 1.0 in
        let a = Float.abs c in
        if a < 9.0e15 then Bigint.emod (Bigint.of_int (int_of_float (Float.round c))) q
        else begin
          (* split into high/low 45-bit chunks to convert losslessly-ish *)
          let hi = Float.round (a /. 3.5184372088832e13) (* 2^45 *) in
          let lo = Float.round (a -. (hi *. 3.5184372088832e13)) in
          let v =
            Bigint.add
              (Bigint.shift_left (Bigint.of_int (int_of_float hi)) 45)
              (Bigint.of_int (int_of_float lo))
          in
          Bigint.emod (if sign < 0.0 then Bigint.neg v else v) q
        end)
      coeffs
  in
  { poly = Rq_big.of_reduced_coeffs ~logq poly; pt_scale = scale }

let encode_real ctx ~logq ~scale values = encode ctx ~logq ~scale (Complexv.of_real values)

let decode ctx pt =
  let centered = Rq_big.to_centered_bigint_coeffs ctx.rq pt.poly in
  let floats = Array.map Bigint.to_float centered in
  let re, im = Encoding.decode ctx.enc ~scale:pt.pt_scale floats in
  Complexv.of_complex re im

let encrypt ctx rng (pk : public_key) pt =
  if pt_logq pt <> ctx.params.log_fresh then
    err ~op:"encrypt" (Herr.Level_mismatch { expected = ctx.params.log_fresh; got = pt_logq pt });
  let logq = ctx.params.log_fresh in
  let u = Rq_big.of_centered_coeffs ctx.rq logq (Sampling.ternary rng ctx.params.n) in
  let e0 = sample_gaussian_poly ctx rng ~logq in
  let e1 = sample_gaussian_poly ctx rng ~logq in
  let c0 = Rq_big.add ctx.rq (Rq_big.add ctx.rq (Rq_big.mul ctx.rq pk.pk0 u) e0) pt.poly in
  let c1 = Rq_big.add ctx.rq (Rq_big.mul ctx.rq pk.pk1 u) e1 in
  { c0; c1; scale = pt.pt_scale }

let decrypt ctx sk ct =
  let logq = logq_of ct in
  let m = Rq_big.add ctx.rq ct.c0 (Rq_big.mul ctx.rq ct.c1 (s_poly ctx ~logq sk)) in
  { poly = m; pt_scale = ct.scale }

(* kernels equalise scales only approximately (integer mask factors, RNS
   rescaling drift); [Herr.scale_tolerance] relative slack admits value
   error well below the scheme noise floor *)
let scales_compatible = Herr.scales_compatible

let check_binop op a b =
  if logq_of a <> logq_of b then
    err ~op (Herr.Level_mismatch { expected = logq_of a; got = logq_of b });
  if not (scales_compatible a.scale b.scale) then
    err ~op (Herr.Scale_mismatch { expected = a.scale; got = b.scale })

let add ctx a b =
  check_binop "add" a b;
  { a with c0 = Rq_big.add ctx.rq a.c0 b.c0; c1 = Rq_big.add ctx.rq a.c1 b.c1 }


let check_plain op (ct : ciphertext) (pt : plaintext) =
  if logq_of ct <> pt_logq pt then
    err ~op (Herr.Level_mismatch { expected = logq_of ct; got = pt_logq pt })

let add_plain ctx ct pt =
  check_plain "add_plain" ct pt;
  if not (scales_compatible ct.scale pt.pt_scale) then
    err ~op:"add_plain" (Herr.Scale_mismatch { expected = ct.scale; got = pt.pt_scale });
  { ct with c0 = Rq_big.add ctx.rq ct.c0 pt.poly }

let mul_plain ctx ct pt =
  check_plain "mul_plain" ct pt;
  {
    c0 = Rq_big.mul ctx.rq ct.c0 pt.poly;
    c1 = Rq_big.mul ctx.rq ct.c1 pt.poly;
    scale = ct.scale *. pt.pt_scale;
  }

let mul_scalar ctx ct x ~scale =
  let s = Bigint.of_int (int_of_float (Float.round (x *. scale))) in
  {
    c0 = Rq_big.mul_bigint ctx.rq ct.c0 s;
    c1 = Rq_big.mul_bigint ctx.rq ct.c1 s;
    scale = ct.scale *. scale;
  }

let add_scalar ctx ct x =
  ignore ctx;
  let logq = logq_of ct in
  let q = Bigint.pow2 logq in
  let c = Bigint.emod (Bigint.of_int (int_of_float (Float.round (x *. ct.scale)))) q in
  let c0 = Rq_big.coeffs ct.c0 in
  c0.(0) <- Bigint.emod (Bigint.add c0.(0) c) q;
  { ct with c0 = Rq_big.of_reduced_coeffs ~logq c0 }

let keyswitch ctx (d : Rq_big.t) (key : kswitch_key) =
  let log_p = ctx.params.log_special in
  let logqp = Rq_big.logq d + log_p in
  (* centered lift of d from mod q into mod q·P *)
  let d = Rq_big.of_bigint_coeffs ctx.rq logqp (Rq_big.to_centered_bigint_coeffs ctx.rq d) in
  let k0 = Rq_big.mod_down ctx.rq key.k0 logqp in
  let k1 = Rq_big.mod_down ctx.rq key.k1 logqp in
  let t0 = Rq_big.mul ctx.rq d k0 in
  let t1 = Rq_big.mul ctx.rq d k1 in
  (Rq_big.div_round_pow2 ctx.rq t0 ~k:log_p, Rq_big.div_round_pow2 ctx.rq t1 ~k:log_p)

let mul ctx keys a b =
  if logq_of a <> logq_of b then
    err ~op:"mul" (Herr.Level_mismatch { expected = logq_of a; got = logq_of b });
  let d0 = Rq_big.mul ctx.rq a.c0 b.c0 in
  let d1 = Rq_big.add ctx.rq (Rq_big.mul ctx.rq a.c0 b.c1) (Rq_big.mul ctx.rq a.c1 b.c0) in
  let d2 = Rq_big.mul ctx.rq a.c1 b.c1 in
  let k0, k1 = keyswitch ctx d2 keys.relin in
  { c0 = Rq_big.add ctx.rq d0 k0; c1 = Rq_big.add ctx.rq d1 k1; scale = a.scale *. b.scale }

let pow2 ctx = Modulus.Pow2_modulus ctx.params.log_fresh
let max_rescale ctx ct ub = Modulus.max_rescale (pow2 ctx) (Modulus.Logq (logq_of ct)) ub

(* the rule picks the target logq; the ring work shifts off the difference *)
let rescale ctx ct x =
  let logq = logq_of ct in
  let k =
    logq - Modulus.count (Modulus.rescale ~backend:"big_ckks" (pow2 ctx) (Modulus.Logq logq) x)
  in
  if k = 0 then ct
  else
    {
      c0 = Rq_big.div_round_pow2 ctx.rq ct.c0 ~k;
      c1 = Rq_big.div_round_pow2 ctx.rq ct.c1 ~k;
      scale = ct.scale /. float_of_int x;
    }

let mod_down ctx ct ~logq =
  if logq > logq_of ct then
    err ~op:"mod_down" (Herr.Level_mismatch { expected = logq_of ct; got = logq });
  { ct with c0 = Rq_big.mod_down ctx.rq ct.c0 logq; c1 = Rq_big.mod_down ctx.rq ct.c1 logq }

let apply_galois ?(amount = 0) ctx keys ct g =
  let key =
    match Hashtbl.find_opt keys.rotation g with
    | Some k -> k
    | None -> err ~op:"rotate" (Herr.Missing_rotation_key { amount })
  in
  let c0 = Rq_big.automorphism ctx.rq ct.c0 ~g in
  let c1 = Rq_big.automorphism ctx.rq ct.c1 ~g in
  let k0, k1 = keyswitch ctx c1 key in
  { ct with c0 = Rq_big.add ctx.rq c0 k0; c1 = k1 }

let rotate ctx keys ct r =
  let slots = slot_count ctx in
  let r = ((r mod slots) + slots) mod slots in
  if r = 0 then ct
  else begin
    let g = galois_of_rotation ctx r in
    if Hashtbl.mem keys.rotation g then apply_galois ~amount:r ctx keys ct g
    else begin
      let ct = ref ct and k = ref 1 and rem = ref r in
      while !rem > 0 do
        if !rem land 1 = 1 then begin
          let g = galois_of_rotation ctx !k in
          if not (Hashtbl.mem keys.rotation g) then
            err ~op:"rotate" (Herr.Missing_rotation_key { amount = r });
          ct := apply_galois ~amount:!k ctx keys !ct g
        end;
        rem := !rem lsr 1;
        k := !k lsl 1
      done;
      !ct
    end
  end

let rotate_key_available keys ctx r = Hashtbl.mem keys.rotation (galois_of_rotation ctx r)

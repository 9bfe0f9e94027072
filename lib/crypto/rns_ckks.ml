(* RNS-CKKS. See rns_ckks.mli for the external story.

   Conventions:
   - ciphertext components are kept in NTT form; rescale and key-switch
     digits go through coefficient form as needed, automorphisms permute
     NTT positions;
   - a level-l object lives over the prime prefix q_0..q_{l-1};
   - key switching is hybrid (DESIGN.md §15): the two largest primes form
     the special modulus P = p_0*p_1, the chain is grouped into digits of
     two consecutive primes (digit j = {q_2j, q_2j+1}; at an odd level the
     last digit has one prime), and a key carries one (b_j, a_j) pair per
     digit over the key basis (all chain primes + both special primes):
       b_j = -a_j*s + e_j + w_j*s'   with   w_j = P mod q_i on digit j's
                                            components, 0 on every other.
     Accumulating D_j(d) * ksk_j, where D_j is d's exact centered value mod
     the digit's modulus, then dividing by P (mod-down with rounding)
     yields d*s' + small noise mod Q. *)

module Rq = Rq_rns
module Bigint = Chet_bigint.Bigint
module Herr = Chet_herr.Herr

let err ~op e = Herr.raise_err ~backend:"rns_ckks" ~op e

type params = { n : int; coeff_modulus_bits : int; num_coeff_primes : int; sigma : float }

let default_params ?(n = 8192) ?(bits = 30) ~num_coeff_primes () =
  { n; coeff_modulus_bits = bits; num_coeff_primes; sigma = 3.2 }

type context = {
  params : params;
  rq : Rq.ctx;
  enc : Encoding.ctx;
  num_coeff : int;
  chain : Modulus.kind;  (** [Rns_chain] of the chain primes: what rescale may divide by *)
}

let make_context params =
  if params.num_coeff_primes < 1 then invalid_arg "Rns_ckks.make_context: need at least one prime";
  let primes =
    Modarith.gen_ntt_primes ~bits:params.coeff_modulus_bits ~modulus_of:(2 * params.n)
      ~count:(params.num_coeff_primes + 2)
  in
  (* primes are generated in descending order: the two largest form the
     special modulus, so P exceeds every digit's modulus *)
  let chain = Array.sub primes 2 params.num_coeff_primes in
  (* chain order: q_0 .. q_{L-1}; rescale drops from the end; the special
     primes p_0, p_1 follow the chain *)
  let all = Array.append chain [| primes.(0); primes.(1) |] in
  {
    params;
    rq = Rq.make_ctx ~n:params.n ~primes:all;
    enc = Encoding.make ~n:params.n;
    num_coeff = params.num_coeff_primes;
    chain = Modulus.Rns_chain chain;
  }

let params ctx = ctx.params
let slot_count ctx = ctx.params.n / 2
let coeff_primes ctx = Array.sub (Rq.ctx_primes ctx.rq) 0 ctx.num_coeff
let special_primes ctx = Array.sub (Rq.ctx_primes ctx.rq) ctx.num_coeff 2
let max_level ctx = ctx.num_coeff
let encoding ctx = ctx.enc
let rq_ctx ctx = ctx.rq

let total_modulus_bits ctx =
  let bits = ref 0.0 in
  Array.iter (fun p -> bits := !bits +. (log (float_of_int p) /. log 2.0)) (Rq.ctx_primes ctx.rq);
  int_of_float (Float.ceil !bits)

let basis_of_level l = Array.init l (fun i -> i)
(* a level-l key switch works over the chain prefix and both special primes *)
let key_basis ctx l = Array.append (basis_of_level l) [| ctx.num_coeff; ctx.num_coeff + 1 |]
let full_basis ctx = key_basis ctx ctx.num_coeff

(* digits of a level-l ciphertext; digit j holds chain primes 2j and 2j+1 *)
let digit_count l = (l + 1) / 2

(* P mod q for a chain prime q *)
let special_mod ctx q =
  let primes = Rq.ctx_primes ctx.rq in
  Modarith.mul_mod (primes.(ctx.num_coeff) mod q) (primes.(ctx.num_coeff + 1) mod q) q

type secret_key = { s : Rq.t (* full basis, NTT *) }
type public_key = { pk0 : Rq.t; pk1 : Rq.t (* top-level basis, NTT *) }
type kswitch_key = { pairs : (Rq.t * Rq.t) array (* one per digit; full basis, NTT *) }

type keys = {
  public : public_key;
  relin : kswitch_key;
  rotation : (int, kswitch_key) Hashtbl.t;
}

type plaintext = { poly : Rq.t; pt_scale : float; pt_level : int }
type ciphertext = { c0 : Rq.t; c1 : Rq.t; level : int; scale : float }

let level_of ct = ct.level
let scale_of ct = ct.scale

(* --- sampling helpers --- *)

let sample_uniform_ntt ctx rng basis =
  (* the NTT is a bijection, so sampling residues directly in NTT form is
     uniform in the ring *)
  let primes = Rq.ctx_primes ctx.rq in
  let comps = Array.map (fun i -> Sampling.uniform_poly rng ~modulus:primes.(i) ctx.params.n) basis in
  Rq.of_components ~basis ~comps ~ntt:true

let sample_gaussian ctx rng basis =
  let e = Sampling.gaussian rng ~sigma:ctx.params.sigma ctx.params.n in
  Rq.to_ntt ctx.rq (Rq.of_centered_coeffs ctx.rq basis e)

let sample_ternary_ntt ctx rng basis =
  let s = Sampling.ternary rng ctx.params.n in
  Rq.to_ntt ctx.rq (Rq.of_centered_coeffs ctx.rq basis s)

(* --- key generation --- *)

let keygen_kswitch ctx rng (sk : secret_key) (target : Rq.t) : kswitch_key =
  let basis = full_basis ctx in
  let primes = Rq.ctx_primes ctx.rq in
  let n = ctx.params.n in
  let pairs =
    Array.init (digit_count ctx.num_coeff) (fun j ->
        let a = sample_uniform_ntt ctx rng basis in
        let e = sample_gaussian ctx rng basis in
        (* w_j * s': P mod q_i on digit j's components, zero on the others
           (the full basis is the identity index list, so slot = prime) *)
        let comps =
          Array.map
            (fun i ->
              let w = Rvec.zeroed n in
              if i < ctx.num_coeff && i / 2 = j then
                Rvec.scalar_mul_into w (Rq.raw_comp target i) (special_mod ctx primes.(i)) primes.(i);
              w)
            basis
        in
        let w_target = Rq.unsafe_of_bufs ~basis:(Array.copy basis) ~comps ~ntt:true in
        let b = Rq.add ctx.rq (Rq.sub ctx.rq e (Rq.mul ctx.rq a sk.s)) w_target in
        (b, a))
  in
  { pairs }

let keygen ctx rng =
  let basis_full = full_basis ctx in
  let sk = { s = sample_ternary_ntt ctx rng basis_full } in
  let top = basis_of_level ctx.num_coeff in
  let s_top = Rq.subset sk.s top in
  let a = sample_uniform_ntt ctx rng top in
  let e = sample_gaussian ctx rng top in
  let pk0 = Rq.add ctx.rq (Rq.neg ctx.rq (Rq.mul ctx.rq a s_top)) e in
  let s_sq = Rq.mul ctx.rq sk.s sk.s in
  let relin = keygen_kswitch ctx rng sk s_sq in
  (sk, { public = { pk0; pk1 = a }; relin; rotation = Hashtbl.create 16 })

let galois_of_rotation ctx r = Encoding.galois_element ctx.enc r

let add_rotation_key ctx rng sk keys r =
  let g = galois_of_rotation ctx r in
  if not (Hashtbl.mem keys.rotation g) then begin
    Hashtbl.replace keys.rotation g (keygen_kswitch ctx rng sk (Rq.automorphism_ntt ctx.rq sk.s ~g))
  end

let add_power_of_two_rotation_keys ctx rng sk keys =
  let slots = slot_count ctx in
  let k = ref 1 in
  while !k < slots do
    add_rotation_key ctx rng sk keys !k;
    add_rotation_key ctx rng sk keys (slots - !k) (* right rotation by k *);
    k := !k lsl 1
  done

let rotation_key_count keys = Hashtbl.length keys.rotation

let key_bytes keys =
  let poly p =
    let bytes = ref 0 in
    Array.iteri
      (fun k _ -> bytes := !bytes + Bigarray.Array1.size_in_bytes (Rq.raw_comp p k))
      (Rq.basis p);
    !bytes
  in
  let key k = Array.fold_left (fun acc (b, a) -> acc + poly b + poly a) 0 k.pairs in
  Hashtbl.fold (fun _ k acc -> acc + key k) keys.rotation (key keys.relin)

(* --- encoding --- *)

let encode ctx ~level ~scale (z : Complexv.t) =
  if level < 1 || level > ctx.num_coeff then
    err ~op:"encode"
      (Herr.Invalid_op
         { reason = Printf.sprintf "level %d outside [1, %d]" level ctx.num_coeff });
  let coeffs = Encoding.encode ctx.enc ~scale ~re:z.Complexv.re ~im:z.Complexv.im in
  let ints =
    Array.map
      (fun c ->
        if Float.abs c > 4.0e18 then
          err ~op:"encode"
            (Herr.Numeric_blowup { slot = -1; value = c })
            (* coefficient overflow: scale too large for the message *);
        int_of_float (Float.round c))
      coeffs
  in
  let poly = Rq.to_ntt ctx.rq (Rq.of_centered_coeffs ctx.rq (basis_of_level level) ints) in
  { poly; pt_scale = scale; pt_level = level }

let encode_real ctx ~level ~scale values = encode ctx ~level ~scale (Complexv.of_real values)

let decode ctx pt =
  let coeffs = Rq.to_centered_bigint_coeffs ctx.rq (Rq.from_ntt ctx.rq pt.poly) in
  let floats = Array.map Bigint.to_float coeffs in
  let re, im = Encoding.decode ctx.enc ~scale:pt.pt_scale floats in
  Complexv.of_complex re im

(* --- encryption --- *)

let encrypt ctx rng (pk : public_key) pt =
  if pt.pt_level <> ctx.num_coeff then
    err ~op:"encrypt" (Herr.Level_mismatch { expected = ctx.num_coeff; got = pt.pt_level });
  let basis = basis_of_level ctx.num_coeff in
  let u = sample_ternary_ntt ctx rng basis in
  let e0 = sample_gaussian ctx rng basis in
  let e1 = sample_gaussian ctx rng basis in
  let c0 = Rq.add ctx.rq (Rq.add ctx.rq (Rq.mul ctx.rq pk.pk0 u) e0) pt.poly in
  let c1 = Rq.add ctx.rq (Rq.mul ctx.rq pk.pk1 u) e1 in
  { c0; c1; level = ctx.num_coeff; scale = pt.pt_scale }

let decrypt ctx sk ct =
  let s_l = Rq.subset sk.s (basis_of_level ct.level) in
  let m = Rq.add ctx.rq ct.c0 (Rq.mul ctx.rq ct.c1 s_l) in
  { poly = m; pt_scale = ct.scale; pt_level = ct.level }

(* --- arithmetic --- *)

(* kernels equalise scales only approximately (integer mask factors, RNS
   rescaling drift); [Herr.scale_tolerance] relative slack admits value
   error well below the scheme noise floor *)
let scales_compatible = Herr.scales_compatible

let check_binop op a b =
  if a.level <> b.level then err ~op (Herr.Level_mismatch { expected = a.level; got = b.level });
  if not (scales_compatible a.scale b.scale) then
    err ~op (Herr.Scale_mismatch { expected = a.scale; got = b.scale })

let add ctx a b =
  check_binop "add" a b;
  { a with c0 = Rq.add ctx.rq a.c0 b.c0; c1 = Rq.add ctx.rq a.c1 b.c1 }

let sub ctx a b =
  check_binop "sub" a b;
  { a with c0 = Rq.sub ctx.rq a.c0 b.c0; c1 = Rq.sub ctx.rq a.c1 b.c1 }

let negate ctx a = { a with c0 = Rq.neg ctx.rq a.c0; c1 = Rq.neg ctx.rq a.c1 }

let check_plain op ct pt =
  if ct.level <> pt.pt_level then
    err ~op (Herr.Level_mismatch { expected = ct.level; got = pt.pt_level })

let add_plain ctx ct pt =
  check_plain "add_plain" ct pt;
  if not (scales_compatible ct.scale pt.pt_scale) then
    err ~op:"add_plain" (Herr.Scale_mismatch { expected = ct.scale; got = pt.pt_scale });
  { ct with c0 = Rq.add ctx.rq ct.c0 pt.poly }

let sub_plain ctx ct pt =
  check_plain "sub_plain" ct pt;
  if not (scales_compatible ct.scale pt.pt_scale) then
    err ~op:"sub_plain" (Herr.Scale_mismatch { expected = ct.scale; got = pt.pt_scale });
  { ct with c0 = Rq.sub ctx.rq ct.c0 pt.poly }

let mul_plain ctx ct pt =
  check_plain "mul_plain" ct pt;
  {
    ct with
    c0 = Rq.mul ctx.rq ct.c0 pt.poly;
    c1 = Rq.mul ctx.rq ct.c1 pt.poly;
    scale = ct.scale *. pt.pt_scale;
  }

let mul_scalar ctx ct x ~scale =
  let s = int_of_float (Float.round (x *. scale)) in
  {
    ct with
    c0 = Rq.mul_scalar ctx.rq ct.c0 s;
    c1 = Rq.mul_scalar ctx.rq ct.c1 s;
    scale = ct.scale *. scale;
  }

let add_scalar ctx ct x =
  let c = int_of_float (Float.round (x *. ct.scale)) in
  let const = Array.make ctx.params.n 0 in
  const.(0) <- c;
  let p = Rq.to_ntt ctx.rq (Rq.of_centered_coeffs ctx.rq (basis_of_level ct.level) const) in
  { ct with c0 = Rq.add ctx.rq ct.c0 p }

(* --- key switching --- *)

(* Divide an NTT-form accumulator over the level-l key basis (both special
   primes last) by P = p_0*p_1, rounding, in the NTT domain and in place.
   Only the two special channels go through an INTT; the exact centered
   lift of [acc]_P is reduced into each chain prime and NTT'd there, then
   subtracted and divided out. Every step is exact modular arithmetic and
   the NTT is linear, so the result is bit for bit the coefficient-domain
   rounded division — at [level + 2] transforms instead of [2·level + 2]. *)
let mod_down ctx level (acc : Rvec.buf array) =
  let n = ctx.params.n in
  let primes = Rq.ctx_primes ctx.rq in
  let l0 = ctx.num_coeff and l1 = ctx.num_coeff + 1 in
  let lo = acc.(level) and hi = acc.(level + 1) in
  Kpool.run 2 (fun k ->
      Ntt.inverse_buf (Rq.raw_ntt_table ctx.rq (l0 + k)) (if k = 0 then lo else hi));
  Kpool.run level (fun j ->
      let q = primes.(j) in
      let d = Rvec.create n in
      Rvec.lift_pair_centered_into d lo hi ~q_lo:primes.(l0) ~q_hi:primes.(l1) q;
      Ntt.forward_buf (Rq.raw_ntt_table ctx.rq j) d;
      Rvec.sub_into acc.(j) acc.(j) d q;
      Rvec.scalar_mul_into acc.(j) acc.(j) (Modarith.inv_mod (special_mod ctx q) q) q);
  Rq.unsafe_of_bufs ~basis:(basis_of_level level) ~comps:(Array.sub acc 0 level) ~ntt:true

(* The inner loop of every mul / rotation: for each key-basis channel, take
   every digit's NTT form there and accumulate digit_j * (b_j, a_j). That is
   ⌈level/2⌉ · (level+2) products per component, fanned out across {!Kpool}
   domains per key-basis channel (channels are independent: channel [jk]
   only touches its own acc/tmp buffers).

   [digit jk j tmp] returns digit [j] in NTT form over key-basis channel
   [jk], using [tmp] (channel-private) as scratch: {!keyswitch} computes it
   on the fly, the hoisted rotations of {!rotate_many} permute a digit
   decomposed once for every amount. *)
let keyswitch_with ctx level (key : kswitch_key) digit : Rq.t * Rq.t =
  let kb = key_basis ctx level in
  let nb = Array.length kb in
  let n = ctx.params.n in
  let primes = Rq.ctx_primes ctx.rq in
  let acc0 = Array.init nb (fun _ -> Rvec.zeroed n) in
  let acc1 = Array.init nb (fun _ -> Rvec.zeroed n) in
  Kpool.run nb (fun jk ->
      (* the keys span the full basis, whose slots are the prime indices *)
      let slot = kb.(jk) in
      let pj = primes.(slot) in
      let tmp = Rvec.create n in
      let a0 = acc0.(jk) and a1 = acc1.(jk) in
      for j = 0 to digit_count level - 1 do
        let d = digit jk j tmp in
        let b_j, a_j = key.pairs.(j) in
        Rvec.pointwise_mac_into a0 d (Rq.raw_comp b_j slot) pj;
        Rvec.pointwise_mac_into a1 d (Rq.raw_comp a_j slot) pj
      done);
  (mod_down ctx level acc0, mod_down ctx level acc1)

(* digit [j]'s own channels are the NTT-form input itself: its centered
   value is congruent to the input modulo each of the digit's primes *)
let own_channel level jk j = jk < level && jk / 2 = j

(* digit [j] of [dc] (coefficient form, level [level]) lifted exactly to its
   centered value and reduced into key-basis channel [jk], then NTT'd *)
let lift_digit ctx kb level dc jk j tmp =
  let primes = Rq.ctx_primes ctx.rq in
  let q = primes.(kb.(jk)) and lo = 2 * j in
  if lo + 1 < level then
    Rvec.lift_pair_centered_into tmp (Rq.raw_comp dc lo) (Rq.raw_comp dc (lo + 1))
      ~q_lo:primes.(lo) ~q_hi:primes.(lo + 1) q
  else Rvec.lift_centered_into tmp (Rq.raw_comp dc lo) ~from:primes.(lo) q;
  Ntt.forward_buf (Rq.raw_ntt_table ctx.rq kb.(jk)) tmp;
  tmp

(* key switch of the NTT-form level-[level] polynomial [d] *)
let keyswitch ctx level (d : Rq.t) (key : kswitch_key) : Rq.t * Rq.t =
  let kb = key_basis ctx level in
  let dc = Rq.from_ntt ctx.rq d in
  keyswitch_with ctx level key (fun jk j tmp ->
      if own_channel level jk j then Rq.raw_comp d jk else lift_digit ctx kb level dc jk j tmp)

let mul ctx keys a b =
  if a.level <> b.level then err ~op:"mul" (Herr.Level_mismatch { expected = a.level; got = b.level });
  let d0 = Rq.mul ctx.rq a.c0 b.c0 in
  let d1 = Rq.add ctx.rq (Rq.mul ctx.rq a.c0 b.c1) (Rq.mul ctx.rq a.c1 b.c0) in
  let d2 = Rq.mul ctx.rq a.c1 b.c1 in
  let k0, k1 = keyswitch ctx a.level d2 keys.relin in
  { c0 = Rq.add ctx.rq d0 k0; c1 = Rq.add ctx.rq d1 k1; level = a.level; scale = a.scale *. b.scale }

(* --- rescaling --- *)

let max_rescale ctx ct ub = Modulus.max_rescale ctx.chain (Modulus.Rns_level ct.level) ub

(* the rule picks the target level; each dropped prime divides the scale in
   turn, from the end of the chain *)
let rescale ctx ct x =
  let target =
    Modulus.count (Modulus.rescale ~backend:"rns_ckks" ctx.chain (Modulus.Rns_level ct.level) x)
  in
  if target = ct.level then ct
  else begin
    let primes = Rq.ctx_primes ctx.rq in
    let c0 = ref (Rq.from_ntt ctx.rq ct.c0) and c1 = ref (Rq.from_ntt ctx.rq ct.c1) in
    let scale = ref ct.scale in
    for l = ct.level downto target + 1 do
      c0 := Rq.drop_last ctx.rq !c0 ~rounded:true;
      c1 := Rq.drop_last ctx.rq !c1 ~rounded:true;
      scale := !scale /. float_of_int primes.(l - 1)
    done;
    { c0 = Rq.to_ntt ctx.rq !c0; c1 = Rq.to_ntt ctx.rq !c1; level = target; scale = !scale }
  end

let mod_switch_to_level ctx ct target =
  if target > ct.level then
    err ~op:"mod_switch_to_level" (Herr.Level_mismatch { expected = ct.level; got = target });
  if target < 1 then
    err ~op:"mod_switch_to_level"
      (Herr.Invalid_op { reason = Printf.sprintf "target level must be >= 1, got %d" target });
  if target = ct.level then ct
  else begin
    let c0 = ref (Rq.from_ntt ctx.rq ct.c0) and c1 = ref (Rq.from_ntt ctx.rq ct.c1) in
    for _ = target + 1 to ct.level do
      c0 := Rq.drop_last ctx.rq !c0 ~rounded:false;
      c1 := Rq.drop_last ctx.rq !c1 ~rounded:false
    done;
    { ct with c0 = Rq.to_ntt ctx.rq !c0; c1 = Rq.to_ntt ctx.rq !c1; level = target }
  end

(* --- rotation --- *)

let rotation_key ~amount keys g =
  match Hashtbl.find_opt keys.rotation g with
  | Some k -> k
  | None -> err ~op:"rotate" (Herr.Missing_rotation_key { amount })

(* The automorphism permutes NTT positions, so both components stay in NTT
   form; the key switch sees the same c1 polynomial as it would through the
   coefficient domain, so the result is bit-identical to that route. *)
let apply_galois ?(amount = 0) ctx keys ct g =
  let key = rotation_key ~amount keys g in
  let c0 = Rq.automorphism_ntt ctx.rq ct.c0 ~g in
  let k0, k1 = keyswitch ctx ct.level (Rq.automorphism_ntt ctx.rq ct.c1 ~g) key in
  { ct with c0 = Rq.add ctx.rq c0 k0; c1 = k1 }

let rotate ctx keys ct r =
  let slots = slot_count ctx in
  let r = ((r mod slots) + slots) mod slots in
  if r = 0 then ct
  else begin
    let g = galois_of_rotation ctx r in
    if Hashtbl.mem keys.rotation g then apply_galois ~amount:r ctx keys ct g
    else begin
      (* fall back to power-of-two decomposition (the scheme default) *)
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

(* Hoisted rotations (Halevi–Shoup 2018): the digit decomposition of c1 —
   one INTT, then ⌈level/2⌉·(level+2) − level NTTs — does not depend on the
   amount. The automorphism is a signed permutation of coefficients and the
   centered lift commutes with negation, so it commutes with the
   decomposition: it is applied afterwards, as an NTT-position permutation
   of the decomposed digits. Each amount then costs only its permutations,
   the inner product with its key and the mod-down, and its result is bit
   for bit {!rotate}'s. *)
let rotate_many ctx keys ct amounts =
  let slots = slot_count ctx in
  let norm r = ((r mod slots) + slots) mod slots in
  let amounts = Array.map norm amounts in
  let hoistable r = r <> 0 && Hashtbl.mem keys.rotation (galois_of_rotation ctx r) in
  let direct = Array.fold_left (fun acc r -> if hoistable r then acc + 1 else acc) 0 amounts in
  if direct < 2 then Array.map (rotate ctx keys ct) amounts
  else begin
    let level = ct.level in
    let n = ctx.params.n in
    let kb = key_basis ctx level in
    let dc = Rq.from_ntt ctx.rq ct.c1 in
    let digits = Array.make (Array.length kb) [||] in
    Kpool.run (Array.length kb) (fun jk ->
        digits.(jk) <-
          Array.init (digit_count level) (fun j ->
              if own_channel level jk j then Rq.raw_comp ct.c1 jk
              else lift_digit ctx kb level dc jk j (Rvec.create n)));
    Array.map
      (fun r ->
        if not (hoistable r) then rotate ctx keys ct r
        else begin
          let g = galois_of_rotation ctx r in
          let key = rotation_key ~amount:r keys g in
          let index = Encoding.ntt_automorphism_index ~n ~g in
          let k0, k1 =
            keyswitch_with ctx level key (fun jk j tmp ->
                Rvec.permute_into tmp digits.(jk).(j) index;
                tmp)
          in
          { ct with c0 = Rq.add ctx.rq (Rq.automorphism_ntt ctx.rq ct.c0 ~g) k0; c1 = k1 }
        end)
      amounts
  end

let rotate_key_available keys ctx r =
  let g = galois_of_rotation ctx r in
  Hashtbl.mem keys.rotation g

let public_key_parts pk = (pk.pk0, pk.pk1)
let public_key_of_parts (pk0, pk1) = { pk0; pk1 }
let kswitch_pairs k = k.pairs
let kswitch_of_pairs pairs = { pairs }

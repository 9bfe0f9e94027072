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
     yields d*s' + small noise mod Q;
   - a ciphertext is settled (over the chain prefix) or unsettled: a
     hoisted rotation before its mod-down, over the key basis, decrypting
     to P times its message. Sums and scalar products of unsettled
     ciphertexts stay unsettled, so a sum of rotations pays one mod-down;
     every other op settles its operands first (DESIGN.md §15);
   - [add], [fma_scalar] and [fma_plain] return a pending sum: the terms,
     not yet added. The first op that reads the polynomials materialises
     it in one pass per channel over all terms, into a settled or
     unsettled ciphertext, once. *)

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
  p_mod : int array;  (** P mod q_i for every chain prime: lifts a settled term to the key basis *)
  identity : int array;  (** the identity permutation of [n] positions *)
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
  let p_mod = Array.map (fun q -> Modarith.mul_mod (primes.(0) mod q) (primes.(1) mod q) q) chain in
  {
    params;
    rq = Rq.make_ctx ~n:params.n ~primes:all;
    enc = Encoding.make ~n:params.n;
    num_coeff = params.num_coeff_primes;
    chain = Modulus.Rns_chain chain;
    p_mod;
    identity = Array.init params.n Fun.id;
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

type secret_key = { s : Rq.t (* full basis, NTT *) }
type public_key = { pk0 : Rq.t; pk1 : Rq.t (* top-level basis, NTT *) }
type kswitch_key = { pairs : (Rq.t * Rq.t) array (* one per digit; full basis, NTT *) }

(* a rotation's key switch and the NTT-position permutation of its Galois
   element, built once where the key is generated or loaded *)
type rotation_key = { ks : kswitch_key; perm : int array }

type keys = {
  public : public_key;
  relin : kswitch_key;
  rotation : (int, rotation_key) Hashtbl.t;
}

type plaintext = { poly : Rq.t; pt_scale : float; pt_level : int }

(* [c0], [c1] span the chain prefix when [Settled] and the key basis of
   [level] when [Unsettled]; an unsettled ciphertext memoises its settled
   form. A [Pending] sum is replaced, in place, by the ciphertext its terms
   add up to the first time its polynomials are read. *)
type ciphertext = { level : int; scale : float; mutable body : body }

and body =
  | Settled of { c0 : Rq.t; c1 : Rq.t }
  | Unsettled of { c0 : Rq.t; c1 : Rq.t; ctx : context; mutable settled : ciphertext option }
  | Pending of { ctx : context; terms : term list }

(* [Scaled (x, s)] is s·x for a settled or unsettled [x]; [Product (x, p)]
   is x·p for a settled [x] *)
and term = Scaled of ciphertext * int | Product of ciphertext * plaintext

let of_parts ~c0 ~c1 ~level ~scale = { level; scale; body = Settled { c0; c1 } }

let unsettled ctx ~c0 ~c1 ~level ~scale =
  { level; scale; body = Unsettled { c0; c1; ctx; settled = None } }

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
                Rvec.scalar_mul_into w (Rq.raw_comp target i) ctx.p_mod.(i) primes.(i);
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

let rotation_key_of rq ~galois ks =
  { ks; perm = Encoding.ntt_automorphism_index ~n:(Rq.ctx_n rq) ~g:galois }

let rotation_kswitch k = k.ks

let add_rotation_key ctx rng sk keys r =
  let g = galois_of_rotation ctx r in
  if not (Hashtbl.mem keys.rotation g) then begin
    let perm = Encoding.ntt_automorphism_index ~n:ctx.params.n ~g in
    let ks = keygen_kswitch ctx rng sk (Rq.automorphism_ntt ctx.rq sk.s ~perm) in
    Hashtbl.replace keys.rotation g { ks; perm }
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
  Hashtbl.fold (fun _ k acc -> acc + key k.ks) keys.rotation (key keys.relin)

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

(* --- settling --- *)

(* the key switch's mod-down: divide a key-basis polynomial by P, rounding *)
let mod_down ctx u = Rq.div_round_ntt ctx.rq u ~drop:2

(* A polynomial over [basis] (NTT form) whose channel [k] is [f k p], [p]
   its prime; a channel may return an operand's buffer unchanged, since
   residue buffers are never written after construction. *)
let build ctx basis f =
  let primes = Rq.ctx_primes ctx.rq in
  let comps = Array.make (Array.length basis) (Rvec.create 0) in
  Kpool.run (Array.length basis) (fun k -> comps.(k) <- f k primes.(basis.(k)));
  Rq.unsafe_of_bufs ~basis ~comps ~ntt:true

let rec is_settled ct =
  match ct.body with
  | Settled _ -> true
  | Unsettled _ -> false
  | Pending { terms; _ } ->
      List.for_all (function Scaled (x, _) -> is_settled x | Product _ -> true) terms

(* the components of a settled or unsettled ciphertext, over the key basis
   when it is unsettled *)
let parts ct =
  match ct.body with
  | Settled { c0; c1 } | Unsettled { c0; c1; _ } -> (c0, c1)
  | Pending _ -> invalid_arg "Rns_ckks.parts: pending sum"

(* One pass per channel over every term ({!Rvec.sum_into}); no term is
   itself pending. The sum lives in the key basis when any term is
   unsettled: a settled term then enters times P on the chain channels and
   as zero on the special ones, which folds [P mod q_k] into its scalar, or
   into the one [lift] of all the products. Every channel is a canonical
   residue of the same integer as a chain of two-operand passes would
   leave, so this is that chain's result bit for bit. *)
let sum_terms ctx ~level terms =
  let scaled =
    List.filter_map
      (function Scaled (x, s) -> Some (parts x, is_settled x, s) | Product _ -> None)
      terms
  in
  let products =
    Array.of_list
      (List.filter_map
         (function Product (x, pt) -> Some (parts x, pt.poly) | Scaled _ -> None)
         terms)
  in
  let lifted = List.exists (fun (_, settled, _) -> not settled) scaled in
  let basis = if lifted then key_basis ctx level else basis_of_level level in
  let component part =
    build ctx basis (fun k p ->
        let special = k >= level in
        let lift = if lifted && not special then ctx.p_mod.(k) else 1 in
        let scaled = List.filter (fun (_, settled, _) -> not (special && settled)) scaled in
        let products = if special then [||] else products in
        let vs = Array.of_list (List.map (fun (x, _, _) -> Rq.raw_comp (part x) k) scaled) in
        let ws =
          Array.of_list
            (List.map
               (fun (_, settled, s) ->
                 Modarith.mul_mod (Modarith.reduce s p) (if settled then lift else 1) p)
               scaled)
        in
        if Array.length products = 0 && ws = [| 1 |] then vs.(0)
        else begin
          let dst = Rvec.create ctx.params.n in
          Rvec.sum_into dst vs ws
            (Array.map (fun (x, _) -> Rq.raw_comp (part x) k) products)
            (Array.map (fun (_, poly) -> Rq.raw_comp poly k) products)
            ~lift p;
          dst
        end)
  in
  (lifted, component fst, component snd)

(* a pending sum is computed once and replaces its terms *)
let materialise ct =
  (match ct.body with
  | Pending { ctx; terms } ->
      let lifted, c0, c1 = sum_terms ctx ~level:ct.level terms in
      ct.body <-
        (if lifted then Unsettled { c0; c1; ctx; settled = None } else Settled { c0; c1 })
  | Settled _ | Unsettled _ -> ());
  ct

let is_pending ct = match ct.body with Pending _ -> true | Settled _ | Unsettled _ -> false
let components ct = parts (materialise ct)

(* One mod-down per component, memoised: a rotation read by many consumers
   settles once. For a hoisted rotation (P·σ(c0) + u0, u1) the rounded
   division gives σ(c0) + (u0 − [u0]_P)/P, which is {!rotate}'s result. *)
let settle ct =
  match (materialise ct).body with
  | Settled _ -> ct
  | Unsettled ({ c0; c1; ctx; settled } as memo) -> (
      match settled with
      | Some s -> s
      | None ->
          let s =
            of_parts ~c0:(mod_down ctx c0) ~c1:(mod_down ctx c1) ~level:ct.level ~scale:ct.scale
          in
          memo.settled <- Some s;
          s)
  | Pending _ -> assert false

(* the components of the settled form *)
let settled_parts ct = components (settle ct)

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
  of_parts ~c0 ~c1 ~level:ctx.num_coeff ~scale:pt.pt_scale

let decrypt ctx sk ct =
  let c0, c1 = settled_parts ct in
  let s_l = Rq.subset sk.s (basis_of_level ct.level) in
  let m = Rq.add ctx.rq c0 (Rq.mul ctx.rq c1 s_l) in
  { poly = m; pt_scale = ct.scale; pt_level = ct.level }

(* --- arithmetic --- *)

(* kernels equalise scales only approximately (integer mask factors, RNS
   rescaling drift); [Herr.scale_tolerance] relative slack admits value
   error well below the scheme noise floor *)
let scales_compatible = Herr.scales_compatible

(* [add]'s checks against an addend of the given level and scale *)
let check_add op a ~level ~scale =
  if a.level <> level then err ~op (Herr.Level_mismatch { expected = a.level; got = level });
  if not (scales_compatible a.scale scale) then
    err ~op (Herr.Scale_mismatch { expected = a.scale; got = scale })

(* a pending sum: [a]'s terms and [more] *)
let terms_of ct = match ct.body with Pending { terms; _ } -> terms | _ -> [ Scaled (ct, 1) ]
let pending ctx a more = { a with body = Pending { ctx; terms = more @ terms_of a } }

let add ctx a b =
  check_add "add" a ~level:b.level ~scale:b.scale;
  pending ctx a (terms_of b)

let check_plain op ct pt =
  if ct.level <> pt.pt_level then
    err ~op (Herr.Level_mismatch { expected = ct.level; got = pt.pt_level })

let add_plain ctx ct pt =
  check_plain "add_plain" ct pt;
  if not (scales_compatible ct.scale pt.pt_scale) then
    err ~op:"add_plain" (Herr.Scale_mismatch { expected = ct.scale; got = pt.pt_scale });
  let c0, c1 = settled_parts ct in
  of_parts ~c0:(Rq.add ctx.rq c0 pt.poly) ~c1 ~level:ct.level ~scale:ct.scale

let mul_plain ctx ct pt =
  check_plain "mul_plain" ct pt;
  let c0, c1 = settled_parts ct in
  of_parts ~c0:(Rq.mul ctx.rq c0 pt.poly) ~c1:(Rq.mul ctx.rq c1 pt.poly) ~level:ct.level
    ~scale:(ct.scale *. pt.pt_scale)

let scalar_of x ~scale = int_of_float (Float.round (x *. scale))

(* either form: a scalar multiplies every key-basis channel alike *)
let mul_scalar ctx ct x ~scale =
  let s = scalar_of x ~scale in
  let c0, c1 = components ct in
  let c0 = Rq.mul_scalar ctx.rq c0 s and c1 = Rq.mul_scalar ctx.rq c1 s in
  let scale = ct.scale *. scale in
  if is_settled ct then of_parts ~c0 ~c1 ~level:ct.level ~scale
  else unsettled ctx ~c0 ~c1 ~level:ct.level ~scale

let fma_scalar ctx acc x w ~scale =
  check_add "add" acc ~level:x.level ~scale:(x.scale *. scale);
  pending ctx acc [ Scaled (materialise x, scalar_of w ~scale) ]

let fma_plain ctx acc x pt =
  check_plain "mul_plain" x pt;
  check_add "add" acc ~level:x.level ~scale:(x.scale *. pt.pt_scale);
  pending ctx acc [ Product (settle x, pt) ]

let add_scalar ctx ct x =
  let c = int_of_float (Float.round (x *. ct.scale)) in
  let const = Array.make ctx.params.n 0 in
  const.(0) <- c;
  let p = Rq.to_ntt ctx.rq (Rq.of_centered_coeffs ctx.rq (basis_of_level ct.level) const) in
  let c0, c1 = settled_parts ct in
  of_parts ~c0:(Rq.add ctx.rq c0 p) ~c1 ~level:ct.level ~scale:ct.scale

(* --- key switching --- *)

(* digit [j]'s own channels are the NTT-form input itself: its centered
   value is congruent to the input modulo each of the digit's primes *)
let own_channel level jk j = jk < level && jk / 2 = j

(* The digit decomposition of the NTT-form level-[level] polynomial [d]:
   a function from key-basis channel [jk] to the ⌈level/2⌉ digits in NTT
   form over that channel. [d] goes through one INTT; each two-prime
   digit's Garner digit is computed once per coefficient, and every
   channel only reduces it into its prime and transforms it. *)
let decompose ctx level (d : Rq.t) =
  let kb = key_basis ctx level in
  let primes = Rq.ctx_primes ctx.rq in
  let n = ctx.params.n in
  let dc = Rq.from_ntt ctx.rq d in
  let garner = Array.make (digit_count level) None in
  Kpool.run (digit_count level) (fun j ->
      let lo = 2 * j in
      if lo + 1 < level then begin
        let g = Rvec.create n in
        Rvec.garner_digit_into g (Rq.raw_comp dc lo) (Rq.raw_comp dc (lo + 1)) ~q_lo:primes.(lo)
          ~q_hi:primes.(lo + 1);
        garner.(j) <- Some g
      end);
  fun jk ->
    Array.init (digit_count level) (fun j ->
        if own_channel level jk j then Rq.raw_comp d jk
        else begin
          let q = primes.(kb.(jk)) and lo = 2 * j in
          let dst = Rvec.create n in
          (match garner.(j) with
          | Some g ->
              Rvec.lift_garner_into dst (Rq.raw_comp dc lo) g ~q_lo:primes.(lo) ~q_hi:primes.(lo + 1) q
          | None -> Rvec.lift_centered_into dst (Rq.raw_comp dc lo) ~from:primes.(lo) q);
          Ntt.forward_buf (Rq.raw_ntt_table ctx.rq kb.(jk)) dst;
          dst
        end)

(* The inner loop of every mul / rotation: over each key-basis channel,
   Σ_j digit_j · (b_j, a_j) in one pass (Rvec.inner_product_into), fanned
   out across {!Kpool} domains per channel. [digits jk] gives channel
   [jk]'s digits in NTT form, read through the NTT-position permutation
   [index]. The result is the key switch before its mod-down: two
   polynomials over the key basis. *)
let inner_product ctx level (key : kswitch_key) ~index digits =
  let kb = key_basis ctx level in
  let nb = Array.length kb in
  let primes = Rq.ctx_primes ctx.rq in
  let acc0 = Array.init nb (fun _ -> Rvec.create ctx.params.n) in
  let acc1 = Array.init nb (fun _ -> Rvec.create ctx.params.n) in
  Kpool.run nb (fun jk ->
      (* the keys span the full basis, whose slots are the prime indices *)
      let slot = kb.(jk) in
      let part f = Array.init (digit_count level) (fun j -> Rq.raw_comp (f key.pairs.(j)) slot) in
      Rvec.inner_product_into acc0.(jk) acc1.(jk) (digits jk) (part fst) (part snd) index
        primes.(slot));
  (acc0, acc1)

let of_key_basis ctx level comps = Rq.unsafe_of_bufs ~basis:(key_basis ctx level) ~comps ~ntt:true

(* key switch of the NTT-form level-[level] polynomial [d] *)
let keyswitch ctx level (d : Rq.t) (key : kswitch_key) : Rq.t * Rq.t =
  let u0, u1 = inner_product ctx level key ~index:ctx.identity (decompose ctx level d) in
  (mod_down ctx (of_key_basis ctx level u0), mod_down ctx (of_key_basis ctx level u1))

let mul ctx keys a b =
  if a.level <> b.level then err ~op:"mul" (Herr.Level_mismatch { expected = a.level; got = b.level });
  let a0, a1 = settled_parts a and b0, b1 = settled_parts b in
  let d0 = Rq.mul ctx.rq a0 b0 in
  let d1 = Rq.add ctx.rq (Rq.mul ctx.rq a0 b1) (Rq.mul ctx.rq a1 b0) in
  let d2 = Rq.mul ctx.rq a1 b1 in
  let k0, k1 = keyswitch ctx a.level d2 keys.relin in
  of_parts ~c0:(Rq.add ctx.rq d0 k0) ~c1:(Rq.add ctx.rq d1 k1) ~level:a.level ~scale:(a.scale *. b.scale)

(* --- rescaling --- *)

let max_rescale ctx ct ub = Modulus.max_rescale ctx.chain (Modulus.Rns_level ct.level) ub

(* the rule picks the target level; each dropped prime divides the scale in
   turn, from the end of the chain, in the NTT domain *)
let rescale ctx ct x =
  let target =
    Modulus.count (Modulus.rescale ~backend:"rns_ckks" ctx.chain (Modulus.Rns_level ct.level) x)
  in
  if target = ct.level then ct
  else begin
    let primes = Rq.ctx_primes ctx.rq in
    let c0, c1 = settled_parts ct in
    let c0 = ref c0 and c1 = ref c1 and scale = ref ct.scale in
    for l = ct.level downto target + 1 do
      c0 := Rq.div_round_ntt ctx.rq !c0 ~drop:1;
      c1 := Rq.div_round_ntt ctx.rq !c1 ~drop:1;
      scale := !scale /. float_of_int primes.(l - 1)
    done;
    of_parts ~c0:!c0 ~c1:!c1 ~level:target ~scale:!scale
  end

let mod_switch_to_level _ctx ct target =
  if target > ct.level then
    err ~op:"mod_switch_to_level" (Herr.Level_mismatch { expected = ct.level; got = target });
  if target < 1 then
    err ~op:"mod_switch_to_level"
      (Herr.Invalid_op { reason = Printf.sprintf "target level must be >= 1, got %d" target });
  if target = ct.level then ct
  else begin
    let c0, c1 = settled_parts ct in
    of_parts ~c0:(Rq.truncate c0 target) ~c1:(Rq.truncate c1 target) ~level:target ~scale:ct.scale
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
  let { ks; perm } = rotation_key ~amount keys g in
  let c0, c1 = settled_parts ct in
  let k0, k1 = keyswitch ctx ct.level (Rq.automorphism_ntt ctx.rq c1 ~perm) ks in
  of_parts ~c0:(Rq.add ctx.rq (Rq.automorphism_ntt ctx.rq c0 ~perm) k0) ~c1:k1 ~level:ct.level
    ~scale:ct.scale

let rotate ctx keys ct r =
  let slots = slot_count ctx in
  let r = ((r mod slots) + slots) mod slots in
  if r = 0 then ct
  else begin
    let ct = settle ct in
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

(* Hoisted rotations (Halevi–Shoup 2018): the digit decomposition of c1
   does not depend on the amount. The automorphism is a signed permutation
   of coefficients and the centered lift commutes with negation, so it
   commutes with the decomposition: it is applied afterwards, as an
   NTT-position permutation of the decomposed digits, which the inner
   product reads them through. Each amount then costs only that inner
   product with its key, and is
   returned unsettled, as (P·σ(c0) + u0, u1) over the key basis: its
   mod-down waits for the op that needs it, so a sum of amounts pays one.
   Settled, it is bit for bit {!rotate}'s result. *)
let rotate_many ctx keys ct amounts =
  let slots = slot_count ctx in
  let norm r = ((r mod slots) + slots) mod slots in
  let amounts = Array.map norm amounts in
  let hoistable r = r <> 0 && Hashtbl.mem keys.rotation (galois_of_rotation ctx r) in
  let direct = Array.fold_left (fun acc r -> if hoistable r then acc + 1 else acc) 0 amounts in
  let ct = settle ct in
  if direct < 2 then Array.map (rotate ctx keys ct) amounts
  else begin
    let level = ct.level in
    let primes = Rq.ctx_primes ctx.rq in
    let c0, c1 = components ct in
    let decomposed = decompose ctx level c1 in
    let digits = Array.make (level + 2) [||] in
    Kpool.run (level + 2) (fun jk -> digits.(jk) <- decomposed jk);
    Array.map
      (fun r ->
        if not (hoistable r) then rotate ctx keys ct r
        else begin
          let { ks; perm } = rotation_key ~amount:r keys (galois_of_rotation ctx r) in
          let u0, u1 = inner_product ctx level ks ~index:perm (Array.get digits) in
          let c0 = Rq.automorphism_ntt ctx.rq c0 ~perm in
          Kpool.run level (fun j ->
              Rvec.scalar_mac_into u0.(j) u0.(j) (Rq.raw_comp c0 j) ctx.p_mod.(j) primes.(j));
          unsettled ctx ~c0:(of_key_basis ctx level u0) ~c1:(of_key_basis ctx level u1) ~level
            ~scale:ct.scale
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
let c0 ct = fst (settled_parts ct)
let c1 ct = snd (settled_parts ct)

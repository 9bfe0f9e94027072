(* The schoolbook ring oracle: the int-array NTT and [mod]-based twins of
   the fast Rvec kernels (Shoup / lazy-window reductions), the per-digit
   and coefficient-domain forms the fused kernels replaced, and a Bigint
   reference for whole ring-element expressions. The tests check the fast
   kernels against them, bit for bit; bench/kbench.exe times the fast NTT
   against this one. The library runs nothing else. *)

module Bigint = Chet_bigint.Bigint
module Modarith = Chet_crypto.Modarith
module Rvec = Chet_crypto.Rvec
module Rq_rns = Chet_crypto.Rq_rns
module Encoding = Chet_crypto.Encoding

(* --- the schoolbook negacyclic NTT ---

   The psi-twisted Cooley–Tukey / Gentleman–Sande pair with psi powers in
   bit-reversed order and two exact reductions per butterfly: the network
   and tables of Ntt's lazy radix-4 transform, from the same root of
   unity, so the two agree bit for bit. *)

type ntt = { n : int; p : int; psi_rev : int array; psi_inv_rev : int array; n_inv : int }

let ntt_table ~n ~prime =
  let bits =
    let rec loop k acc = if k <= 1 then acc else loop (k lsr 1) (acc + 1) in
    loop n 0
  in
  let brev x =
    let r = ref 0 in
    for b = 0 to bits - 1 do
      if (x lsr b) land 1 = 1 then r := !r lor (1 lsl (bits - 1 - b))
    done;
    !r
  in
  let powers root =
    let linear = Array.make n 1 in
    for i = 1 to n - 1 do
      linear.(i) <- Modarith.mul_mod linear.(i - 1) root prime
    done;
    Array.init n (fun i -> linear.(brev i))
  in
  let psi = Modarith.root_of_unity ~order:(2 * n) prime in
  {
    n;
    p = prime;
    psi_rev = powers psi;
    psi_inv_rev = powers (Modarith.inv_mod psi prime);
    n_inv = Modarith.inv_mod n prime;
  }

let ntt_forward t a =
  let p = t.p and n = t.n in
  let t_len = ref n and m = ref 1 in
  while !m < n do
    t_len := !t_len lsr 1;
    for i = 0 to !m - 1 do
      let j1 = 2 * i * !t_len in
      let s = t.psi_rev.(!m + i) in
      for j = j1 to j1 + !t_len - 1 do
        let u = a.(j) and v = a.(j + !t_len) * s mod p in
        a.(j) <- Modarith.add_mod u v p;
        a.(j + !t_len) <- Modarith.sub_mod u v p
      done
    done;
    m := !m lsl 1
  done

let ntt_inverse t a =
  let p = t.p and n = t.n in
  let t_len = ref 1 and m = ref n in
  while !m > 1 do
    let h = !m lsr 1 in
    for i = 0 to h - 1 do
      let j1 = 2 * i * !t_len in
      let s = t.psi_inv_rev.(h + i) in
      for j = j1 to j1 + !t_len - 1 do
        let u = a.(j) and v = a.(j + !t_len) in
        a.(j) <- Modarith.add_mod u v p;
        a.(j + !t_len) <- Modarith.sub_mod u v p * s mod p
      done
    done;
    t_len := !t_len lsl 1;
    m := h
  done;
  for j = 0 to n - 1 do
    a.(j) <- a.(j) * t.n_inv mod p
  done

(* --- residue-vector twins --- *)

let map_into dst f =
  for i = 0 to Rvec.length dst - 1 do
    Rvec.set dst i (f i)
  done

let pointwise_mul_into dst a b p = map_into dst (fun i -> Rvec.get a i * Rvec.get b i mod p)

let pointwise_mac_into acc a b p =
  map_into acc (fun i ->
      let s = Rvec.get acc i + (Rvec.get a i * Rvec.get b i mod p) in
      if s >= p then s - p else s)

let scalar_mul_into dst a s p =
  let s = Modarith.reduce s p in
  map_into dst (fun i -> Rvec.get a i * s mod p)

let scalar_mac_into dst a b s p =
  let s = Modarith.reduce s p in
  map_into dst (fun i -> Modarith.add_mod (Rvec.get a i) (Rvec.get b i * s mod p) p)

let sub_scale_into dst a b s p =
  let s = Modarith.reduce s p in
  map_into dst (fun i -> Modarith.sub_mod (Rvec.get a i) (Rvec.get b i) p * s mod p)

(* the multiply-accumulate chain [Rvec.sum_into] replaces: one pass per
   product, the lift, then one pass per scalar term *)
let sum_into dst vs ws xs ys ~lift p =
  Rvec.fill dst 0;
  Array.iteri (fun j x -> pointwise_mac_into dst x ys.(j) p) xs;
  scalar_mul_into dst dst lift p;
  Array.iteri (fun k v -> scalar_mac_into dst dst v ws.(k) p) vs

(* the key switch's inner product as each digit permuted by [index], then
   one multiply-accumulate pass per digit *)
let inner_product_into acc0 acc1 ds bs cs index p =
  Rvec.fill acc0 0;
  Rvec.fill acc1 0;
  Array.iteri
    (fun j d ->
      let permuted = Rvec.create (Rvec.length d) in
      Rvec.permute_into permuted d index;
      pointwise_mac_into acc0 permuted bs.(j) p;
      pointwise_mac_into acc1 permuted cs.(j) p)
    ds

let rescale_limb_into dst src last ~q_last ~p =
  let half = q_last / 2 in
  let inv = Modarith.inv_mod (q_last mod p) p in
  map_into dst (fun i ->
      let d = Rvec.get last i in
      let d = if d > half then d - q_last else d in
      Modarith.mul_mod (Modarith.sub_mod (Rvec.get src i) (Modarith.reduce d p) p) inv p)

let lift_centered_into dst src ~from p =
  map_into dst (fun i ->
      let v = Rvec.get src i in
      let c = if 2 * v > from then v - from else v in
      ((c mod p) + p) mod p)

(* CRT by Garner, then center: x in [0, Q) is a + q_lo·((b − a)·q_lo⁻¹ mod q_hi) *)
let lift_pair_centered_into dst lo hi ~q_lo ~q_hi p =
  let q = q_lo * q_hi in
  let inv = Modarith.inv_mod (q_lo mod q_hi) q_hi in
  map_into dst (fun i ->
      let a = Rvec.get lo i and b = Rvec.get hi i in
      let x = a + (q_lo * Modarith.mul_mod (Modarith.reduce (b - a) q_hi) inv q_hi) in
      let c = if x > q / 2 then x - q else x in
      ((c mod p) + p) mod p)

(* [m(X) -> m(X^g)] on one coefficient-form channel, through
   Encoding.automorphism_index's signed permutation *)
let automorphism_into dst src ~g p =
  Array.iteri
    (fun j (j', negate) ->
      let v = Rvec.get src j in
      Rvec.set dst j' (if negate then Modarith.neg_mod v p else v))
    (Encoding.automorphism_index ~n:(Rvec.length src) ~g)

(* the coefficient-domain automorphism of a whole element: the route
   Rq_rns.automorphism_ntt's permutation of NTT positions replaced *)
let automorphism ctx t ~g =
  if Rq_rns.is_ntt t then invalid_arg "Ring_oracle.automorphism: coefficient form required";
  let basis = Rq_rns.basis t and primes = Rq_rns.ctx_primes ctx in
  let comps =
    Array.mapi
      (fun k i ->
        let src = Rq_rns.raw_comp t k in
        let dst = Rvec.create (Rvec.length src) in
        automorphism_into dst src ~g primes.(i);
        dst)
      basis
  in
  Rq_rns.unsafe_of_bufs ~basis:(Array.copy basis) ~comps ~ntt:false

(* --- rounded division by the last primes, in coefficient form --- *)

(* Remove the last basis component; with [~rounded:true] divide by its
   prime with rounding, limb by limb: the CKKS rescale as it was computed
   before it moved to the NTT domain. Coefficient form in and out. *)
let drop_last ctx t ~rounded =
  if Rq_rns.is_ntt t then invalid_arg "Ring_oracle.drop_last: coefficient form required";
  let basis = Rq_rns.basis t and primes = Rq_rns.ctx_primes ctx in
  let nb = Array.length basis in
  let last = Rq_rns.raw_comp t (nb - 1) in
  let comps =
    Array.init (nb - 1) (fun k ->
        let src = Rq_rns.raw_comp t k in
        let dst = Rvec.create (Rvec.length src) in
        if rounded then
          rescale_limb_into dst src last ~q_last:primes.(basis.(nb - 1)) ~p:primes.(basis.(k))
        else Rvec.blit src dst;
        dst)
  in
  Rq_rns.unsafe_of_bufs ~basis:(Array.sub basis 0 (nb - 1)) ~comps ~ntt:false

(* Divide by P = q_lo·q_hi, the last two primes, with rounding: the
   key switch's mod-down through the coefficient domain. *)
let drop_last_pair ctx t =
  if Rq_rns.is_ntt t then invalid_arg "Ring_oracle.drop_last_pair: coefficient form required";
  let basis = Rq_rns.basis t and primes = Rq_rns.ctx_primes ctx in
  let nb = Array.length basis in
  let lo = Rq_rns.raw_comp t (nb - 2) and hi = Rq_rns.raw_comp t (nb - 1) in
  let q_lo = primes.(basis.(nb - 2)) and q_hi = primes.(basis.(nb - 1)) in
  let comps =
    Array.init (nb - 2) (fun k ->
        let p = primes.(basis.(k)) in
        let src = Rq_rns.raw_comp t k in
        let lifted = Rvec.create (Rvec.length src) in
        lift_pair_centered_into lifted lo hi ~q_lo ~q_hi p;
        let inv = Modarith.inv_mod (Modarith.mul_mod (q_lo mod p) (q_hi mod p) p) p in
        let dst = Rvec.create (Rvec.length src) in
        sub_scale_into dst src lifted inv p;
        dst)
  in
  Rq_rns.unsafe_of_bufs ~basis:(Array.sub basis 0 (nb - 2)) ~comps ~ntt:false

(* --- whole polynomials over Z[X]/(X^n + 1), exact --- *)

let negacyclic_mul (a : Bigint.t array) (b : Bigint.t array) =
  let n = Array.length a in
  let c = Array.make n Bigint.zero in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let t = Bigint.mul a.(i) b.(k) in
      let j = i + k in
      if j < n then c.(j) <- Bigint.add c.(j) t else c.(j - n) <- Bigint.sub c.(j - n) t
    done
  done;
  c

(* One rounded RNS rescale by the last prime [q_last] of modulus [q]: the
   representative in [0, q / q_last) of (x - [x]_centered mod q_last) / q_last. *)
let drop_last_rounded ~q ~q_last x =
  let x = Bigint.emod x q in
  let q_last' = Bigint.of_int q_last in
  let r = Bigint.mod_int x q_last in
  let r = if r > q_last / 2 then r - q_last else r in
  Bigint.emod (Bigint.div (Bigint.sub x (Bigint.of_int r)) q_last') (Bigint.div q q_last')

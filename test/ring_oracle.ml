(* The schoolbook ring oracle: [mod]-based twins of the fast Rvec kernels
   (Shoup / lazy-window reductions) and a Bigint reference for whole
   ring-element expressions. test_kernels.ml checks the fast kernels
   against both, bit for bit; nothing outside the tests runs them. *)

module Bigint = Chet_bigint.Bigint
module Modarith = Chet_crypto.Modarith
module Rvec = Chet_crypto.Rvec

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

module Bigint = Chet_bigint.Bigint

type ctx = {
  n : int;
  primes : int array;
  ntts : Ntt.table array;
  crt_modulus : Bigint.t;
  crt_q_over : Bigint.t array; (* M / p_i *)
  crt_invs : int array; (* (M/p_i)^{-1} mod p_i *)
}

let make_ctx ~n ~max_product_bits =
  let bits_per_prime = 29 in
  (* head-room: reconstruct centered values, so the CRT modulus must exceed
     twice the magnitude bound *)
  let count = ((max_product_bits + 2) / bits_per_prime) + 1 in
  let primes = Modarith.gen_ntt_primes ~bits:30 ~modulus_of:(2 * n) ~count in
  let ntts = Array.map (fun p -> Ntt.make_table ~n ~prime:p) primes in
  let crt_modulus = Array.fold_left (fun acc p -> Bigint.mul_int acc p) Bigint.one primes in
  let crt_q_over = Array.map (fun p -> Bigint.div crt_modulus (Bigint.of_int p)) primes in
  let crt_invs =
    Array.mapi (fun i p -> Modarith.inv_mod (Bigint.mod_int crt_q_over.(i) p) p) primes
  in
  { n; primes; ntts; crt_modulus; crt_q_over; crt_invs }

type t = { poly : Bigint.t array; logq : int }

let logq t = t.logq

let check ctx t fn =
  if Array.length t.poly <> ctx.n then invalid_arg (fn ^ ": wrong length");
  if t.logq <= 0 then invalid_arg (fn ^ ": bad modulus")

let check2 ctx a b fn =
  check ctx a fn;
  check ctx b fn;
  if a.logq <> b.logq then invalid_arg (fn ^ ": modulus mismatch")

let of_centered_coeffs ctx logq ints =
  if Array.length ints <> ctx.n then invalid_arg "Rq_big.of_centered_coeffs: wrong length";
  let q = Bigint.pow2 logq in
  { poly = Array.map (fun c -> Bigint.emod (Bigint.of_int c) q) ints; logq }

let of_bigint_coeffs ctx logq coeffs =
  if Array.length coeffs <> ctx.n then invalid_arg "Rq_big.of_bigint_coeffs: wrong length";
  let q = Bigint.pow2 logq in
  { poly = Array.map (fun c -> Bigint.emod c q) coeffs; logq }

let of_reduced_coeffs ~logq coeffs =
  if logq <= 0 then invalid_arg "Rq_big.of_reduced_coeffs: bad modulus";
  let q = Bigint.pow2 logq in
  Array.iter
    (fun c ->
      if Bigint.sign c < 0 || Bigint.compare c q >= 0 then
        invalid_arg "Rq_big.of_reduced_coeffs: coefficient out of range")
    coeffs;
  { poly = Array.copy coeffs; logq }

let coeffs t = Array.copy t.poly

let to_bigint_coeffs ctx t =
  check ctx t "Rq_big.to_bigint_coeffs";
  Array.copy t.poly

let to_centered_bigint_coeffs ctx t =
  check ctx t "Rq_big.to_centered_bigint_coeffs";
  let q = Bigint.pow2 t.logq in
  Array.map (fun c -> Bigint.centered_mod c q) t.poly

let add ctx a b =
  check2 ctx a b "Rq_big.add";
  let q = Bigint.pow2 a.logq in
  { a with
    poly =
      Array.init ctx.n (fun i ->
          let s = Bigint.add a.poly.(i) b.poly.(i) in
          if Bigint.compare s q >= 0 then Bigint.sub s q else s);
  }

let sub ctx a b =
  check2 ctx a b "Rq_big.sub";
  let q = Bigint.pow2 a.logq in
  { a with
    poly =
      Array.init ctx.n (fun i ->
          let d = Bigint.sub a.poly.(i) b.poly.(i) in
          if Bigint.sign d < 0 then Bigint.add d q else d);
  }

let neg ctx a =
  check ctx a "Rq_big.neg";
  let q = Bigint.pow2 a.logq in
  { a with poly = Array.map (fun c -> if Bigint.is_zero c then c else Bigint.sub q c) a.poly }

let mul ctx a b =
  check2 ctx a b "Rq_big.mul";
  let logq = a.logq in
  let q = Bigint.pow2 logq in
  let ca = Array.map (fun c -> Bigint.centered_mod c q) a.poly in
  let cb = Array.map (fun c -> Bigint.centered_mod c q) b.poly in
  let nprimes = Array.length ctx.primes in
  (* residues per prime, negacyclic NTT product over unboxed buffers;
     independent primes fan out across the kernel-domain pool *)
  let prods = Array.init nprimes (fun _ -> Rvec.create ctx.n) in
  Kpool.run nprimes (fun k ->
      let p = ctx.primes.(k) in
      let tbl = ctx.ntts.(k) in
      let ra = prods.(k) in
      let rb = Rvec.create ctx.n in
      for j = 0 to ctx.n - 1 do
        Rvec.set ra j (Bigint.mod_int ca.(j) p);
        Rvec.set rb j (Bigint.mod_int cb.(j) p)
      done;
      Ntt.forward_buf tbl ra;
      Ntt.forward_buf tbl rb;
      Rvec.pointwise_mul_into ra ra rb p;
      Ntt.inverse_buf tbl ra);
  let poly =
    Array.init ctx.n (fun j ->
        let acc = ref Bigint.zero in
        for k = 0 to nprimes - 1 do
          let c = Modarith.mul_mod (Rvec.get prods.(k) j) ctx.crt_invs.(k) ctx.primes.(k) in
          acc := Bigint.add !acc (Bigint.mul_int ctx.crt_q_over.(k) c)
        done;
        (* centered reconstruction gives the exact signed integer product *)
        Bigint.emod (Bigint.centered_mod !acc ctx.crt_modulus) q)
  in
  { poly; logq }

let mul_bigint ctx a s =
  check ctx a "Rq_big.mul_bigint";
  let q = Bigint.pow2 a.logq in
  { a with poly = Array.map (fun c -> Bigint.emod (Bigint.mul c s) q) a.poly }


let automorphism ctx a ~g =
  check ctx a "Rq_big.automorphism";
  let q = Bigint.pow2 a.logq in
  let index = Encoding.automorphism_index ~n:ctx.n ~g in
  let dst = Array.make ctx.n Bigint.zero in
  Array.iteri
    (fun j c ->
      let j', negate = index.(j) in
      dst.(j') <- (if negate && not (Bigint.is_zero c) then Bigint.sub q c else c))
    a.poly;
  { a with poly = dst }

let div_round_pow2 ctx a ~k =
  check ctx a "Rq_big.div_round_pow2";
  if k >= a.logq then invalid_arg "Rq_big.div_round_pow2: would drop entire modulus";
  let q = Bigint.pow2 a.logq in
  let q' = Bigint.pow2 (a.logq - k) in
  let d = Bigint.pow2 k in
  { poly = Array.map (fun c -> Bigint.emod (Bigint.div_round (Bigint.centered_mod c q) d) q') a.poly;
    logq = a.logq - k;
  }

let mod_down ctx a logq_to =
  check ctx a "Rq_big.mod_down";
  if logq_to <= 0 || logq_to > a.logq then invalid_arg "Rq_big.mod_down: bad target modulus";
  let q' = Bigint.pow2 logq_to in
  { poly = Array.map (fun c -> Bigint.emod c q') a.poly; logq = logq_to }

let equal a b =
  a.logq = b.logq
  && Array.length a.poly = Array.length b.poly
  && Array.for_all2 Bigint.equal a.poly b.poly

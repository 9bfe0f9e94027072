(* Word-sized modular arithmetic. Moduli < 2^31 keep residue products below
   2^62, so everything is exact in native ints. *)

let add_mod a b p =
  let s = a + b in
  if s >= p then s - p else s

let sub_mod a b p =
  let d = a - b in
  if d < 0 then d + p else d

let neg_mod a p = if a = 0 then 0 else p - a
let mul_mod a b p = a * b mod p

let pow_mod b e p =
  if e < 0 then invalid_arg "Modarith.pow_mod: negative exponent";
  let rec loop acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul_mod acc b p else acc in
      loop acc (mul_mod b b p) (e lsr 1)
    end
  in
  loop 1 (b mod p) e

let inv_mod a p =
  (* extended Euclid, keeping t with t·a ≡ r (mod p); works for any modulus,
     not just primes. Iterative, so it allocates nothing: the key switch
     calls it once per digit and target prime. *)
  let a = a mod p in
  let a = if a < 0 then a + p else a in
  let r0 = ref p and r1 = ref a and t0 = ref 0 and t1 = ref 1 in
  while !r1 <> 0 do
    let q = !r0 / !r1 in
    let r = !r0 - (q * !r1) and t = !t0 - (q * !t1) in
    r0 := !r1;
    r1 := r;
    t0 := !t1;
    t1 := t
  done;
  if !r0 <> 1 then invalid_arg "Modarith.inv_mod: not invertible";
  let x = !t0 mod p in
  if x < 0 then x + p else x

let reduce a p =
  let r = a mod p in
  if r < 0 then r + p else r

(* Shoup's multiplication by a fixed multiplicand: precompute
   w' = floor(w * 2^31 / p); then for any x < 2^31,
     q = (w' * x) >> 31  satisfies  0 <= w*x - q*p < 2p.
   Requires w < p < 2^31 so that both w' * x and w * x stay below 2^62. *)

let shoup w p = (w lsl 31) / p

let mul_mod_shoup w wsh x p =
  let q = (wsh * x) lsr 31 in
  let r = (w * x) - (q * p) in
  if r >= p then r - p else r

let is_prime n =
  if n < 2 then false
  else if n < 4 then true
  else if n land 1 = 0 then false
  else begin
    (* write n-1 = d * 2^s *)
    let d = ref (n - 1) and s = ref 0 in
    while !d land 1 = 0 do
      d := !d lsr 1;
      incr s
    done;
    let witness a =
      let a = a mod n in
      if a = 0 then false
      else begin
        let x = ref (pow_mod a !d n) in
        if !x = 1 || !x = n - 1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to !s - 1 do
               x := mul_mod !x !x n;
               if !x = n - 1 then begin
                 composite := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !composite
        end
      end
    in
    (* bases {2,3,5,7} are a deterministic MR test below 3,215,031,751 *)
    not (List.exists witness [ 2; 3; 5; 7 ])
  end

let gen_ntt_prime ~bits ~modulus_of ~below =
  if bits > 31 then invalid_arg "Modarith.gen_ntt_prime: bits must be <= 31";
  let upper = Stdlib.min ((1 lsl bits) - 1) (below - 1) in
  (* candidates are k * modulus_of + 1 *)
  let k = ref ((upper - 1) / modulus_of) in
  let result = ref 0 in
  while !result = 0 && !k > 0 do
    let candidate = (!k * modulus_of) + 1 in
    if candidate <= upper && is_prime candidate then result := candidate;
    decr k
  done;
  if !result = 0 then raise Not_found;
  !result

let gen_ntt_primes ~bits ~modulus_of ~count =
  let primes = Array.make count 0 in
  let below = ref (1 lsl bits) in
  for i = 0 to count - 1 do
    let p = gen_ntt_prime ~bits ~modulus_of ~below:!below in
    primes.(i) <- p;
    below := p
  done;
  primes

let factor_distinct n =
  let rec loop n d acc =
    if d * d > n then if n > 1 then n :: acc else acc
    else if n mod d = 0 then begin
      let rec strip n = if n mod d = 0 then strip (n / d) else n in
      loop (strip n) (d + 1) (d :: acc)
    end
    else loop n (d + 1) acc
  in
  loop n 2 []

let primitive_root p =
  let phi = p - 1 in
  let factors = factor_distinct phi in
  let is_generator g = List.for_all (fun q -> pow_mod g (phi / q) p <> 1) factors in
  let rec search g = if is_generator g then g else search (g + 1) in
  search 2

let root_of_unity ~order p =
  if (p - 1) mod order <> 0 then invalid_arg "Modarith.root_of_unity: order must divide p-1";
  let g = primitive_root p in
  pow_mod g ((p - 1) / order) p

(* Unboxed residue-vector kernels over Bigarray buffers (DESIGN.md §15).

   Storage is the [Bigarray.int32] kind: one residue per 32-bit word, half
   the memory of a native-int buffer. Every stored value is a canonical
   residue below p < 2^30 ({!Rq_rns.make_ctx} rejects larger primes; the
   NTT keeps its lazy [0, 2p) window in a native-int scratch), so it fits
   a signed int32 without wrapping. The element type is touched
   only by [uget]/[uset] and the plain accessors below, which convert with
   [Int32.to_int]/[Int32.of_int] in the same expression: ocamlopt unboxes
   that pattern, so a load is one (sign-extending) word load with no
   allocation, and the kernels compute on native ints. A product of two
   residues fits in 62 bits.

   Reduction strategy (see DESIGN.md §15 for the error analysis):
   - products with one fixed multiplicand (twiddles, scalar broadcast,
     rescale inverses) use Shoup's trick with a precomputed
     [(w << 31) / p] companion word — two multiplies, a shift and a
     branchless correction, no division;
   - products of two variable operands keep the hardware [mod]: a
     float-assisted Barrett variant was measured slower here (the
     int<->float conversion chain outweighs one 63-bit divide), and no
     integer Barrett fits two 30-bit operands in a 63-bit word;
   - additive ops fold with the branchless conditional-subtract
     [d + (p land (d asr 62))], which adds [p] back exactly when [d] is
     negative.

   Every kernel stores canonical residues in [0, p), so it is bit-identical
   to the schoolbook [mod]-based computation (the test suite's reference
   twins): the reduction strategy changes, the result never does. *)

type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Syntactic full applications at a concrete type: each compiles to an
   inlined word load/store, and the int32 conversion in the same expression
   is unboxed. An eta-reduced alias
   ([let uget = Bigarray.Array1.unsafe_get]) would instead close over the
   polymorphic primitive and dispatch through the generic C stub on every
   element access — ~10x slower in the butterfly loops. *)
let[@inline] uget (b : buf) i : int = Int32.to_int (Bigarray.Array1.unsafe_get b i)
let[@inline] uset (b : buf) i (v : int) = Bigarray.Array1.unsafe_set b i (Int32.of_int v)
let create n : buf = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n
let length (b : buf) = Bigarray.Array1.dim b
let get (b : buf) i = Int32.to_int (Bigarray.Array1.get b i)
let set (b : buf) i v = Bigarray.Array1.set b i (Int32.of_int v)
let fill (b : buf) v = Bigarray.Array1.fill b (Int32.of_int v)
let blit (src : buf) (dst : buf) = Bigarray.Array1.blit src dst

let copy (b : buf) =
  let c = create (length b) in
  blit b c;
  c

let zeroed n =
  let b = create n in
  fill b 0;
  b

let of_int_array (a : int array) =
  let n = Array.length a in
  let b = create n in
  for i = 0 to n - 1 do
    uset b i (Array.unsafe_get a i)
  done;
  b

let to_int_array (b : buf) = Array.init (length b) (fun i -> uget b i)

let equal (a : buf) (b : buf) =
  length a = length b
  &&
  let n = length a in
  let rec go i = i >= n || (uget a i = uget b i && go (i + 1)) in
  go 0

(* --- additive kernels (identical under both reduction strategies) --- *)

let add_into (dst : buf) (a : buf) (b : buf) p =
  for i = 0 to length dst - 1 do
    let d = uget a i + uget b i - p in
    uset dst i (d + (p land (d asr 62)))
  done

let sub_into (dst : buf) (a : buf) (b : buf) p =
  for i = 0 to length dst - 1 do
    let d = uget a i - uget b i in
    uset dst i (d + (p land (d asr 62)))
  done

let neg_into (dst : buf) (a : buf) p =
  for i = 0 to length dst - 1 do
    let x = uget a i in
    (* (p - x) masked to 0 when x = 0 *)
    uset dst i ((p - x) land (-x asr 62))
  done

(* --- multiplicative kernels (Shoup; hardware [mod] where both operands
   vary — measured faster than float-Barrett on this target) --- *)

let pointwise_mul_into (dst : buf) (a : buf) (b : buf) p =
  for i = 0 to length dst - 1 do
    uset dst i (uget a i * uget b i mod p)
  done

(* Both sums stay in registers across the digits. A residue product is at
   most (p-1)^2, so [batch] products fit on top of a reduced partial sum
   without passing max_int: 4 for 30-bit primes, more for smaller ones. The
   final [mod] sees the same integer sum as a chain of per-digit
   reductions, so the residues are identical. *)
let inner_product_into (acc0 : buf) (acc1 : buf) (ds : buf array) (bs : buf array) (cs : buf array)
    (index : int array) p =
  let k = Array.length ds in
  if Array.length bs <> k || Array.length cs <> k then
    invalid_arg "Rvec.inner_product_into: operand counts differ";
  if Array.length index <> length acc0 then invalid_arg "Rvec.inner_product_into: index length";
  let batch = Stdlib.max 1 ((max_int - (p - 1)) / ((p - 1) * (p - 1))) in
  for i = 0 to length acc0 - 1 do
    let at = Array.unsafe_get index i in
    let s0 = ref 0 and s1 = ref 0 and pending = ref 0 in
    for j = 0 to k - 1 do
      let d = uget (Array.unsafe_get ds j) at in
      s0 := !s0 + (d * uget (Array.unsafe_get bs j) i);
      s1 := !s1 + (d * uget (Array.unsafe_get cs j) i);
      incr pending;
      if !pending = batch then begin
        s0 := !s0 mod p;
        s1 := !s1 mod p;
        pending := 0
      end
    done;
    uset acc0 i (!s0 mod p);
    uset acc1 i (!s1 mod p)
  done

(* A multiply-accumulate chain in one pass: the product terms, then the
   scalar terms, summed over a block of [sum_block] coefficients that stays
   in L1 while every term streams through it. Products are raw and reduced
   every [batch] terms, as in [inner_product_into]; their sum is reduced
   once and multiplied by [lift]; each scalar term is one Shoup step left
   lazily in [0, 2p). The one final [mod] sees an integer congruent to the
   chain's result, so the residues are identical. *)
let sum_block = 256

let sum_into (dst : buf) (vs : buf array) (ws : int array) (xs : buf array) (ys : buf array) ~lift
    p =
  let k = Array.length vs and m = Array.length xs in
  if Array.length ws <> k || Array.length ys <> m then
    invalid_arg "Rvec.sum_into: operand counts differ";
  let ws = Array.map (fun s -> Modarith.reduce s p) ws in
  let wsh = Array.map (fun s -> Modarith.shoup s p) ws in
  let lift = Modarith.reduce lift p in
  let lift_sh = Modarith.shoup lift p in
  let batch = Stdlib.max 1 ((max_int - (p - 1)) / ((p - 1) * (p - 1))) in
  let acc = Array.make sum_block 0 in
  let n = length dst in
  let lo = ref 0 in
  while !lo < n do
    let base = !lo in
    let len = Stdlib.min sum_block (n - base) in
    Array.fill acc 0 len 0;
    if m > 0 then begin
      for j = 0 to m - 1 do
        let x = Array.unsafe_get xs j and y = Array.unsafe_get ys j in
        for i = 0 to len - 1 do
          Array.unsafe_set acc i
            (Array.unsafe_get acc i + (uget x (base + i) * uget y (base + i)))
        done;
        if (j + 1) mod batch = 0 then
          for i = 0 to len - 1 do
            Array.unsafe_set acc i (Array.unsafe_get acc i mod p)
          done
      done;
      for i = 0 to len - 1 do
        let s = Array.unsafe_get acc i mod p in
        Array.unsafe_set acc i ((lift * s) - (((lift_sh * s) lsr 31) * p))
      done
    end;
    for j = 0 to k - 1 do
      let v = Array.unsafe_get vs j in
      let w = Array.unsafe_get ws j and wh = Array.unsafe_get wsh j in
      for i = 0 to len - 1 do
        let x = uget v (base + i) in
        Array.unsafe_set acc i (Array.unsafe_get acc i + (w * x) - (((wh * x) lsr 31) * p))
      done
    done;
    for i = 0 to len - 1 do
      uset dst (base + i) (Array.unsafe_get acc i mod p)
    done;
    lo := base + len
  done

let scalar_mul_into (dst : buf) (a : buf) s p =
  let s = Modarith.reduce s p in
  let ssh = Modarith.shoup s p in
  for i = 0 to length dst - 1 do
    let x = uget a i in
    let q = (ssh * x) lsr 31 in
    let d = (s * x) - (q * p) - p in
    uset dst i (d + (p land (d asr 62)))
  done

let scalar_mac_into (dst : buf) (a : buf) (b : buf) s p =
  let s = Modarith.reduce s p in
  let ssh = Modarith.shoup s p in
  for i = 0 to length dst - 1 do
    let x = uget b i in
    let r = (s * x) - (((ssh * x) lsr 31) * p) - p in
    let r = r + (p land (r asr 62)) in
    let d = uget a i + r - p in
    uset dst i (d + (p land (d asr 62)))
  done

let sub_scale_into (dst : buf) (a : buf) (b : buf) s p =
  let s = Modarith.reduce s p in
  let ssh = Modarith.shoup s p in
  for i = 0 to length dst - 1 do
    (* fold the difference into [0, p), below the Shoup operand bound *)
    let t = uget a i - uget b i in
    let t = t + (p land (t asr 62)) in
    let r = (s * t) - (((ssh * t) lsr 31) * p) - p in
    uset dst i (r + (p land (r asr 62)))
  done

(* Residues (a, b) mod (q_lo, q_hi) name one x in [0, Q), Q = q_lo*q_hi <
   2^62, in mixed radix (Garner): x = a + q_lo*t with
   t = (b - a)*q_lo^-1 mod q_hi. The centered value is x - Q when x > Q/2.
   [garner_digit_into] computes t once per coefficient and stores it as
   [t lxor down], [down] all-ones exactly when x is centered down: t < 2^31,
   so the flag is the sign of the stored int32 and [lnot t] still fits.
   [lift_garner_into] then reduces into each target prime p:
   x mod p = a + (q_lo mod p)*t, less Q mod p when centered down. Every
   product has a fixed multiplicand and an operand < 2^31, so each is one
   Shoup step; x is compared once, never multiplied. *)
let garner_digit_into (g : buf) (lo : buf) (hi : buf) ~q_lo ~q_hi =
  let half = q_lo * q_hi / 2 in
  let one_hi = Modarith.shoup 1 q_hi in
  let inv = Modarith.inv_mod (q_lo mod q_hi) q_hi in
  let inv_sh = Modarith.shoup inv q_hi in
  for i = 0 to length g - 1 do
    let a = uget lo i in
    (* t = (b - a mod q_hi) * inv mod q_hi *)
    let am = a - (((one_hi * a) lsr 31) * q_hi) - q_hi in
    let am = am + (q_hi land (am asr 62)) in
    let t = uget hi i - am in
    let t = t + (q_hi land (t asr 62)) in
    let t = (inv * t) - (((inv_sh * t) lsr 31) * q_hi) - q_hi in
    let t = t + (q_hi land (t asr 62)) in
    let down = (half - (a + (q_lo * t))) asr 62 in
    uset g i (t lxor down)
  done

let lift_garner_into (dst : buf) (lo : buf) (g : buf) ~q_lo ~q_hi p =
  let one_p = Modarith.shoup 1 p in
  let c = q_lo mod p in
  let c_sh = Modarith.shoup c p in
  let q_p = q_lo * q_hi mod p in
  for i = 0 to length dst - 1 do
    let a = uget lo i in
    let stored = uget g i in
    let down = stored asr 62 in
    let t = stored lxor down in
    (* a mod p, plus (q_lo mod p) * t mod p *)
    let ap = a - (((one_p * a) lsr 31) * p) - p in
    let ap = ap + (p land (ap asr 62)) in
    let tp = (c * t) - (((c_sh * t) lsr 31) * p) - p in
    let tp = tp + (p land (tp asr 62)) in
    let r = ap + tp - p in
    let r = r + (p land (r asr 62)) in
    let r = r - (q_p land down) in
    uset dst i (r + (p land (r asr 62)))
  done

(* --- boundary kernels (always exact [mod]; not on the per-op hot path) --- *)

let reduce_centered_into (dst : buf) (coeffs : int array) p =
  let n = Array.length coeffs in
  for i = 0 to n - 1 do
    uset dst i (Modarith.reduce (Array.unsafe_get coeffs i) p)
  done

(* Below [from < 2p] (any two primes of one context) the centered value
   has |v| <= from/2 < p, so a sign fold reduces it: [v] itself, or
   [v - from + p] for the negative half. *)
let lift_centered_into (dst : buf) (src : buf) ~from p =
  let half = from / 2 in
  if from < 2 * p then begin
    let neg = p - from in
    for i = 0 to length dst - 1 do
      let v = uget src i in
      uset dst i (v + (neg land ((half - v) asr 62)))
    done
  end
  else
    for i = 0 to length dst - 1 do
      let v = uget src i in
      uset dst i (Modarith.reduce (if v > half then v - from else v) p)
    done

let permute_into (dst : buf) (src : buf) (index : int array) =
  for i = 0 to Array.length index - 1 do
    uset dst i (uget src (Array.unsafe_get index i))
  done

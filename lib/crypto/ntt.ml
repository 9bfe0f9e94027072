(* Negacyclic NTT with psi-power tables in bit-reversed order (the scheme of
   Longa & Naehrig, as implemented in SEAL): the twist by powers of the 2n-th
   root psi is fused into the butterflies, so forward/inverse are single
   passes with no separate pre/post scaling. Residue buffers are transformed
   on a domain-local native-int scratch, cache-blocked and radix-4 inside L1,
   with lazy reduction; the schoolbook transform they must match bit for bit
   is test/ring_oracle.ml's. *)

(* The psi powers and their Shoup words ((w << 31) / p). Every prime is
   below 2^30, so the lazy [0, 2p) window stays below the Shoup operand
   bound of 2^31. *)
type table = {
  n : int;
  prime : int;
  psi_rev : int array; (* psi^bitrev(i), i < n *)
  psi_inv_rev : int array;
  n_inv : int;
  psi_rev_sh : int array;
  psi_inv_rev_sh : int array;
  n_inv_sh : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let bit_reverse x bits =
  let r = ref 0 in
  for i = 0 to bits - 1 do
    if (x lsr i) land 1 = 1 then r := !r lor (1 lsl (bits - 1 - i))
  done;
  !r

let log2 n =
  let rec loop n acc = if n = 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

let make_table ~n ~prime =
  if not (is_pow2 n) then invalid_arg "Ntt.make_table: n must be a power of two";
  if prime >= 1 lsl 30 then invalid_arg "Ntt.make_table: prime must be below 2^30";
  if (prime - 1) mod (2 * n) <> 0 then invalid_arg "Ntt.make_table: prime must be 1 mod 2n";
  let psi = Modarith.root_of_unity ~order:(2 * n) prime in
  let psi_inv = Modarith.inv_mod psi prime in
  let bits = log2 n in
  let powers root =
    let tbl = Array.make n 1 in
    let cur = ref 1 in
    let linear = Array.make n 1 in
    for i = 1 to n - 1 do
      cur := Modarith.mul_mod !cur root prime;
      linear.(i) <- !cur
    done;
    for i = 0 to n - 1 do
      tbl.(i) <- linear.(bit_reverse i bits)
    done;
    tbl
  in
  let psi_rev = powers psi in
  let psi_inv_rev = powers psi_inv in
  let n_inv = Modarith.inv_mod n prime in
  let shoup = Array.map (fun w -> Modarith.shoup w prime) in
  {
    n;
    prime;
    psi_rev;
    psi_inv_rev;
    n_inv;
    psi_rev_sh = shoup psi_rev;
    psi_inv_rev_sh = shoup psi_inv_rev;
    n_inv_sh = Modarith.shoup n_inv prime;
  }

let n t = t.n
let prime t = t.prime

(* --- a native-int scratch, radix-4 inside L1-sized blocks ---

   The butterfly network and twiddle tables of the schoolbook transform,
   so results are bit-identical to it; only the storage, the traversal
   order and the reduction strategy differ. The residues are copied into
   a domain-local [int array] (Kpool transforms several channels at once,
   one per domain; see [acquire] for systhreads), so every load and store
   in the butterflies is a plain word access, with no int32 sign-extend
   or retag. The transform recurses down the butterfly
   tree, one radix-2 row per node, until a subtree fits in L1 ([leaf_len]
   words), and finishes that subtree cache-hot two stages per pass
   (radix-4: four residues loaded, four butterflies, four stored), plus one
   radix-2 row over the whole leaf when it has an odd number of stages
   (the first stage forward, the last inverse). Twiddle
   indexing: tree node [mi] (root 1, children [2mi], [2mi+1]) uses
   psi_rev.(mi) — the iterative stage-[m] group-[i] index [m + i] is
   exactly the node id — and within a leaf at node [mi], local stage [m']
   group [i'] uses index [mi * m' + i'].

   Values between stages live in the lazy window [0, 2p): one branchless
   fold per operand replaces the two exact reductions of the schoolbook
   butterfly, and the pass that copies the scratch back into the buffer
   canonicalises into [0, p) (the inverse also scales by 1/n there).
   Harvey's wider
   [0, 4p) window would push operands past the 2^31 Shoup bound for our
   30-bit primes. *)

let leaf_len = 2048 (* 16 KB of native ints: inside L1 with the twiddles *)

(* Each domain keeps one scratch in its slot. A transform takes it out of
   the slot for its whole run and puts it back after, so a systhread that
   preempts it on the same domain (they share the slot) finds the slot
   empty and allocates its own rather than writing into a scratch in use. *)
let scratch_key = Domain.DLS.new_key (fun () -> Atomic.make [||])

(* a scratch of at least [n] words, the caller's until {!release} *)
let acquire n =
  let a = Atomic.exchange (Domain.DLS.get scratch_key) [||] in
  if Array.length a >= n then a else Array.make n 0

let release a = Atomic.set (Domain.DLS.get scratch_key) a

(* Concrete-typed accessors, so each compiles to an inlined word access
   (see the note in rvec.ml on eta-reduced Bigarray aliases). *)
let[@inline] load (b : Rvec.buf) i : int = Int32.to_int (Bigarray.Array1.unsafe_get b i)
let[@inline] store (b : Rvec.buf) i (v : int) = Bigarray.Array1.unsafe_set b i (Int32.of_int v)
let[@inline] aget (a : int array) i = Array.unsafe_get a i
let[@inline] aset (a : int array) i (v : int) = Array.unsafe_set a i v

(* [d] folded into [0, m) from [-m, m) *)
let[@inline] fold m d = d + (m land (d asr 62))

(* w·x mod p for x < 2^31: in [0, 2p) lazily, [0, p) corrected *)
let[@inline] shoup_lazy w wsh x p = (w * x) - (((wsh * x) lsr 31) * p)
let[@inline] shoup w wsh x p = fold p (shoup_lazy w wsh x p - p)

(* Forward (Cooley–Tukey) butterflies pairing [j] with [j + h], operands in
   [0, 2p): u folds to [0, p), w·x is one corrected Shoup product, and
   (u + w·x, u − w·x + p) are back in [0, 2p). *)
let fwd_row a p lo h w wsh =
  for j = lo to lo + h - 1 do
    let u = fold p (aget a j - p) and t = shoup w wsh (aget a (j + h)) p in
    aset a j (u + t);
    aset a (j + h) (u - t + p)
  done

let fwd_leaf a (w : int array) (wsh : int array) p base len mi =
  let m = ref 1 and t = ref (len lsr 1) in
  (* an odd stage count starts with one radix-2 row over the whole leaf *)
  if log2 len land 1 = 1 then begin
    fwd_row a p base !t (aget w mi) (aget wsh mi);
    m := 2;
    t := !t lsr 1
  end;
  while !t >= 2 do
    (* stage [m] pairs at distance [t1], stage [2m] at [t2] *)
    let m1 = !m and t1 = !t in
    let t2 = t1 lsr 1 in
    for i = 0 to m1 - 1 do
      let b = base + (2 * i * t1) in
      let k1 = (mi * m1) + i and k2 = (2 * mi * m1) + (2 * i) in
      let w1 = aget w k1 and w1s = aget wsh k1 in
      let wa = aget w k2 and was = aget wsh k2 in
      let wb = aget w (k2 + 1) and wbs = aget wsh (k2 + 1) in
      for j = b to b + t2 - 1 do
        let x0 = fold p (aget a j - p) and x1 = fold p (aget a (j + t2) - p) in
        let y2 = shoup w1 w1s (aget a (j + t1)) p in
        let y3 = shoup w1 w1s (aget a (j + t1 + t2)) p in
        (* stage m left (x0 + y2, x1 + y3) and right (x0 − y2 + p, x1 − y3 + p) *)
        let z0 = fold p (x0 + y2 - p) and z1 = shoup wa was (x1 + y3) p in
        let z2 = fold p (x0 - y2) and z3 = shoup wb wbs (x1 - y3 + p) p in
        aset a j (z0 + z1);
        aset a (j + t2) (z0 - z1 + p);
        aset a (j + t1) (z2 + z3);
        aset a (j + t1 + t2) (z2 - z3 + p)
      done
    done;
    m := m1 * 4;
    t := t2 lsr 1
  done

let forward_buf t (buf : Rvec.buf) =
  let p = t.prime and n = t.n in
  if Rvec.length buf <> n then invalid_arg "Ntt.forward_buf: wrong length";
  let a = acquire n in
  for j = 0 to n - 1 do
    aset a j (load buf j)
  done;
  let w = t.psi_rev and wsh = t.psi_rev_sh in
  let rec node base len mi =
    if len <= leaf_len then fwd_leaf a w wsh p base len mi
    else begin
      let h = len lsr 1 in
      fwd_row a p base h (aget w mi) (aget wsh mi);
      node base h (2 * mi);
      node (base + h) h ((2 * mi) + 1)
    end
  in
  node 0 n 1;
  for j = 0 to n - 1 do
    store buf j (fold p (aget a j - p))
  done;
  release a

(* Inverse (Gentleman–Sande) butterflies pairing [j] with [j + h], operands
   in [0, 2p): (u + v, w·(u − v)), the sum folded by 2p and the product a
   lazy Shoup step, both back in [0, 2p). *)
let inv_row a p lo h w wsh =
  let p2 = 2 * p in
  for j = lo to lo + h - 1 do
    let u = aget a j and v = aget a (j + h) in
    aset a j (fold p2 (u + v - p2));
    aset a (j + h) (shoup_lazy w wsh (fold p2 (u - v)) p)
  done

let inv_leaf a (w : int array) (wsh : int array) p base len mi =
  let p2 = 2 * p in
  let t = ref 1 and hh = ref (len lsr 1) in
  while !hh >= 2 do
    (* stage [t] has [hh1] groups, stage [2t] half as many *)
    let t1 = !t and hh1 = !hh in
    let t2 = 2 * t1 in
    for i = 0 to (hh1 / 2) - 1 do
      let b = base + (4 * i * t1) in
      let k1 = (mi * hh1) + (2 * i) and k2 = (mi * (hh1 / 2)) + i in
      let wa = aget w k1 and was = aget wsh k1 in
      let wb = aget w (k1 + 1) and wbs = aget wsh (k1 + 1) in
      let w2 = aget w k2 and w2s = aget wsh k2 in
      for j = b to b + t1 - 1 do
        let x0 = aget a j and x1 = aget a (j + t1) in
        let x2 = aget a (j + t2) and x3 = aget a (j + t2 + t1) in
        let y0 = fold p2 (x0 + x1 - p2) and y1 = shoup_lazy wa was (fold p2 (x0 - x1)) p in
        let y2 = fold p2 (x2 + x3 - p2) and y3 = shoup_lazy wb wbs (fold p2 (x2 - x3)) p in
        aset a j (fold p2 (y0 + y2 - p2));
        aset a (j + t2) (shoup_lazy w2 w2s (fold p2 (y0 - y2)) p);
        aset a (j + t1) (fold p2 (y1 + y3 - p2));
        aset a (j + t2 + t1) (shoup_lazy w2 w2s (fold p2 (y1 - y3)) p)
      done
    done;
    t := 2 * t2;
    hh := hh1 / 4
  done;
  if !hh = 1 then inv_row a p base !t (aget w mi) (aget wsh mi)

let inverse_buf t (buf : Rvec.buf) =
  let p = t.prime and n = t.n in
  if Rvec.length buf <> n then invalid_arg "Ntt.inverse_buf: wrong length";
  let a = acquire n in
  for j = 0 to n - 1 do
    aset a j (load buf j)
  done;
  let w = t.psi_inv_rev and wsh = t.psi_inv_rev_sh in
  let rec node base len mi =
    if len <= leaf_len then inv_leaf a w wsh p base len mi
    else begin
      let h = len lsr 1 in
      node base h (2 * mi);
      node (base + h) h ((2 * mi) + 1);
      inv_row a p base h (aget w mi) (aget wsh mi)
    end
  in
  node 0 n 1;
  let ninv = t.n_inv and ninv_sh = t.n_inv_sh in
  for j = 0 to n - 1 do
    store buf j (shoup ninv ninv_sh (aget a j) p)
  done;
  release a

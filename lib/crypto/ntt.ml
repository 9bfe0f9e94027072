(* Negacyclic NTT with psi-power tables in bit-reversed order (the scheme of
   Longa & Naehrig, as implemented in SEAL): the twist by powers of the 2n-th
   root psi is fused into the butterflies, so forward/inverse are single
   passes with no separate pre/post scaling. The int-array loops below are
   the reference; residue buffers are transformed on a domain-local
   native-int scratch, cache-blocked and radix-4 inside L1 (the fast path
   further down), with bit-identical results. *)

(* Fast-path companion tables: the Shoup words of the psi powers (the
   tables below). Built only for primes p <= 2^30, where the lazy [0, 2p)
   representation stays below the Shoup operand bound of 2^31. *)
type fast = { fw_sh : int array; fi_sh : int array; f_ninv_sh : int }

type table = {
  n : int;
  prime : int;
  psi_rev : int array; (* psi^bitrev(i), i < n *)
  psi_inv_rev : int array;
  n_inv : int;
  fast : fast option;
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
  let fast =
    if prime > 1 lsl 30 then None
    else begin
      let shoup = Array.map (fun w -> Modarith.shoup w prime) in
      Some
        { fw_sh = shoup psi_rev; fi_sh = shoup psi_inv_rev; f_ninv_sh = Modarith.shoup n_inv prime }
    end
  in
  { n; prime; psi_rev; psi_inv_rev; n_inv; fast }

let n t = t.n
let prime t = t.prime
let has_fast t = t.fast <> None

let forward t a =
  let p = t.prime and n = t.n in
  if Array.length a <> n then invalid_arg "Ntt.forward: wrong length";
  let t_len = ref n in
  let m = ref 1 in
  while !m < n do
    t_len := !t_len lsr 1;
    for i = 0 to !m - 1 do
      let j1 = 2 * i * !t_len in
      let s = t.psi_rev.(!m + i) in
      for j = j1 to j1 + !t_len - 1 do
        let u = a.(j) in
        let v = a.(j + !t_len) * s mod p in
        let sum = u + v in
        a.(j) <- (if sum >= p then sum - p else sum);
        let d = u - v in
        a.(j + !t_len) <- (if d < 0 then d + p else d)
      done
    done;
    m := !m lsl 1
  done

let inverse t a =
  let p = t.prime and n = t.n in
  if Array.length a <> n then invalid_arg "Ntt.inverse: wrong length";
  let t_len = ref 1 in
  let m = ref n in
  while !m > 1 do
    let j1 = ref 0 in
    let h = !m lsr 1 in
    for i = 0 to h - 1 do
      let s = t.psi_inv_rev.(h + i) in
      for j = !j1 to !j1 + !t_len - 1 do
        let u = a.(j) in
        let v = a.(j + !t_len) in
        let sum = u + v in
        a.(j) <- (if sum >= p then sum - p else sum);
        let d = u - v in
        let d = if d < 0 then d + p else d in
        a.(j + !t_len) <- d * s mod p
      done;
      j1 := !j1 + (2 * !t_len)
    done;
    t_len := !t_len lsl 1;
    m := h
  done;
  for j = 0 to n - 1 do
    a.(j) <- a.(j) * t.n_inv mod p
  done

(* --- fast path: a native-int scratch, radix-4 inside L1-sized blocks ---

   Same butterfly network and twiddle tables as the scalar loops above, so
   results are bit-identical; only the storage, the traversal order and the
   reduction strategy differ. The residues are copied into a domain-local
   [int array] (Kpool transforms several channels at once, one per domain;
   see [acquire] for systhreads), so every load and store in the butterflies is a plain word access, with
   no int32 sign-extend or retag. The transform recurses down the butterfly
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
   fold per operand replaces the two exact reductions of the scalar path,
   and the pass that copies the scratch back into the buffer canonicalises
   into [0, p) (the inverse also scales by 1/n there). Harvey's wider
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

let forward_fast t (f : fast) (buf : Rvec.buf) =
  let p = t.prime and n = t.n in
  let a = acquire n in
  for j = 0 to n - 1 do
    aset a j (load buf j)
  done;
  let w = t.psi_rev and wsh = f.fw_sh in
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

let inverse_fast t (f : fast) (buf : Rvec.buf) =
  let p = t.prime and n = t.n in
  let a = acquire n in
  for j = 0 to n - 1 do
    aset a j (load buf j)
  done;
  let w = t.psi_inv_rev and wsh = f.fi_sh in
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
  let ninv = t.n_inv and ninv_sh = f.f_ninv_sh in
  for j = 0 to n - 1 do
    store buf j (shoup ninv ninv_sh (aget a j) p)
  done;
  release a

(* Buffer entry points. The scalar loops above remain the reference: when
   the table has no fast companion (prime > 2^30), the buffer is bounced
   through an int array and transformed by the exact schoolbook path. *)

let forward_buf t (buf : Rvec.buf) =
  if Rvec.length buf <> t.n then invalid_arg "Ntt.forward_buf: wrong length";
  match t.fast with
  | Some f -> forward_fast t f buf
  | None ->
      let a = Rvec.to_int_array buf in
      forward t a;
      Rvec.blit_from_array a buf

let inverse_buf t (buf : Rvec.buf) =
  if Rvec.length buf <> t.n then invalid_arg "Ntt.inverse_buf: wrong length";
  match t.fast with
  | Some f -> inverse_fast t f buf
  | None ->
      let a = Rvec.to_int_array buf in
      inverse t a;
      Rvec.blit_from_array a buf

let pointwise_mul t a b =
  let p = t.prime in
  Array.init t.n (fun i -> a.(i) * b.(i) mod p)

let negacyclic_mul t a b =
  let fa = Array.copy a and fb = Array.copy b in
  forward t fa;
  forward t fb;
  let r = pointwise_mul t fa fb in
  inverse t r;
  r

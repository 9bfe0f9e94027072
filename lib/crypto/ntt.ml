(* Negacyclic NTT with psi-power tables in bit-reversed order (the scheme of
   Longa & Naehrig, as implemented in SEAL): the twist by powers of the 2n-th
   root psi is fused into the butterflies, so forward/inverse are single
   passes with no separate pre/post scaling. *)

(* Fast-path companion tables: the same psi powers in unboxed buffers plus
   their Shoup words. Built only for primes p <= 2^30, where the lazy
   [0, 2p) representation stays below the Shoup operand bound of 2^31. *)
type fast = {
  fw : Rvec.buf; (* psi_rev *)
  fw_sh : Rvec.buf;
  fi : Rvec.buf; (* psi_inv_rev *)
  fi_sh : Rvec.buf;
  f_ninv : int;
  f_ninv_sh : int;
}

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
      let with_shoup src =
        let b = Rvec.of_int_array src in
        let sh = Rvec.create n in
        for i = 0 to n - 1 do
          Rvec.set sh i (Modarith.shoup src.(i) prime)
        done;
        (b, sh)
      in
      let fw, fw_sh = with_shoup psi_rev in
      let fi, fi_sh = with_shoup psi_inv_rev in
      Some { fw; fw_sh; fi; fi_sh; f_ninv = n_inv; f_ninv_sh = Modarith.shoup n_inv prime }
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

(* --- fast path: cache-blocked butterflies over unboxed buffers ---

   Same butterfly network and twiddle tables as the scalar loops above, so
   results are bit-identical; only the traversal order and the reduction
   strategy differ. The iterative loops stream the whole array once per
   level (log n passes); here each transform recurses down the butterfly
   tree until a subtree fits in L1 ([leaf_len] words), then finishes that
   subtree with the iterative schedule while it is cache-hot. Twiddle
   indexing: tree node [mi] (root 1, children [2mi], [2mi+1]) uses
   psi_rev.(mi) — the iterative stage-[m] group-[i] index [m + i] is
   exactly the node id — and within a leaf at node [mi], local stage [m']
   group [i'] uses index [mi * m' + i'].

   Values between levels live in the lazy window [0, 2p): one branchless
   fold per operand replaces the two exact reductions of the scalar path,
   and a final canonicalisation pass restores [0, p). (Harvey's wider
   [0, 4p) window would push operands past the 2^31 Shoup bound for our
   30-bit primes.) *)

let leaf_len = 1024 (* 8 KB of residues: comfortably inside L1 *)

(* Concrete-typed wrappers so the primitive inlines as an unboxed 32-bit
   load/store (see the note in rvec.ml: an eta-reduced alias goes through
   the generic bigarray stub). Every value stored here is < 2p < 2^31. *)
let[@inline] uget (b : Rvec.buf) i : int = Int32.to_int (Bigarray.Array1.unsafe_get b i)
let[@inline] uset (b : Rvec.buf) i (v : int) = Bigarray.Array1.unsafe_set b i (Int32.of_int v)

let forward_fast (f : fast) p (a : Rvec.buf) n =
  let w = f.fw and wsh = f.fw_sh in
  (* butterflies pairing [base+j] with [base+h+j]; inputs/outputs [0, 2p) *)
  let row base h s ssh =
    for j = base to base + h - 1 do
      let u = uget a j and x = uget a (j + h) in
      let u =
        let d = u - p in
        d + (p land (d asr 62))
      in
      let t =
        let q = (ssh * x) lsr 31 in
        let r = (s * x) - (q * p) - p in
        r + (p land (r asr 62))
      in
      uset a j (u + t);
      uset a (j + h) (u - t + p)
    done
  in
  let rec node base len mi =
    if len <= leaf_len then begin
      let m' = ref 1 and t = ref (len lsr 1) in
      while !t >= 1 do
        let idx0 = mi * !m' in
        for i = 0 to !m' - 1 do
          row (base + (2 * i * !t)) !t (uget w (idx0 + i)) (uget wsh (idx0 + i))
        done;
        m' := !m' lsl 1;
        t := !t lsr 1
      done
    end
    else begin
      let h = len lsr 1 in
      row base h (uget w mi) (uget wsh mi);
      node base h (2 * mi);
      node (base + h) h ((2 * mi) + 1)
    end
  in
  node 0 n 1;
  for j = 0 to n - 1 do
    let d = uget a j - p in
    uset a j (d + (p land (d asr 62)))
  done

let inverse_fast (f : fast) p (a : Rvec.buf) n =
  let w = f.fi and wsh = f.fi_sh in
  let p2 = 2 * p in
  let row base h s ssh =
    for j = base to base + h - 1 do
      let u = uget a j and v = uget a (j + h) in
      let s0 = u + v - p2 in
      uset a j (s0 + (p2 land (s0 asr 62)));
      let dd = u - v + p2 in
      let dd =
        let d = dd - p2 in
        d + (p2 land (d asr 62))
      in
      let q = (ssh * dd) lsr 31 in
      uset a (j + h) ((s * dd) - (q * p))
    done
  in
  let rec node base len mi =
    if len <= leaf_len then begin
      let t = ref 1 and hh = ref (len lsr 1) in
      while !hh >= 1 do
        let idx0 = mi * !hh in
        for i = 0 to !hh - 1 do
          row (base + (2 * i * !t)) !t (uget w (idx0 + i)) (uget wsh (idx0 + i))
        done;
        t := !t lsl 1;
        hh := !hh lsr 1
      done
    end
    else begin
      let h = len lsr 1 in
      node base h (2 * mi);
      node (base + h) h ((2 * mi) + 1);
      row base h (uget w mi) (uget wsh mi)
    end
  in
  node 0 n 1;
  let ninv = f.f_ninv and ninv_sh = f.f_ninv_sh in
  for j = 0 to n - 1 do
    let x = uget a j in
    let q = (ninv_sh * x) lsr 31 in
    let r = (ninv * x) - (q * p) - p in
    uset a j (r + (p land (r asr 62)))
  done

(* Buffer entry points. The scalar loops above remain the reference: when
   the table has no fast companion (prime > 2^30), the buffer is bounced
   through an int array and transformed by the exact schoolbook path. *)

let forward_buf t (buf : Rvec.buf) =
  if Rvec.length buf <> t.n then invalid_arg "Ntt.forward_buf: wrong length";
  match t.fast with
  | Some f -> forward_fast f t.prime buf t.n
  | None ->
      let a = Rvec.to_int_array buf in
      forward t a;
      Rvec.blit_from_array a buf

let inverse_buf t (buf : Rvec.buf) =
  if Rvec.length buf <> t.n then invalid_arg "Ntt.inverse_buf: wrong length";
  match t.fast with
  | Some f -> inverse_fast f t.prime buf t.n
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

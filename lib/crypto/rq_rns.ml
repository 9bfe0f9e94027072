module Bigint = Chet_bigint.Bigint

type ctx = { n : int; primes : int array; ntts : Ntt.table array }

let make_ctx ~n ~primes =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun p ->
      (* residues are stored in 32-bit words (Rvec) *)
      if p >= 1 lsl 31 then invalid_arg "Rq_rns.make_ctx: prime must be below 2^31";
      if Hashtbl.mem seen p then invalid_arg "Rq_rns.make_ctx: duplicate prime";
      Hashtbl.add seen p ())
    primes;
  { n; primes; ntts = Array.map (fun p -> Ntt.make_table ~n ~prime:p) primes }

let ctx_n ctx = ctx.n
let ctx_primes ctx = ctx.primes

(* Residue components are unboxed 32-bit Bigarray buffers (Rvec) — one
   canonical residue vector per basis prime, transformed by the Shoup /
   lazy-NTT kernels (their schoolbook oracle lives with the tests). Residue
   channels are independent, so the heavy per-limb kernels (NTTs, pointwise
   products) fan out across {!Kpool} domains. *)

type mode = int array
type t = { basis : int array; comps : Rvec.buf array; ntt : bool }

let basis t = t.basis
let is_ntt t = t.ntt

let zero ctx basis =
  { basis = Array.copy basis; comps = Array.map (fun _ -> Rvec.zeroed ctx.n) basis; ntt = false }

let copy t = { t with comps = Array.map Rvec.copy t.comps; basis = Array.copy t.basis }
let same_basis a b = a.basis = b.basis

(* limb-parallel map over the components of a fresh element *)
let par_init ctx nb f =
  let comps = Array.init nb (fun _ -> Rvec.create ctx.n) in
  Kpool.run nb (fun k -> f k comps.(k));
  comps

let of_centered_coeffs ctx basis coeffs =
  if Array.length coeffs <> ctx.n then invalid_arg "Rq_rns.of_centered_coeffs: wrong length";
  let comps =
    par_init ctx (Array.length basis) (fun k dst ->
        Rvec.reduce_centered_into dst coeffs ctx.primes.(basis.(k)))
  in
  { basis = Array.copy basis; comps; ntt = false }

let of_bigint_coeffs ctx basis coeffs =
  if Array.length coeffs <> ctx.n then invalid_arg "Rq_rns.of_bigint_coeffs: wrong length";
  let comps =
    Array.map
      (fun i ->
        let p = ctx.primes.(i) in
        Rvec.of_int_array (Array.map (fun c -> Bigint.mod_int c p) coeffs))
      basis
  in
  { basis = Array.copy basis; comps; ntt = false }

let modulus ctx basis =
  Array.fold_left (fun acc i -> Bigint.mul_int acc ctx.primes.(i)) Bigint.one basis

let to_ntt ctx t =
  if t.ntt then t
  else begin
    let nb = Array.length t.basis in
    let comps =
      par_init ctx nb (fun k dst ->
          Rvec.blit t.comps.(k) dst;
          Ntt.forward_buf ctx.ntts.(t.basis.(k)) dst)
    in
    { t with comps; ntt = true }
  end

let from_ntt ctx t =
  if not t.ntt then t
  else begin
    let nb = Array.length t.basis in
    let comps =
      par_init ctx nb (fun k dst ->
          Rvec.blit t.comps.(k) dst;
          Ntt.inverse_buf ctx.ntts.(t.basis.(k)) dst)
    in
    { t with comps; ntt = false }
  end

let to_bigint_coeffs ctx t =
  let t = from_ntt ctx t in
  let nb = Array.length t.basis in
  let q = modulus ctx t.basis in
  (* Garner-free CRT: x = Σ ((r_i * inv_i) mod q_i) * (Q/q_i) mod Q *)
  let q_over = Array.map (fun i -> Bigint.div q (Bigint.of_int ctx.primes.(i))) t.basis in
  let invs =
    Array.mapi
      (fun k i ->
        let p = ctx.primes.(i) in
        Modarith.inv_mod (Bigint.mod_int q_over.(k) p) p)
      t.basis
  in
  Array.init ctx.n (fun j ->
      let acc = ref Bigint.zero in
      for k = 0 to nb - 1 do
        let p = ctx.primes.(t.basis.(k)) in
        let c = Modarith.mul_mod (Rvec.get t.comps.(k) j) invs.(k) p in
        acc := Bigint.add !acc (Bigint.mul_int q_over.(k) c)
      done;
      Bigint.emod !acc q)

let to_centered_bigint_coeffs ctx t =
  let q = modulus ctx t.basis in
  Array.map (fun c -> Bigint.centered_mod c q) (to_bigint_coeffs ctx t)

let check2 name a b =
  if not (same_basis a b) then invalid_arg (name ^ ": basis mismatch");
  if a.ntt <> b.ntt then invalid_arg (name ^ ": NTT-form mismatch")

let add ctx a b =
  check2 "Rq_rns.add" a b;
  let comps =
    par_init ctx (Array.length a.basis) (fun k dst ->
        Rvec.add_into dst a.comps.(k) b.comps.(k) ctx.primes.(a.basis.(k)))
  in
  { basis = Array.copy a.basis; comps; ntt = a.ntt }

let sub ctx a b =
  check2 "Rq_rns.sub" a b;
  let comps =
    par_init ctx (Array.length a.basis) (fun k dst ->
        Rvec.sub_into dst a.comps.(k) b.comps.(k) ctx.primes.(a.basis.(k)))
  in
  { basis = Array.copy a.basis; comps; ntt = a.ntt }

let neg ctx t =
  let comps =
    par_init ctx (Array.length t.basis) (fun k dst ->
        Rvec.neg_into dst t.comps.(k) ctx.primes.(t.basis.(k)))
  in
  { t with comps; basis = Array.copy t.basis }

let mul ctx a b =
  let a = to_ntt ctx a and b = to_ntt ctx b in
  check2 "Rq_rns.mul" a b;
  let comps =
    par_init ctx (Array.length a.basis) (fun k dst ->
        Rvec.pointwise_mul_into dst a.comps.(k) b.comps.(k) ctx.primes.(a.basis.(k)))
  in
  { basis = Array.copy a.basis; comps; ntt = true }

let mul_scalar ctx t s =
  let comps =
    par_init ctx (Array.length t.basis) (fun k dst ->
        Rvec.scalar_mul_into dst t.comps.(k) s ctx.primes.(t.basis.(k)))
  in
  { t with comps; basis = Array.copy t.basis }

let add_scalar ctx t s =
  if t.ntt then invalid_arg "Rq_rns.add_scalar: coefficient form required";
  let r = copy t in
  Array.iteri
    (fun k i ->
      let p = ctx.primes.(i) in
      Rvec.set r.comps.(k) 0 (Modarith.add_mod (Rvec.get r.comps.(k) 0) (Modarith.reduce s p) p))
    r.basis;
  r

let automorphism ctx t ~g =
  if t.ntt then invalid_arg "Rq_rns.automorphism: coefficient form required";
  let index = Encoding.automorphism_index ~n:ctx.n ~g in
  let comps =
    par_init ctx (Array.length t.basis) (fun k dst ->
        Rvec.automorphism_into dst t.comps.(k) index ctx.primes.(t.basis.(k)))
  in
  { t with comps; basis = Array.copy t.basis }

let automorphism_ntt ctx t ~g =
  if not t.ntt then invalid_arg "Rq_rns.automorphism_ntt: NTT form required";
  let index = Encoding.ntt_automorphism_index ~n:ctx.n ~g in
  let comps =
    par_init ctx (Array.length t.basis) (fun k dst -> Rvec.permute_into dst t.comps.(k) index)
  in
  { t with comps; basis = Array.copy t.basis }

let drop_last ctx t ~rounded =
  if t.ntt then invalid_arg "Rq_rns.drop_last: coefficient form required";
  let nb = Array.length t.basis in
  if nb < 2 then invalid_arg "Rq_rns.drop_last: nothing to drop";
  let last_idx = t.basis.(nb - 1) in
  let q_last = ctx.primes.(last_idx) in
  let last = t.comps.(nb - 1) in
  let basis = Array.sub t.basis 0 (nb - 1) in
  let comps =
    if not rounded then Array.init (nb - 1) (fun k -> Rvec.copy t.comps.(k))
    else
      par_init ctx (nb - 1) (fun k dst ->
          Rvec.rescale_limb_into dst t.comps.(k) last ~q_last ~p:ctx.primes.(t.basis.(k)))
  in
  { basis; comps; ntt = false }

let position t i =
  let rec find k =
    if k >= Array.length t.basis then invalid_arg "Rq_rns: index not in basis"
    else if t.basis.(k) = i then k
    else find (k + 1)
  in
  find 0

let subset t indices =
  {
    basis = Array.copy indices;
    comps = Array.map (fun i -> Rvec.copy t.comps.(position t i)) indices;
    ntt = t.ntt;
  }

let equal a b =
  a.basis = b.basis && a.ntt = b.ntt
  && Array.length a.comps = Array.length b.comps
  && Array.for_all2 Rvec.equal a.comps b.comps

let of_components ~basis ~comps ~ntt =
  if Array.length basis <> Array.length comps then invalid_arg "Rq_rns.of_components: arity mismatch";
  { basis = Array.copy basis; comps = Array.map Rvec.of_int_array comps; ntt }

let component t ~basis_index = Rvec.to_int_array t.comps.(position t basis_index)

let scale_component ctx t ~basis_index ~scalar =
  let k0 = position t basis_index in
  let comps =
    Array.mapi
      (fun k i ->
        if k <> k0 then Rvec.zeroed (Rvec.length t.comps.(k))
        else begin
          let dst = Rvec.create (Rvec.length t.comps.(k)) in
          Rvec.scalar_mul_into dst t.comps.(k) scalar ctx.primes.(i);
          dst
        end)
      t.basis
  in
  { t with comps; basis = Array.copy t.basis }

(* --- raw buffer access (scheme-layer hot paths; see rq_rns.mli) --- *)

let raw_comp t k = t.comps.(k)
let raw_ntt_table ctx i = ctx.ntts.(i)

let unsafe_of_bufs ~basis ~comps ~ntt =
  if Array.length basis <> Array.length comps then
    invalid_arg "Rq_rns.unsafe_of_bufs: arity mismatch";
  { basis; comps; ntt }

(* --- Rq.S conformance (mode = basis) --- *)

let n = ctx_n
let mode_of = basis
let to_eval = to_ntt
let from_eval = from_ntt

let rescale ctx t ~divisor =
  let t = ref (from_ntt ctx t) and d = ref divisor in
  while !d > 1 do
    let b = !t.basis in
    let nb = Array.length b in
    if nb < 2 then invalid_arg "Rq_rns.rescale: modulus exhausted";
    let q = ctx.primes.(b.(nb - 1)) in
    if !d mod q <> 0 then invalid_arg "Rq_rns.rescale: divisor not a product of trailing primes";
    t := drop_last ctx !t ~rounded:true;
    d := !d / q
  done;
  !t

let mod_down ctx t target =
  let t = from_ntt ctx t in
  subset t target

(* Standalone element serialization for the unified ring signature. This is
   *not* the wire format of {!Serial} (which frames components itself and
   is covered by golden files); it is a self-contained encoding:
   [n; nb; ntt; basis...; residues...] as little-endian 32-bit words. *)

let to_bytes ctx t =
  let nb = Array.length t.basis in
  let b = Buffer.create ((3 + nb + (nb * ctx.n)) * 4) in
  let w32 v = Buffer.add_int32_le b (Int32.of_int v) in
  w32 ctx.n;
  w32 nb;
  w32 (if t.ntt then 1 else 0);
  Array.iter w32 t.basis;
  Array.iter
    (fun comp ->
      for j = 0 to ctx.n - 1 do
        w32 (Rvec.get comp j)
      done)
    t.comps;
  Buffer.contents b

let of_bytes ctx s =
  let r32 off = Int32.to_int (String.get_int32_le s (off * 4)) in
  if String.length s < 12 then invalid_arg "Rq_rns.of_bytes: truncated";
  let n = r32 0 and nb = r32 1 and ntt = r32 2 = 1 in
  if n <> ctx.n then invalid_arg "Rq_rns.of_bytes: ring size mismatch";
  if String.length s <> (3 + nb + (nb * n)) * 4 then invalid_arg "Rq_rns.of_bytes: bad length";
  let basis = Array.init nb (fun k -> r32 (3 + k)) in
  Array.iter
    (fun i ->
      if i < 0 || i >= Array.length ctx.primes then invalid_arg "Rq_rns.of_bytes: bad basis index")
    basis;
  let comps =
    Array.init nb (fun k ->
        let dst = Rvec.create n in
        let off = 3 + nb + (k * n) in
        for j = 0 to n - 1 do
          let v = r32 (off + j) in
          if v < 0 || v >= ctx.primes.(basis.(k)) then
            invalid_arg "Rq_rns.of_bytes: residue out of range";
          Rvec.set dst j v
        done;
        dst)
  in
  { basis; comps; ntt }

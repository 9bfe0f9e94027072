module Bigint = Chet_bigint.Bigint

type ctx = { n : int; primes : int array; ntts : Ntt.table array }

let make_ctx ~n ~primes =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun p ->
      (* the bound of the NTT's lazy window (Ntt.make_table) *)
      if p >= 1 lsl 30 then invalid_arg "Rq_rns.make_ctx: prime must be below 2^30";
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

type t = { basis : int array; comps : Rvec.buf array; ntt : bool }

let basis t = t.basis
let is_ntt t = t.ntt

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

let automorphism_ntt ctx t ~perm =
  if not t.ntt then invalid_arg "Rq_rns.automorphism_ntt: NTT form required";
  if Array.length perm <> ctx.n then invalid_arg "Rq_rns.automorphism_ntt: wrong permutation length";
  let comps =
    par_init ctx (Array.length t.basis) (fun k dst -> Rvec.permute_into dst t.comps.(k) perm)
  in
  { t with comps; basis = Array.copy t.basis }

let div_round_ntt ctx t ~drop =
  if not t.ntt then invalid_arg "Rq_rns.div_round_ntt: NTT form required";
  let nb = Array.length t.basis in
  let keep = nb - drop in
  if drop < 1 || drop > 2 || keep < 1 then invalid_arg "Rq_rns.div_round_ntt: bad drop count";
  let dropped = Array.sub t.basis keep drop in
  (* only the dropped channels go to coefficient form *)
  let tail = Array.init drop (fun k -> Rvec.copy t.comps.(keep + k)) in
  Kpool.run drop (fun k -> Ntt.inverse_buf ctx.ntts.(dropped.(k)) tail.(k));
  let q_lo = ctx.primes.(dropped.(0)) in
  let lift =
    if drop = 1 then fun dst p -> Rvec.lift_centered_into dst tail.(0) ~from:q_lo p
    else begin
      let q_hi = ctx.primes.(dropped.(1)) in
      let g = Rvec.create ctx.n in
      Rvec.garner_digit_into g tail.(0) tail.(1) ~q_lo ~q_hi;
      fun dst p -> Rvec.lift_garner_into dst tail.(0) g ~q_lo ~q_hi p
    end
  in
  let comps =
    par_init ctx keep (fun k dst ->
        let i = t.basis.(k) in
        let p = ctx.primes.(i) in
        lift dst p;
        Ntt.forward_buf ctx.ntts.(i) dst;
        let r = Array.fold_left (fun acc d -> Modarith.mul_mod acc (ctx.primes.(d) mod p) p) 1 dropped in
        Rvec.sub_scale_into dst t.comps.(k) dst (Modarith.inv_mod r p) p)
  in
  { basis = Array.sub t.basis 0 keep; comps; ntt = true }

let truncate t k =
  if k < 1 || k > Array.length t.basis then invalid_arg "Rq_rns.truncate: bad length";
  { t with basis = Array.sub t.basis 0 k; comps = Array.sub t.comps 0 k }

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

(* --- raw buffer access (scheme-layer hot paths; see rq_rns.mli) --- *)

let raw_comp t k = t.comps.(k)
let raw_ntt_table ctx i = ctx.ntts.(i)

let unsafe_of_bufs ~basis ~comps ~ntt =
  if Array.length basis <> Array.length comps then
    invalid_arg "Rq_rns.unsafe_of_bufs: arity mismatch";
  { basis; comps; ntt }

(* Unencrypted HISA backend: computes on cleartext float vectors while
   tracking scales and modulus consumption with the same semantics as the
   target scheme. This is both the reference inference engine and the
   execution vehicle for CHET's data-flow analyses.

   A ciphertext is its slot values plus {!Shape_backend}'s (scale, level)
   record, moved by Shape's transfer functions: the scale algebra and the
   rescale rule are not written here. What is its own: the slot values,
   fixed-point quantisation, the optional encoding noise and the strict
   depth and capacity checks. *)

module Modulus = Hisa.Modulus
module Shape = Shape_backend

type config = {
  slots : int;
  scheme : Hisa.scheme_kind;
  strict_modulus : bool;
      (* raise [Herr.Modulus_exhausted] instead of silently computing once
         the virtual modulus runs out — used by the scale search and the
         failure-injection tests *)
  encode_noise : bool;
      (* model the CKKS approximation noise of encoding: rounding the n
         coefficients perturbs each slot by ~N(0, n/12)/scale — except for
         all-equal vectors, which encode into a single coefficient
         (footnote 3 of the paper). Off by default (bit-exact reference);
         the profile-guided scale search turns it on. *)
}

let backend = "clear"

let make (cfg : config) : Hisa.t =
  (module struct
    let slots = cfg.slots

    type pt = { pv : float array; pscale : float }
    type ct = { v : float array; sh : Shape.ct }

    let fit values =
      let v = Array.make cfg.slots 0.0 in
      Array.blit values 0 v 0 (Stdlib.min (Array.length values) cfg.slots);
      v

    let encode values ~scale =
      (* model fixed-point quantisation: values are representable only at
         multiples of 1/scale, as in the real encoders — this is what makes
         the profile-guided scale search (§5.5) meaningful on this backend *)
      let s = float_of_int scale in
      let pv = Array.map (fun v -> Float.round (v *. s) /. s) (fit values) in
      if cfg.encode_noise then begin
        let all_equal = Array.for_all (fun v -> v = pv.(0)) pv in
        if not all_equal then begin
          (* deterministic per-plaintext noise: same vector -> same noise *)
          let st = Random.State.make [| Hashtbl.hash (scale, values) |] in
          let amp = sqrt (float_of_int (2 * cfg.slots) /. 12.0) /. s in
          let gauss () =
            let u1 = Random.State.float st 1.0 +. 1e-12 and u2 = Random.State.float st 1.0 in
            sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
          in
          for i = 0 to cfg.slots - 1 do
            pv.(i) <- pv.(i) +. (amp *. gauss ())
          done
        end
      end;
      { pv; pscale = s }
    let decode pt = Array.copy pt.pv
    let encrypt pt = { v = Array.copy pt.pv; sh = Shape.fresh cfg.scheme ~scale:pt.pscale }
    let decrypt ct = { pv = Array.copy ct.v; pscale = ct.sh.scale }

    let rot_left ct k =
      let n = cfg.slots in
      let k = ((k mod n) + n) mod n in
      { ct with v = Array.init n (fun i -> ct.v.((i + k) mod n)) }

    let map2 f a b = Array.init cfg.slots (fun i -> f a.(i) b.(i))
    let add a b = { v = map2 ( +. ) a.v b.v; sh = Shape.add ~backend ~op:"add" a.sh b.sh }

    let add_plain c p =
      { v = map2 ( +. ) c.v p.pv; sh = Shape.add_plain ~backend ~op:"add_plain" c.sh p.pscale }

    let add_scalar c x = { c with v = Array.map (fun a -> a +. x) c.v }
    let log2f x = log x /. log 2.0

    (* Bits of virtual modulus left at this level. *)
    let capacity_bits level =
      match (cfg.scheme, level) with
      | Hisa.Rns_chain primes, Modulus.Rns_level l ->
          let b = ref 0.0 in
          for i = 0 to Stdlib.min l (Array.length primes) - 1 do
            b := !b +. log2f (float_of_int primes.(i))
          done;
          !b
      | _, level -> float_of_int (Modulus.count level)

    (* The strict multiply checks on [x], the operand being multiplied, and
       [product], Shape's record for the result: a level to spend, and
       §5.2's actual modulus constraint — the scale (the fixed-point
       magnitude of the message) must stay below the remaining modulus, or
       the message wraps. Rescaling never descends below the last prime (as
       in the real schemes), so on a too-small pinned chain a multiplication
       backlog genuinely exhausts the modulus here — the failure mode the
       scale search must degrade around. *)
    let strict ~op x product =
      if cfg.strict_modulus then begin
        Shape.check_depth ~backend ~op x;
        let cap = capacity_bits product.Shape.level in
        let need = log2f product.Shape.scale in
        if need > cap then
          Herr.raise_err ~backend ~op
            (Herr.Modulus_exhausted
               { level = int_of_float cap; requested = int_of_float (Float.ceil need) })
      end;
      product

    let mul a b = { v = map2 ( *. ) a.v b.v; sh = strict ~op:"mul" a.sh (Shape.mul ~backend a.sh b.sh) }

    let mul_plain c p =
      let sh = strict ~op:"mul_plain" c.sh (Shape.mul_plain c.sh p.pscale) in
      { v = map2 ( *. ) c.v p.pv; sh }

    (* the runtime multiplies by the *rounded* integer, so the reference
       must quantise identically for bit-faithful comparison *)
    let quantise w ~scale = Float.round (w *. float_of_int scale) /. float_of_int scale

    let mul_scalar c x ~scale =
      let sh = strict ~op:"mul_scalar" c.sh (Shape.mul_scalar c.sh ~scale) in
      let q = quantise x ~scale in
      { v = Array.map (fun a -> a *. q) c.v; sh }

    (* Fused accumulate ops: one result array per op instead of two
       (intermediate + sum). The per-slot expression is exactly the
       composed [add (mul_* ...)] arithmetic — same operand order, same
       quantisation — so outputs stay bit-identical to the unfused ops;
       checks replicate the composition's in order. *)
    let fma_scalar acc x w ~scale =
      let op = "fma_scalar" in
      let sh = Shape.add ~backend ~op acc.sh (strict ~op x.sh (Shape.mul_scalar x.sh ~scale)) in
      let q = quantise w ~scale in
      { v = Array.init cfg.slots (fun i -> acc.v.(i) +. (x.v.(i) *. q)); sh }

    let fma_plain acc x p =
      let op = "fma_plain" in
      let sh = Shape.add ~backend ~op acc.sh (strict ~op x.sh (Shape.mul_plain x.sh p.pscale)) in
      { v = Array.init cfg.slots (fun i -> acc.v.(i) +. (x.v.(i) *. p.pv.(i))); sh }

    let fma_rot acc x r =
      let sh = Shape.add ~backend ~op:"fma_rot" acc.sh x.sh in
      let n = cfg.slots in
      let k = ((r mod n) + n) mod n in
      { v = Array.init n (fun i -> acc.v.(i) +. x.v.((i + k) mod n)); sh }

    let rot_many ct ks = Array.map (rot_left ct) ks
    let max_rescale ct ub = Shape.max_rescale cfg.scheme ct.sh ub
    let rescale ct x = { ct with sh = Shape.rescale ~backend cfg.scheme ct.sh x }
    let scale_of ct = ct.sh.scale
    let env_of ct = Shape.env_of ~slots ct.sh
  end)

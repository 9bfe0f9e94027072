(* Unencrypted HISA backend: computes on cleartext float vectors while
   tracking scales and modulus consumption with the same semantics as the
   target scheme. This is both the reference inference engine and the
   execution vehicle for CHET's data-flow analyses.

   What is its own: the slot values, fixed-point quantisation, the optional
   encoding noise and the strict capacity check. The modulus level and the
   rescale rule are {!Chet_crypto.Modulus}'s, as in the schemes. *)

module Modulus = Hisa.Modulus

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
let err ~op e = Herr.raise_err ~backend ~op e

let make (cfg : config) : Hisa.t =
  (module struct
    let slots = cfg.slots

    type pt = { pv : float array; pscale : float }
    type ct = { v : float array; scale : float; level : Modulus.level }

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
    let encrypt pt = { v = Array.copy pt.pv; scale = pt.pscale; level = Modulus.fresh cfg.scheme }
    let decrypt ct = { pv = Array.copy ct.v; pscale = ct.scale }
    let copy ct = { ct with v = Array.copy ct.v }
    let free _ = ()

    let rot_left ct k =
      let n = cfg.slots in
      let k = ((k mod n) + n) mod n in
      { ct with v = Array.init n (fun i -> ct.v.((i + k) mod n)) }

    let rot_right ct k = rot_left ct (-k)

    (* kernels equalise scales only approximately (integer mask factors, RNS
       rescaling drift); [Herr.scale_tolerance] relative slack admits value
       error well below the scheme noise floor *)
    let scales_compatible = Herr.scales_compatible

    (* binary ops silently modulus-switch to the lower operand, as the real
       backends do *)
    let meet = Modulus.meet ~backend

    let check2 op a b =
      if not (scales_compatible a.scale b.scale) then
        err ~op (Herr.Scale_mismatch { expected = a.scale; got = b.scale })

    let map2 f a b = Array.init cfg.slots (fun i -> f a.(i) b.(i))

    let add a b =
      check2 "add" a b;
      { a with v = map2 ( +. ) a.v b.v; level = meet ~op:"add" a.level b.level }

    let sub a b =
      check2 "sub" a b;
      { a with v = map2 ( -. ) a.v b.v; level = meet ~op:"sub" a.level b.level }

    let add_plain c p =
      if not (scales_compatible c.scale p.pscale) then
        err ~op:"add_plain" (Herr.Scale_mismatch { expected = c.scale; got = p.pscale });
      { c with v = map2 ( +. ) c.v p.pv }

    let sub_plain c p =
      if not (scales_compatible c.scale p.pscale) then
        err ~op:"sub_plain" (Herr.Scale_mismatch { expected = c.scale; got = p.pscale });
      { c with v = map2 ( -. ) c.v p.pv }

    let add_scalar c x = { c with v = Array.map (fun a -> a +. x) c.v }
    let sub_scalar c x = add_scalar c (-.x)

    let check_depth ~op c =
      let l = Modulus.count c.level in
      if cfg.strict_modulus && l < 1 then err ~op (Herr.Modulus_exhausted { level = l; requested = 1 })

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

    (* §5.2's actual modulus constraint, enforced in strict mode: the scale
       (the fixed-point magnitude of the message) must stay below the
       remaining modulus, or the message wraps. Rescaling never descends
       below the last prime (as in the real schemes), so on a too-small
       pinned chain a multiplication backlog genuinely exhausts the modulus
       here — the failure mode the scale search must degrade around. *)
    let check_capacity ~op level result_scale =
      if cfg.strict_modulus then begin
        let cap = capacity_bits level in
        let need = log2f result_scale in
        if need > cap then
          err ~op
            (Herr.Modulus_exhausted
               { level = int_of_float cap; requested = int_of_float (Float.ceil need) })
      end

    let mul a b =
      check_depth ~op:"mul" a;
      let level = meet ~op:"mul" a.level b.level in
      check_capacity ~op:"mul" level (a.scale *. b.scale);
      { v = map2 ( *. ) a.v b.v; scale = a.scale *. b.scale; level }

    let mul_plain c p =
      check_depth ~op:"mul_plain" c;
      check_capacity ~op:"mul_plain" c.level (c.scale *. p.pscale);
      { c with v = map2 ( *. ) c.v p.pv; scale = c.scale *. p.pscale }

    let mul_scalar c x ~scale =
      check_depth ~op:"mul_scalar" c;
      check_capacity ~op:"mul_scalar" c.level (c.scale *. float_of_int scale);
      (* the runtime multiplies by the *rounded* integer, so the reference
         must quantise identically for bit-faithful comparison *)
      let quantised = Float.round (x *. float_of_int scale) /. float_of_int scale in
      { c with v = Array.map (fun a -> a *. quantised) c.v; scale = c.scale *. float_of_int scale }

    (* Fused accumulate ops: one result array per op instead of two
       (intermediate + sum). The per-slot expression is exactly the
       composed [add (mul_* ...)] arithmetic — same operand order, same
       quantisation — so outputs stay bit-identical to the unfused ops;
       checks replicate the composition's in order. *)
    let fma_scalar acc x w ~scale =
      check_depth ~op:"fma_scalar" x;
      check_capacity ~op:"fma_scalar" x.level (x.scale *. float_of_int scale);
      let product_scale = x.scale *. float_of_int scale in
      if not (scales_compatible acc.scale product_scale) then
        err ~op:"fma_scalar" (Herr.Scale_mismatch { expected = acc.scale; got = product_scale });
      let quantised = Float.round (w *. float_of_int scale) /. float_of_int scale in
      {
        v = Array.init cfg.slots (fun i -> acc.v.(i) +. (x.v.(i) *. quantised));
        scale = acc.scale;
        level = meet ~op:"fma_scalar" acc.level x.level;
      }

    let fma_plain acc x p =
      check_depth ~op:"fma_plain" x;
      check_capacity ~op:"fma_plain" x.level (x.scale *. p.pscale);
      let product_scale = x.scale *. p.pscale in
      if not (scales_compatible acc.scale product_scale) then
        err ~op:"fma_plain" (Herr.Scale_mismatch { expected = acc.scale; got = product_scale });
      {
        v = Array.init cfg.slots (fun i -> acc.v.(i) +. (x.v.(i) *. p.pv.(i)));
        scale = acc.scale;
        level = meet ~op:"fma_plain" acc.level x.level;
      }

    let fma_rot acc x r =
      check2 "fma_rot" acc x;
      let n = cfg.slots in
      let k = ((r mod n) + n) mod n in
      {
        acc with
        v = Array.init n (fun i -> acc.v.(i) +. x.v.((i + k) mod n));
        level = meet ~op:"fma_rot" acc.level x.level;
      }

    let rot_many ct ks = Array.map (rot_left ct) ks

    let max_rescale ct ub = Modulus.max_rescale cfg.scheme ct.level ub

    let rescale ct x =
      { ct with scale = ct.scale /. float_of_int x; level = Modulus.rescale ~backend cfg.scheme ct.level x }

    let scale_of ct = ct.scale
    let env_of ct = Hisa.env_at ~n:(2 * cfg.slots) ct.level
  end)

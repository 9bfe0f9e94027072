(* Unencrypted HISA backend: computes on cleartext float vectors while
   tracking scales and modulus consumption with the same semantics as the
   target scheme. This is both the reference inference engine and the
   execution vehicle for CHET's data-flow analyses. *)

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

type budget = Rns_level of int | Logq of int

let err ~op e = Herr.raise_err ~backend:"clear" ~op e

let initial_budget = function
  | Hisa.Rns_chain primes -> Rns_level (Array.length primes)
  | Hisa.Pow2_modulus logq -> Logq logq

let make (cfg : config) : Hisa.t =
  (module struct
    let slots = cfg.slots

    type pt = { pv : float array; pscale : float }
    type ct = { v : float array; scale : float; budget : budget }

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
    let encrypt pt = { v = Array.copy pt.pv; scale = pt.pscale; budget = initial_budget cfg.scheme }
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
    let budget_min ~op a b =
      match (a, b) with
      | Rns_level x, Rns_level y -> Rns_level (Stdlib.min x y)
      | Logq x, Logq y -> Logq (Stdlib.min x y)
      | _ -> err ~op (Herr.Invalid_op { reason = "mixed scheme budgets (RNS vs pow2)" })

    let check2 op a b =
      if not (scales_compatible a.scale b.scale) then
        err ~op (Herr.Scale_mismatch { expected = a.scale; got = b.scale })

    let map2 f a b = Array.init cfg.slots (fun i -> f a.(i) b.(i))

    let add a b =
      check2 "add" a b;
      { a with v = map2 ( +. ) a.v b.v; budget = budget_min ~op:"add" a.budget b.budget }

    let sub a b =
      check2 "sub" a b;
      { a with v = map2 ( -. ) a.v b.v; budget = budget_min ~op:"sub" a.budget b.budget }

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
      if cfg.strict_modulus then begin
        match c.budget with
        | Rns_level l -> if l < 1 then err ~op (Herr.Modulus_exhausted { level = l; requested = 1 })
        | Logq q -> if q < 1 then err ~op (Herr.Modulus_exhausted { level = q; requested = 1 })
      end

    let log2f x = log x /. log 2.0

    (* Bits of virtual modulus left at this budget. *)
    let capacity_bits = function
      | Rns_level l -> (
          match cfg.scheme with
          | Hisa.Rns_chain primes ->
              let b = ref 0.0 in
              for i = 0 to Stdlib.min l (Array.length primes) - 1 do
                b := !b +. log2f (float_of_int primes.(i))
              done;
              !b
          | Hisa.Pow2_modulus _ -> 0.0)
      | Logq q -> float_of_int q

    (* §5.2's actual modulus constraint, enforced in strict mode: the scale
       (the fixed-point magnitude of the message) must stay below the
       remaining modulus, or the message wraps. Rescaling never descends
       below the last prime (as in the real schemes), so on a too-small
       pinned chain a multiplication backlog genuinely exhausts the budget
       here — the failure mode the scale search must degrade around. *)
    let check_capacity ~op budget result_scale =
      if cfg.strict_modulus then begin
        let cap = capacity_bits budget in
        let need = log2f result_scale in
        if need > cap then
          err ~op
            (Herr.Modulus_exhausted
               { level = int_of_float cap; requested = int_of_float (Float.ceil need) })
      end

    let mul a b =
      check_depth ~op:"mul" a;
      let budget = budget_min ~op:"mul" a.budget b.budget in
      check_capacity ~op:"mul" budget (a.scale *. b.scale);
      { v = map2 ( *. ) a.v b.v; scale = a.scale *. b.scale; budget }

    let mul_plain c p =
      check_depth ~op:"mul_plain" c;
      check_capacity ~op:"mul_plain" c.budget (c.scale *. p.pscale);
      { c with v = map2 ( *. ) c.v p.pv; scale = c.scale *. p.pscale }

    let mul_scalar c x ~scale =
      check_depth ~op:"mul_scalar" c;
      check_capacity ~op:"mul_scalar" c.budget (c.scale *. float_of_int scale);
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
      check_capacity ~op:"fma_scalar" x.budget (x.scale *. float_of_int scale);
      let product_scale = x.scale *. float_of_int scale in
      if not (scales_compatible acc.scale product_scale) then
        err ~op:"fma_scalar" (Herr.Scale_mismatch { expected = acc.scale; got = product_scale });
      let quantised = Float.round (w *. float_of_int scale) /. float_of_int scale in
      {
        v = Array.init cfg.slots (fun i -> acc.v.(i) +. (x.v.(i) *. quantised));
        scale = acc.scale;
        budget = budget_min ~op:"fma_scalar" acc.budget x.budget;
      }

    let fma_plain acc x p =
      check_depth ~op:"fma_plain" x;
      check_capacity ~op:"fma_plain" x.budget (x.scale *. p.pscale);
      let product_scale = x.scale *. p.pscale in
      if not (scales_compatible acc.scale product_scale) then
        err ~op:"fma_plain" (Herr.Scale_mismatch { expected = acc.scale; got = product_scale });
      {
        v = Array.init cfg.slots (fun i -> acc.v.(i) +. (x.v.(i) *. p.pv.(i)));
        scale = acc.scale;
        budget = budget_min ~op:"fma_plain" acc.budget x.budget;
      }

    let fma_rot acc x r =
      check2 "fma_rot" acc x;
      let n = cfg.slots in
      let k = ((r mod n) + n) mod n in
      {
        acc with
        v = Array.init n (fun i -> acc.v.(i) +. x.v.((i + k) mod n));
        budget = budget_min ~op:"fma_rot" acc.budget x.budget;
      }

    let rot_many ct ks = Array.map (rot_left ct) ks

    let max_rescale ct ub =
      match (cfg.scheme, ct.budget) with
      | Hisa.Rns_chain primes, Rns_level level ->
          let prod = ref 1 and l = ref level in
          let continue_loop = ref true in
          while !continue_loop && !l > 1 do
            let q = primes.(!l - 1) in
            if !prod <= ub / q && !prod * q <= ub then begin
              prod := !prod * q;
              decr l
            end
            else continue_loop := false
          done;
          !prod
      | Hisa.Pow2_modulus _, Logq logq ->
          if ub < 2 then 1
          else begin
            let k = ref 0 in
            while 1 lsl (!k + 1) <= ub && !k + 1 < logq do
              incr k
            done;
            1 lsl !k
          end
      | _ -> assert false

    let rescale ct x =
      if x = 1 then ct
      else begin
        match (cfg.scheme, ct.budget) with
        | Hisa.Rns_chain primes, Rns_level level ->
            let l = ref level and rem = ref x in
            while !rem > 1 do
              if !l < 1 then
                err ~op:"rescale" (Herr.Modulus_exhausted { level; requested = x });
              let q = primes.(!l - 1) in
              if !rem mod q <> 0 then
                err ~op:"rescale"
                  (Herr.Illegal_rescale
                     {
                       divisor = x;
                       reason =
                         Printf.sprintf "not a product of the next chain primes (next is %d)" q;
                     });
              rem := !rem / q;
              decr l
            done;
            { ct with scale = ct.scale /. float_of_int x; budget = Rns_level !l }
        | Hisa.Pow2_modulus _, Logq logq ->
            if x land (x - 1) <> 0 then
              err ~op:"rescale"
                (Herr.Illegal_rescale { divisor = x; reason = "divisor must be a power of two" });
            let k = int_of_float (Float.round (log (float_of_int x) /. log 2.0)) in
            if k >= logq then
              err ~op:"rescale" (Herr.Modulus_exhausted { level = logq; requested = k });
            { ct with scale = ct.scale /. float_of_int x; budget = Logq (logq - k) }
        | _ -> assert false
      end

    let scale_of ct = ct.scale

    let env_of ct =
      match ct.budget with
      | Rns_level r -> { Hisa.env_n = cfg.slots * 2; env_r = r; env_log_q = 0 }
      | Logq q -> { Hisa.env_n = cfg.slots * 2; env_r = 0; env_log_q = q }
  end)

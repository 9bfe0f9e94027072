(* Value-free HISA backend: ciphertexts carry only (scale, modulus budget).
   This is the literal realisation of §5.1's analyses — "the ct datatype
   stores the data-flow information" — and is what the compiler passes and
   the simulation clock execute against. It is orders of magnitude faster
   than the cleartext backend because no slot vectors exist.

   Semantics of scale/budget tracking are identical to Clear_backend (the
   tests cross-check them); only the values are gone. *)

type config = { slots : int; scheme : Hisa.scheme_kind }

let make (cfg : config) : Hisa.t =
  (module Hisa.Fused_default (struct
    let slots = cfg.slots

    type pt = { pscale : float }
    type ct = { scale : float; budget : Clear_backend.budget }

    let encode values ~scale =
      ignore values;
      { pscale = float_of_int scale }

    let decode _ = Array.make cfg.slots 0.0
    let encrypt pt = { scale = pt.pscale; budget = Clear_backend.initial_budget cfg.scheme }
    let decrypt ct = { pscale = ct.scale }
    let copy ct = ct
    let free _ = ()
    let rot_left ct _ = ct
    let rot_right ct _ = ct

    let err ~op e = Herr.raise_err ~backend:"shape" ~op e

    let budget_min ~op a b =
      match (a, b) with
      | Clear_backend.Rns_level x, Clear_backend.Rns_level y ->
          Clear_backend.Rns_level (Stdlib.min x y)
      | Clear_backend.Logq x, Clear_backend.Logq y -> Clear_backend.Logq (Stdlib.min x y)
      | _ -> err ~op (Herr.Invalid_op { reason = "mixed scheme budgets (RNS vs pow2)" })

    let scales_compatible = Herr.scales_compatible

    let check2 op a b =
      if not (scales_compatible a.scale b.scale) then
        err ~op (Herr.Scale_mismatch { expected = a.scale; got = b.scale })

    let add a b =
      check2 "add" a b;
      { a with budget = budget_min ~op:"add" a.budget b.budget }

    let sub = add

    let add_plain c p =
      if not (scales_compatible c.scale p.pscale) then
        err ~op:"add_plain" (Herr.Scale_mismatch { expected = c.scale; got = p.pscale });
      c

    let sub_plain = add_plain
    let add_scalar c _ = c
    let sub_scalar c _ = c
    let mul a b = { scale = a.scale *. b.scale; budget = budget_min ~op:"mul" a.budget b.budget }
    let mul_plain c p = { c with scale = c.scale *. p.pscale }
    let mul_scalar c _ ~scale = { c with scale = c.scale *. float_of_int scale }

    let max_rescale ct ub =
      match (cfg.scheme, ct.budget) with
      | Hisa.Rns_chain primes, Clear_backend.Rns_level level ->
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
      | Hisa.Pow2_modulus _, Clear_backend.Logq logq ->
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
        | Hisa.Rns_chain primes, Clear_backend.Rns_level level ->
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
            { scale = ct.scale /. float_of_int x; budget = Clear_backend.Rns_level !l }
        | Hisa.Pow2_modulus _, Clear_backend.Logq logq ->
            if x land (x - 1) <> 0 then
              err ~op:"rescale"
                (Herr.Illegal_rescale { divisor = x; reason = "divisor must be a power of two" });
            let k = int_of_float (Float.round (log (float_of_int x) /. log 2.0)) in
            if k >= logq then
              err ~op:"rescale" (Herr.Modulus_exhausted { level = logq; requested = k });
            { scale = ct.scale /. float_of_int x; budget = Clear_backend.Logq (logq - k) }
        | _ -> assert false
      end

    let scale_of ct = ct.scale

    let env_of ct =
      match ct.budget with
      | Clear_backend.Rns_level r -> { Hisa.env_n = cfg.slots * 2; env_r = r; env_log_q = 0 }
      | Clear_backend.Logq q -> { Hisa.env_n = cfg.slots * 2; env_r = 0; env_log_q = q }
  end))

(* Value-free HISA backend: ciphertexts carry only (scale, modulus level).
   This is the literal realisation of §5.1's analyses — "the ct datatype
   stores the data-flow information" — and is what the compiler passes and
   the simulation clock execute against. It is orders of magnitude faster
   than the cleartext backend because no slot vectors exist.

   It is the scale algebra plus {!Chet_crypto.Modulus}'s rescale rule — the
   same rule the schemes and Clear_backend apply, so their modulus tracking
   agrees by construction (test_hisa's rescale-rule table runs all of them)
   — with the fused ops from {!Hisa.Fused_default}. *)

module Modulus = Hisa.Modulus

type config = { slots : int; scheme : Hisa.scheme_kind }

let make (cfg : config) : Hisa.t =
  (module Hisa.Fused_default (struct
    let slots = cfg.slots

    type pt = { pscale : float }
    type ct = { scale : float; level : Modulus.level }

    let encode _ ~scale = { pscale = float_of_int scale }
    let decode _ = Array.make cfg.slots 0.0
    let encrypt pt = { scale = pt.pscale; level = Modulus.fresh cfg.scheme }
    let decrypt ct = { pscale = ct.scale }
    let copy ct = ct
    let free _ = ()
    let rot_left ct _ = ct
    let rot_right ct _ = ct
    let backend = "shape"

    let check ~op expected got =
      if not (Herr.scales_compatible expected got) then
        Herr.raise_err ~backend ~op (Herr.Scale_mismatch { expected; got })

    let add a b =
      check ~op:"add" a.scale b.scale;
      { a with level = Modulus.meet ~backend ~op:"add" a.level b.level }

    let sub = add

    let add_plain c p =
      check ~op:"add_plain" c.scale p.pscale;
      c

    let sub_plain = add_plain
    let add_scalar c _ = c
    let sub_scalar c _ = c
    let mul a b = { scale = a.scale *. b.scale; level = Modulus.meet ~backend ~op:"mul" a.level b.level }
    let mul_plain c p = { c with scale = c.scale *. p.pscale }
    let mul_scalar c _ ~scale = { c with scale = c.scale *. float_of_int scale }
    let max_rescale ct ub = Modulus.max_rescale cfg.scheme ct.level ub

    let rescale ct x =
      { scale = ct.scale /. float_of_int x; level = Modulus.rescale ~backend cfg.scheme ct.level x }

    let scale_of ct = ct.scale
    let env_of ct = Hisa.env_at ~n:(2 * cfg.slots) ct.level
  end))

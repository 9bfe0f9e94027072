(* Value-free HISA backend: ciphertexts carry only (scale, modulus level).
   This is the literal realisation of §5.1's analyses — "the ct datatype
   stores the data-flow information" — and is what the compiler passes and
   the simulation clock execute against. It is orders of magnitude faster
   than the cleartext backend because no slot vectors exist.

   It is the scale algebra, written once: the record below and one transfer
   function per op, with {!Chet_crypto.Modulus}'s rescale rule. Clear_backend
   carries this record next to its slot values and Checked_backend keeps it
   as its shadow, each calling these functions under its own backend name,
   so every interpretation's scale and level tracking agrees by construction
   (test_hisa's rescale-rule table runs them all against the schemes). The
   fused ops come from {!Hisa.Fused_default}. *)

module Modulus = Hisa.Modulus

type ct = { scale : float; level : Modulus.level }

let fresh scheme ~scale = { scale; level = Modulus.fresh scheme }

(* kernels equalise scales only approximately (integer mask factors, RNS
   rescaling drift); [Herr.scale_tolerance] relative slack admits value
   error well below the scheme noise floor *)
let check_scales ~backend ~op expected got =
  if not (Herr.scales_compatible expected got) then
    Herr.raise_err ~backend ~op (Herr.Scale_mismatch { expected; got })

let check_depth ~backend ~op c =
  let l = Modulus.count c.level in
  if l < 1 then Herr.raise_err ~backend ~op (Herr.Modulus_exhausted { level = l; requested = 1 })

(* binary ops silently modulus-switch to the lower operand, as the real
   backends do *)
let add ~backend ~op a b =
  check_scales ~backend ~op a.scale b.scale;
  { a with level = Modulus.meet ~backend ~op a.level b.level }

let add_plain ~backend ~op c pscale =
  check_scales ~backend ~op c.scale pscale;
  c

let mul ~backend a b = { scale = a.scale *. b.scale; level = Modulus.meet ~backend ~op:"mul" a.level b.level }
let mul_plain c pscale = { c with scale = c.scale *. pscale }
let mul_scalar c ~scale = mul_plain c (float_of_int scale)
let max_rescale scheme c ub = Modulus.max_rescale scheme c.level ub

let rescale ~backend scheme c x =
  { scale = c.scale /. float_of_int x; level = Modulus.rescale ~backend scheme c.level x }

let env_of ~slots c = Hisa.env_at ~n:(2 * slots) c.level

type config = { slots : int; scheme : Hisa.scheme_kind }

let make (cfg : config) : Hisa.t =
  let backend = "shape" in
  (module Hisa.Fused_default (struct
    let slots = cfg.slots

    type pt = float (* its scale *)
    type nonrec ct = ct

    let encode _ ~scale = float_of_int scale
    let decode _ = Array.make cfg.slots 0.0
    let encrypt pscale = fresh cfg.scheme ~scale:pscale
    let decrypt c = c.scale
    let rot_left c _ = c
    let add a b = add ~backend ~op:"add" a b
    let add_plain c p = add_plain ~backend ~op:"add_plain" c p
    let add_scalar c _ = c
    let mul a b = mul ~backend a b
    let mul_plain = mul_plain
    let mul_scalar c _ ~scale = mul_scalar c ~scale
    let max_rescale c ub = max_rescale cfg.scheme c ub
    let rescale c x = rescale ~backend cfg.scheme c x
    let scale_of c = c.scale
    let env_of c = env_of ~slots:cfg.slots c
  end))

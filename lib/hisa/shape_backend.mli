(** Value-free HISA backend: ciphertexts are just (scale, modulus level) —
    the literal "ct datatype stores the data-flow information" of §5.1. The
    compiler's parameter and rotation-key passes and the latency simulator
    execute against it; it is orders of magnitude faster than
    {!Clear_backend} because no slot vectors exist. [decode] returns zeros.

    It is also the scale algebra every interpretation shares: the {!ct}
    record and one transfer function per op, with
    {!Chet_crypto.Modulus}'s rescale rule. {!Clear_backend} carries the
    record next to its slot values and {!Checked_backend} keeps it as its
    shadow; each passes its own [~backend] name (and [~op], which names the
    HISA op in errors), so errors name the interpretation that raised them. *)

type ct = { scale : float; level : Chet_crypto.Modulus.level }

val fresh : Hisa.scheme_kind -> scale:float -> ct

val check_depth : backend:string -> op:string -> ct -> unit
(** A multiply needs a level to spend: [Modulus_exhausted] at level 0. *)

val add : backend:string -> op:string -> ct -> ct -> ct
(** The operand scales must agree to {!Chet_herr.Herr.scales_compatible}
    ([Scale_mismatch] naming the first as expected); the first operand's
    scale at the {!Chet_crypto.Modulus.meet} of the levels. *)

val add_plain : backend:string -> op:string -> ct -> float -> ct
(** Adding a plaintext at the given scale: checked, [ct] unchanged. *)

val mul : backend:string -> ct -> ct -> ct
val mul_plain : ct -> float -> ct
val mul_scalar : ct -> scale:int -> ct
val max_rescale : Hisa.scheme_kind -> ct -> int -> int
val rescale : backend:string -> Hisa.scheme_kind -> ct -> int -> ct
val env_of : slots:int -> ct -> Hisa.op_env

type config = { slots : int; scheme : Hisa.scheme_kind }

val make : config -> Hisa.t
(** These functions as a HISA backend named ["shape"], with the fused ops
    of {!Hisa.Fused_default}. *)

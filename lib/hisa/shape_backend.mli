(** Value-free HISA backend: ciphertexts are just (scale, modulus level) —
    the literal "ct datatype stores the data-flow information" of §5.1. It
    is the scale algebra plus {!Chet_crypto.Modulus}'s rescale rule, with
    the fused ops of {!Hisa.Fused_default}. The compiler's parameter and
    rotation-key passes and the latency simulator execute against it; it is
    orders of magnitude faster than {!Clear_backend} because no slot vectors
    exist. [decode] returns zeros. *)

type config = { slots : int; scheme : Hisa.scheme_kind }

val make : config -> Hisa.t

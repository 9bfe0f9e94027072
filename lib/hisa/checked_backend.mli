(** Precondition/postcondition-validating HISA interceptor: wrap any
    backend and every op is checked against a shadow of what the scale and
    modulus level must be — {!Shape_backend}'s record, moved by Shape's
    transfer functions: §5.1's different-interpretation trick used as a
    runtime monitor. Divergence
    (violated precondition upstream, corrupted backend downstream) raises a
    typed {!Chet_herr.Herr.Fhe_error} instead of computing garbage.

    Precision is not predicted here: it is measured, by the sentinel lane
    (DESIGN.md §16). *)

val wrap : scheme:Hisa.scheme_kind -> Hisa.t -> Hisa.t
(** Checked view of [backend]. [scheme] must describe the wrapped backend's
    {e actual} modulus chain (see e.g. [ks_scheme] of
    {!Chet.Compiler.keyset}); the shadow level follows it through
    {!Chet_crypto.Modulus}, and operand scales must agree to
    {!Chet_herr.Herr.scales_compatible}. Decoded magnitudes above [1e30]
    are [Corrupt_ciphertext].
    @raise Chet_herr.Herr.Fhe_error
      typed per-op diagnoses: [Scale_mismatch], [Level_mismatch],
      [Modulus_exhausted], [Illegal_rescale], [Slot_overflow],
      [Numeric_blowup], [Corrupt_ciphertext]. *)

(** Precondition/postcondition-validating HISA interceptor: wrap any
    backend and every op is checked against a shadow data-flow computation
    of what the scale and modulus level must be — §5.1's
    different-interpretation trick used as a runtime monitor. Divergence
    (violated precondition upstream, corrupted backend downstream) raises a
    typed {!Chet_herr.Herr.Fhe_error} instead of computing garbage.

    With a {!noise_model} configured, the checker additionally tracks a
    conservative per-ciphertext bound on accumulated CKKS error (DESIGN.md
    §16) and raises [Precision_exhausted] the moment the bound crosses the
    deployment's tolerance — *before* the request decrypts to garbage. *)

(** Conservative CKKS error-growth model: per-ciphertext absolute
    message-space error bound, grown per op (additive for add/rot/rescale,
    cross-term products for multiplies). The constants are heuristics
    calibrated to this repo's backends at the default scales; the value is
    the monotone bound and the margin gauge, not a tight noise proof. *)
type noise_model = {
  nm_fresh : float;  (** message-space error of a fresh encryption *)
  nm_encode : float;  (** error contributed by encoding a plaintext *)
  nm_rot : float;  (** key-switch/relin/rescale rounding error per op *)
  nm_tolerance : float;  (** error bound at which [Precision_exhausted] fires *)
}

val default_noise_model : ?tolerance:float -> unit -> noise_model
(** Heuristic defaults; [tolerance] defaults to 0.05, the fidelity bar the
    compiled-deployment tests hold real backends to. *)

val wrap : ?noise:noise_model -> ?margin:float ref -> scheme:Hisa.scheme_kind -> Hisa.t -> Hisa.t
(** Checked view of [backend]. [scheme] must describe the wrapped backend's
    {e actual} modulus chain (see e.g. [ks_scheme] of
    {!Chet.Compiler.keyset}); the shadow level follows it through
    {!Chet_crypto.Modulus}, and operand scales must agree to
    {!Chet_herr.Herr.scales_compatible}. Decoded magnitudes above [1e30]
    are [Corrupt_ciphertext]. [noise] turns the noise-margin guard on (off
    by default). [margin] (noise guard only) receives the remaining
    precision headroom in bits, [log2 (tolerance / error bound)], updated
    at every decrypt — the serving layer's margin gauge.
    @raise Chet_herr.Herr.Fhe_error
      typed per-op diagnoses: [Scale_mismatch], [Level_mismatch],
      [Modulus_exhausted], [Illegal_rescale], [Slot_overflow],
      [Numeric_blowup], [Corrupt_ciphertext] — and, with a noise model,
      [Precision_exhausted] on the first op whose error bound crosses the
      tolerance. *)

(** Unencrypted HISA backend: computes on cleartext float vectors while
    tracking scales and virtual modulus consumption with the target scheme's
    semantics — a ciphertext is its slot values plus {!Shape_backend}'s
    (scale, level) record, moved by Shape's transfer functions. It is the
    reference inference engine and the vehicle for the profile-guided scale
    search (with [encode_noise] on). *)

type config = {
  slots : int;
  scheme : Hisa.scheme_kind;
  strict_modulus : bool;
      (** raise [Herr.Fhe_error (Modulus_exhausted _, _)] on multiplies once
          the virtual modulus runs out (scale search, failure-injection
          tests) *)
  encode_noise : bool;
      (** model CKKS encoding noise (~N(0, n/12)/scale per slot) on
          non-constant plaintexts — footnote 3 of the paper *)
}

val make : config -> Hisa.t

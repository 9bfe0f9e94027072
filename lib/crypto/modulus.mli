(** A ciphertext's modulus state and the target scheme's [rescale] /
    [maxRescale] rule (§5.2) — the one scheme behaviour CHET's analyses must
    reproduce exactly, so it is written once here. {!Rns_ckks} and
    {!Big_ckks} ask it where a rescale lands before doing the ring work;
    the HISA interpretations (Shape, Clear, Checked) track their virtual
    modulus with it. *)

(** How the target scheme restricts rescale divisors. *)
type kind =
  | Rns_chain of int array  (** remaining divisors are next chain primes *)
  | Pow2_modulus of int  (** any power of two [< Q]; field is [log2 Q] of a fresh ciphertext *)

(** Where a ciphertext's modulus stands: active RNS primes, or [log2 Q]. *)
type level = Rns_level of int | Logq of int

val fresh : kind -> level
(** The level of a fresh encryption: the whole chain, or [log2 Q]. *)

val count : level -> int
(** Primes or bits remaining — the [level] of a [Modulus_exhausted]. *)

val meet : backend:string -> op:string -> level -> level -> level
(** A binary op's result level: the lower operand's (the real backends
    modulus-switch the other one down).
    @raise Chet_herr.Herr.Fhe_error ([Invalid_op], under [backend]/[op]) on an RNS level
      meeting a power-of-two one. *)

val max_rescale : kind -> level -> int -> int
(** The largest divisor [<= ub] the scheme can apply at [level]: the
    product of the longest run of next chain primes that keeps the last
    prime, or the largest power of two that leaves at least one bit; 1 if
    none fits.
    @raise Invalid_argument if [level] is not of [kind]'s form. *)

val rescale : backend:string -> kind -> level -> int -> level
(** The level after dividing by [x]; [x = 1] leaves it unchanged.
    @raise Chet_herr.Herr.Fhe_error
      under [backend] and op ["rescale"]: [Illegal_rescale] for [x < 1], a
      divisor that is not a product of the next chain primes, or a
      non-power of two; [Modulus_exhausted] when the chain or the bits run
      out.
    @raise Invalid_argument if [level] is not of [kind]'s form. *)

(** Polynomials in [Z_Q\[X\]/(X^n+1)] with big-integer coefficients and a
    power-of-two modulus [Q = 2^logq] — the representation used by the
    HEAAN-style CKKS scheme ({!Big_ckks}).

    An element carries its modulus exponent [logq]. Coefficients are
    stored in [\[0, Q)]. Multiplication converts to a CRT basis of
    word-sized NTT primes (the same trick HEAAN itself uses), runs
    negacyclic NTT products over unboxed {!Rvec} buffers — fanned across
    the {!Kpool} kernel domains — and reconstructs; exact as long as the
    true product coefficients fit the configured head-room. *)

module Bigint = Chet_bigint.Bigint

type ctx

val make_ctx : n:int -> max_product_bits:int -> ctx
(** [max_product_bits]: an upper bound on [log2] of any product coefficient
    magnitude this context will ever see (typically
    [2·(logq + log_special) + log2 n + 2]). *)

type t
(** A ring element: coefficients in [\[0, 2^logq)] plus its [logq]. *)

val logq : t -> int
(** The modulus exponent. *)

val of_centered_coeffs : ctx -> int -> int array -> t
(** Coefficients given as centered native ints, reduced into [\[0, Q)]. *)

val of_bigint_coeffs : ctx -> int -> Bigint.t array -> t
(** Arbitrary (signed) big-integer coefficients, reduced into [\[0, Q)]. *)

val of_reduced_coeffs : logq:int -> Bigint.t array -> t
(** Coefficients that must already lie in [\[0, Q)] — the deserialization
    and sampling boundary (ctx-free; degree is checked by the first ring
    op). @raise Invalid_argument if any is out of range. *)

val coeffs : t -> Bigint.t array
(** Fresh copy of the canonical coefficients (ctx-free {!to_bigint_coeffs},
    for the serialization boundary). *)

val to_bigint_coeffs : ctx -> t -> Bigint.t array
(** Fresh copy of the canonical coefficients in [\[0, Q)]. *)

val to_centered_bigint_coeffs : ctx -> t -> Bigint.t array

val add : ctx -> t -> t -> t
val sub : ctx -> t -> t -> t
val neg : ctx -> t -> t

val mul : ctx -> t -> t -> t
(** Negacyclic product mod [2^logq]. Operands are centered internally to
    keep the CRT head-room small. *)

val mul_bigint : ctx -> t -> Bigint.t -> t
val automorphism : ctx -> t -> g:int -> t

val div_round_pow2 : ctx -> t -> k:int -> t
(** CKKS rescale by [2^k]: divide centered lifts by [2^k] with rounding;
    result has [logq - k]. Takes the exponent, not the divisor, so drops
    larger than 62 bits (the [/P] step of HEAAN key switching) are
    expressible. *)

val mod_down : ctx -> t -> int -> t
(** Reduce to a smaller power-of-two modulus (exact modulus switching). *)

val equal : t -> t -> bool

(** CKKS canonical embedding: maps vectors of [n/2] complex "slots" to real
    polynomials of degree [< n] and back.

    Slot [j] holds the value of the message polynomial at [ζ^(5^j)], where
    [ζ = exp(iπ/n)] is a primitive [2n]-th root of unity; the conjugate
    orbit [−5^j] carries the complex conjugates, which forces the
    coefficients to be real. Rotating slots left by [r] is the ring
    automorphism [X ↦ X^(5^r mod 2n)].

    Every function is pure over an immutable [ctx]: nothing is cached
    between calls, so any number of domains may call them at once. *)

type ctx

val make : n:int -> ctx
(** [n] must be a power of two, at least 4. *)

val n : ctx -> int

val slots : ctx -> int
(** [n/2]. *)

val galois_element : ctx -> int -> int
(** [galois_element ctx r] = [5^r mod 2n], the automorphism exponent that
    rotates slots left by [r] ([r] may be negative). *)

val conj_element : ctx -> int
(** The automorphism exponent [2n - 1] (complex conjugation of all slots). *)

val encode : ctx -> scale:float -> re:float array -> im:float array -> float array
(** Encode [slots ctx] complex values at the given scale into [n] real
    coefficients (unrounded; callers round to integers). Arrays shorter than
    [slots ctx] are zero-padded. *)

val decode : ctx -> scale:float -> float array -> float array * float array
(** Inverse of {!encode}: coefficient vector (length [n]) to slot values,
    dividing out [scale]. *)

val automorphism_index : n:int -> g:int -> (int * bool) array
(** For the map [m(X) ↦ m(X^g)] in [Z\[X\]/(X^n+1)] with odd [g]: entry [k]
    of the result is [(k', negate)] meaning coefficient [k] of the input
    lands at position [k'] of the output, negated when [negate]. Computed
    afresh on each call (O(n)); the HEAAN ring's automorphism, a bignum
    pass over the same coefficients, costs far more. *)

val ntt_automorphism_index : n:int -> g:int -> int array
(** The same map on the NTT form of {!Ntt}: entry [i] is the position of
    the input whose value lands at position [i] of the output (a pure
    permutation — no signs in the evaluation domain). Computed afresh on
    each call: an RNS-CKKS rotation key stores its own when it is
    generated or loaded, and {!Rq_rns.automorphism_ntt} reads it. *)

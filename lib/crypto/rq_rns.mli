(** Polynomials in the double-CRT (RNS + NTT) representation used by
    RNS-CKKS: an element of [Z_Q\[X\]/(X^n+1)] with [Q = Π q_i] is stored as
    one residue vector per prime [q_i].

    A polynomial's basis is a set of indices into the context's prime list;
    ciphertexts use the prefix [q_0..q_{l-1}] and key-switching keys
    additionally carry the two special primes (the last indices). *)

module Bigint = Chet_bigint.Bigint

type ctx

val make_ctx : n:int -> primes:int array -> ctx
(** Builds NTT tables for every prime. Primes must be distinct, NTT-friendly
    for size [n], and below [2^31] (residues are stored in 32-bit words).
    @raise Invalid_argument otherwise. *)

val ctx_n : ctx -> int
val ctx_primes : ctx -> int array

type t

val basis : t -> int array
(** Indices into [ctx_primes] of this polynomial's residue components. *)

val is_ntt : t -> bool

val of_centered_coeffs : ctx -> int array -> int array -> t
(** [of_centered_coeffs ctx basis coeffs]: coefficients given as centered
    native ints. Result is in coefficient (non-NTT) form. *)

val to_bigint_coeffs : ctx -> t -> Bigint.t array
(** CRT reconstruction; results in [\[0, Q)]. Input may be in either form. *)

val to_centered_bigint_coeffs : ctx -> t -> Bigint.t array

val to_ntt : ctx -> t -> t
val from_ntt : ctx -> t -> t
val add : ctx -> t -> t -> t
val sub : ctx -> t -> t -> t
val neg : ctx -> t -> t

val mul : ctx -> t -> t -> t
(** Ring product; converts operands to NTT form as needed. Result in NTT
    form. *)

val mul_scalar : ctx -> t -> int -> t
(** Multiply by a centered integer scalar (form-preserving). *)

val automorphism : ctx -> t -> g:int -> t
(** [m(X) ↦ m(X^g)], odd [g]; operand must be in coefficient form. *)

val automorphism_ntt : ctx -> t -> g:int -> t
(** {!automorphism} on an NTT-form operand, as a permutation of evaluation
    positions: [automorphism_ntt ctx (to_ntt ctx a) ~g] equals
    [to_ntt ctx (automorphism ctx a ~g)] bit for bit, without the
    transforms. *)

val div_round_ntt : ctx -> t -> drop:int -> t
(** [div_round_ntt ctx t ~drop]: remove the last [drop] (1 or 2) basis
    components and divide by their product [R] with rounding,
    [c ↦ (c - \[c\]_R) / R] on the centered lift of [\[c\]_R]: the CKKS
    rescale ([drop = 1]) and the key switch's mod-down by [P] ([drop = 2]).
    NTT form in and out; only the dropped components are inverted, their
    centered lift is reduced and transformed per kept prime, so the result
    is bit for bit the coefficient-domain rounded division. *)

val truncate : t -> int -> t
(** [truncate t k]: the first [k] components, sharing their buffers — the
    exact modulus switch to a prefix of the basis, in either form. *)

val subset : t -> int array -> t
(** Restrict to a sub-basis (indices must be present). *)

val equal : t -> t -> bool

(** {1 Low-level constructors}

    Used by the scheme layer for digit decomposition and direct-in-NTT
    sampling; residues must already be reduced mod their primes. *)

val of_components : basis:int array -> comps:int array array -> ntt:bool -> t
val component : t -> basis_index:int -> int array
(** Residue vector of the component for prime index [basis_index]. *)

(** {1 Raw buffer access}

    Residue components are stored as unboxed {!Rvec.buf} buffers; the
    scheme layer's hot paths (key switching) read and assemble them without
    the int-array copies of {!component}/{!of_components}. *)

val raw_comp : t -> int -> Rvec.buf
(** The live residue buffer of component slot [k] — no copy; callers must
    not mutate it. *)

val raw_ntt_table : ctx -> int -> Ntt.table
(** NTT table of prime index [i]. *)

val unsafe_of_bufs : basis:int array -> comps:Rvec.buf array -> ntt:bool -> t
(** Adopt buffers without copying. The caller transfers ownership: residues
    must already be canonical mod their primes. *)

(** Negacyclic number-theoretic transform modulo a word-sized prime.

    Multiplication of polynomials in [Z_p\[X\]/(X^n + 1)] is pointwise
    multiplication in the transform domain. The algorithm is the
    [psi]-twisted iterative Cooley–Tukey / Gentleman–Sande pair used by SEAL,
    with tables of powers of the [2n]-th root of unity in bit-reversed
    order. *)

type table

val make_table : n:int -> prime:int -> table
(** Precompute tables for size [n] (a power of two) and [prime ≡ 1 mod 2n].
    @raise Invalid_argument if the conditions do not hold. *)

val n : table -> int
val prime : table -> int

val forward : table -> int array -> unit
(** In-place forward negacyclic NTT of an array of length [n] with entries in
    [\[0, prime)]. *)

val inverse : table -> int array -> unit
(** In-place inverse; [inverse t (forward t a)] restores [a]. *)

val has_fast : table -> bool
(** Whether the table carries the fast-path companion (prime ≤ 2^30). *)

val forward_buf : table -> Rvec.buf -> unit
(** In-place forward transform of an unboxed residue buffer. With a fast
    table, copies the residues into a domain-local native-int scratch and
    runs the cache-blocked, radix-4, lazy-reduction butterflies there
    (safe on several domains and systhreads at once); otherwise (prime > 2^30) bounces
    through the scalar reference path. Both produce bit-identical
    canonical residues. *)

val inverse_buf : table -> Rvec.buf -> unit

val pointwise_mul : table -> int array -> int array -> int array
(** Pointwise product mod [prime] (operands in transform domain). *)

val negacyclic_mul : table -> int array -> int array -> int array
(** Full negacyclic convolution of two coefficient-domain polynomials. *)

(** Negacyclic number-theoretic transform modulo a prime below [2^30].

    Multiplication of polynomials in [Z_p\[X\]/(X^n + 1)] is pointwise
    multiplication in the transform domain. The algorithm is the
    [psi]-twisted iterative Cooley–Tukey / Gentleman–Sande pair used by SEAL,
    with tables of powers of the [2n]-th root of unity in bit-reversed
    order, run cache-blocked and radix-4 with lazy Shoup reduction on a
    domain-local native-int scratch. The schoolbook transform it matches
    bit for bit lives with the tests ([test/ring_oracle.ml]). *)

type table

val make_table : n:int -> prime:int -> table
(** Precompute tables for size [n] (a power of two) and a prime
    [p ≡ 1 mod 2n] below [2^30], which keeps the lazy [\[0, 2p)] window
    under the Shoup operand bound of [2^31].
    @raise Invalid_argument if the conditions do not hold. *)

val n : table -> int
val prime : table -> int

val forward_buf : table -> Rvec.buf -> unit
(** In-place forward transform of a buffer of [n] canonical residues,
    leaving canonical residues. Safe on several domains and systhreads at
    once. *)

val inverse_buf : table -> Rvec.buf -> unit
(** In-place inverse; [inverse_buf t] undoes [forward_buf t]. *)

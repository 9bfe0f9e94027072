(** Unboxed residue-vector kernels over [Bigarray] buffers.

    The storage kind is [Bigarray.int32]: one residue per 32-bit word, half
    the memory of native-int storage. Reads and writes convert to and from
    native ints in the same expression, which ocamlopt compiles to a plain
    word load/store without boxing. Every stored value must be below
    [2^31]: canonical residues of a prime [p < 2^30] ({!Rq_rns.make_ctx}
    rejects larger primes); the NTT's lazy [\[0, 2p)] window lives in its
    own native-int scratch. A larger value would wrap silently.
    Fast kernels (Shoup for one fixed operand; hardware [mod] where both
    operands vary) are bit-identical to the schoolbook [mod] computation
    the tests check them against — see DESIGN.md §15 for the bound table
    and the error analysis. Two kernels fuse what would be many passes:
    {!inner_product_into} (a key switch's digits) and {!sum_into} (a
    multiply-accumulate chain, a pending ciphertext sum). *)

type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> buf
(** Uninitialised buffer of the given length. *)

val zeroed : int -> buf
val length : buf -> int
val get : buf -> int -> int
val set : buf -> int -> int -> unit
val fill : buf -> int -> unit
val blit : buf -> buf -> unit
val copy : buf -> buf
val of_int_array : int array -> buf
val to_int_array : buf -> int array
val equal : buf -> buf -> bool

(** {1 Additive kernels} — branchless conditional-subtract reduction. All
    [_into] kernels write every element of their destination; aliasing
    [dst] with an operand is allowed. *)

val add_into : buf -> buf -> buf -> int -> unit
val sub_into : buf -> buf -> buf -> int -> unit
val neg_into : buf -> buf -> int -> unit

(** {1 Multiplicative kernels} *)

val pointwise_mul_into : buf -> buf -> buf -> int -> unit
(** [pointwise_mul_into dst a b p]: [dst.(i) <- a.(i)*b.(i) mod p]. *)

val inner_product_into :
  buf -> buf -> buf array -> buf array -> buf array -> int array -> int -> unit
(** [inner_product_into acc0 acc1 ds bs cs index p]: the key switch's inner
    product over one channel, with the digits read through [index],
    [acc0.(i) <- Σ_j ds_j.(index.(i))*bs_j.(i) mod p] and
    [acc1.(i) <- Σ_j ds_j.(index.(i))*cs_j.(i) mod p], in one pass that
    keeps both sums in registers and reduces only when another product
    could overflow. [index] is the identity for a plain key switch and a
    Galois permutation ({!permute_into}'s) for a hoisted rotation.
    Bit-identical to permuting the digits, then a chain of per-digit
    multiply-accumulates. The destinations must not alias an operand. *)

val sum_into :
  buf -> buf array -> int array -> buf array -> buf array -> lift:int -> int -> unit
(** [sum_into dst vs ws xs ys ~lift p]: a multiply-accumulate chain in one
    pass, [dst.(i) <- lift·Σ_j xs_j.(i)*ys_j.(i) + Σ_k ws_k*vs_k.(i) mod p]
    ([ws] and [lift] any ints). Scalar terms are Shoup products kept in
    [\[0, 2p)], products are reduced every few terms, and the sum is
    reduced once, over blocks of coefficients that stay in L1.
    Bit-identical to the chain of {!scalar_mac_into} and plaintext
    multiply-accumulate passes it replaces. [dst] must not alias an
    operand. *)

val scalar_mul_into : buf -> buf -> int -> int -> unit
(** [scalar_mul_into dst a s p]: Shoup multiplication by the fixed scalar
    [s] (any int; reduced mod [p] first). *)

val scalar_mac_into : buf -> buf -> buf -> int -> int -> unit
(** [scalar_mac_into dst a b s p]: [dst.(i) <- a.(i) + s*b.(i) mod p], one
    Shoup step per element ([s] any int). *)

val sub_scale_into : buf -> buf -> buf -> int -> int -> unit
(** [sub_scale_into dst a b s p]: [dst.(i) <- (a.(i) - b.(i))*s mod p] — the
    last step of a rounded division, with [s] the divisor's inverse. *)

val lift_centered_into : buf -> buf -> from:int -> int -> unit
(** [lift_centered_into dst src ~from p]: lift residues mod [from] to their
    centered representatives in [(-from/2, from/2\]] and reduce those into
    [\[0, p)] — a one-prime key-switch digit. *)

val garner_digit_into : buf -> buf -> buf -> q_lo:int -> q_hi:int -> unit
(** [garner_digit_into g lo hi ~q_lo ~q_hi]: the residues
    [(lo.(i), hi.(i))] mod [(q_lo, q_hi)] name one value
    [x = lo.(i) + q_lo·t] mod [Q = q_lo·q_hi] ([Q < 2^62]); store its
    mixed-radix digit [t], with the sign of the stored word marking that
    the centered representative is [x - Q]. Computed once per coefficient,
    then reduced into every target prime by {!lift_garner_into}. *)

val lift_garner_into : buf -> buf -> buf -> q_lo:int -> q_hi:int -> int -> unit
(** [lift_garner_into dst lo g ~q_lo ~q_hi p]: the centered value that
    [lo] and {!garner_digit_into}'s [g] name, reduced into [\[0, p)] — a
    two-prime key-switch digit, and the special modulus's share in the
    mod-down. *)

(** {1 Boundary kernels} *)

val reduce_centered_into : buf -> int array -> int -> unit
(** Reduce centered native-int coefficients into canonical residues. *)

val permute_into : buf -> buf -> int array -> unit
(** [permute_into dst src index]: [dst.(i) <- src.(index.(i))] — the Galois
    permutation of an NTT-form residue vector
    ({!Encoding.ntt_automorphism_index}). [dst] must not alias [src]. *)

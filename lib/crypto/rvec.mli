(** Unboxed residue-vector kernels over [Bigarray] buffers.

    The storage kind is [Bigarray.int32]: one residue per 32-bit word, half
    the memory of native-int storage. Reads and writes convert to and from
    native ints in the same expression, which ocamlopt compiles to a plain
    word load/store without boxing. Every stored value must be below
    [2^31]: canonical residues of a prime [p < 2^31] ({!Rq_rns.make_ctx}
    rejects larger primes) at rest, and the NTT's internal lazy [\[0, 2p)]
    window only for primes [p <= 2^30]. A larger value would wrap silently.
    Fast kernels (Shoup for one fixed operand; hardware [mod] where both
    operands vary) are bit-identical to the schoolbook [mod] computation
    the tests check them against — see DESIGN.md §15 for the bound table
    and the error analysis. *)

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
val blit_from_array : int array -> buf -> unit
val blit_to_array : buf -> int array -> unit
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

val pointwise_mac_into : buf -> buf -> buf -> int -> unit
(** [pointwise_mac_into acc a b p]: [acc.(i) <- acc.(i) + a.(i)*b.(i) mod p]. *)

val scalar_mul_into : buf -> buf -> int -> int -> unit
(** [scalar_mul_into dst a s p]: Shoup multiplication by the fixed scalar
    [s] (any int; reduced mod [p] first). *)

val lift_centered_into : buf -> buf -> from:int -> int -> unit
(** [lift_centered_into dst src ~from p]: lift residues mod [from] to their
    centered representatives in [(-from/2, from/2\]] and reduce those into
    [\[0, p)] — a one-prime key-switch digit. *)

val lift_pair_centered_into : buf -> buf -> buf -> q_lo:int -> q_hi:int -> int -> unit
(** [lift_pair_centered_into dst lo hi ~q_lo ~q_hi p]: the residues
    [(lo.(i), hi.(i))] mod [(q_lo, q_hi)] name one value mod [Q = q_lo·q_hi]
    ([Q < 2^62]); lift it exactly to its centered representative in
    [(-Q/2, Q/2\]] and reduce that into [\[0, p)] — a two-prime key-switch
    digit, and the special modulus's share in the mod-down. *)

val rescale_limb_into : buf -> buf -> buf -> q_last:int -> p:int -> unit
(** [rescale_limb_into dst src last ~q_last ~p]: one limb of the CKKS
    rescale, [dst = (src - \[last\]_centered) / q_last mod p]. *)

(** {1 Boundary kernels} *)

val reduce_centered_into : buf -> int array -> int -> unit
(** Reduce centered native-int coefficients into canonical residues. *)

val automorphism_into : buf -> buf -> (int * bool) array -> int -> unit
(** [automorphism_into dst src index p]: apply a precomputed Galois
    permutation-with-sign table ({!Encoding.automorphism_index}). [dst]
    must not alias [src]. *)

val permute_into : buf -> buf -> int array -> unit
(** [permute_into dst src index]: [dst.(i) <- src.(index.(i))] — the Galois
    permutation of an NTT-form residue vector
    ({!Encoding.ntt_automorphism_index}). [dst] must not alias [src]. *)

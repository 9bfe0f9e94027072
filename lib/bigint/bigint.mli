(** Arbitrary-precision signed integers.

    This module is the substrate that stands in for GMP in the HEAAN-style
    CKKS implementation ({!Chet_crypto.Big_ckks}), where ciphertext
    coefficients live modulo [Q] up to [2^1200]. Magnitudes are little-endian
    arrays of base-[2^31] limbs, so limb products stay within OCaml's native
    63-bit integers. *)

type t

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int : t -> int
(** @raise Failure if the value does not fit in a native [int]. *)

val to_int_opt : t -> int option
val to_float : t -> float

val of_string : string -> t
(** Decimal, with optional leading [-]. [0x]-prefixed hex also accepted.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val pp : Format.formatter -> t -> unit

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val add_int : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], truncated towards zero, so
    [sign r = sign a] (or [r = 0]) and [|r| < |b|].
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv_rem : t -> t -> t * t
(** Euclidean division: remainder is always in [\[0, |b|)]. *)

val emod : t -> t -> t

val div_round : t -> t -> t
(** Division rounded to the nearest integer (ties away from zero). Used by
    CKKS rescaling, where [round(c / 2^k)] must be exact. *)

val pow : t -> int -> t
(** [pow b e] for [e >= 0]. @raise Invalid_argument on negative exponent. *)

val modpow : t -> t -> t -> t
(** [modpow b e m] = [b^e mod m] (euclidean, result in [\[0, m)]). *)

val gcd : t -> t -> t

(** {1 Bit operations} *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift towards zero on the magnitude ([a / 2^k] truncated). *)

val num_bits : t -> int
(** Bits in the magnitude; [num_bits zero = 0]. *)

val is_even : t -> bool

val pow2 : int -> t
(** [pow2 k] = [2^k]. *)

val mod_int : t -> int -> int
(** [mod_int a m] for [0 < m < 2^31]: euclidean remainder in [\[0, m)],
    computed limb-wise (much faster than [emod] with a bigint modulus). *)

val centered_mod : t -> t -> t
(** [centered_mod a q] is the representative of [a mod q] in
    [\[-q/2, q/2)]. [q] must be positive. *)

(** {1 Randomness} *)

val random_below : (unit -> int) -> t -> t
(** [random_below rand31 bound]: uniform in [\[0, bound)] given a generator
    of uniform 31-bit non-negative ints. [bound] must be positive. *)

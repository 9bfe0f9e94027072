(** Modular arithmetic for word-sized primes.

    All moduli are required to be below [2^31] so that products of residues
    stay within OCaml's native 63-bit integers. This is the substitute for
    SEAL's 60-bit "small modulus" arithmetic (see DESIGN.md §2): the RNS
    structure is identical, only the limb width differs. *)

val add_mod : int -> int -> int -> int
(** [add_mod a b p] for [0 <= a, b < p]. *)

val sub_mod : int -> int -> int -> int
val neg_mod : int -> int -> int

val mul_mod : int -> int -> int -> int
(** [mul_mod a b p]; exact for [p < 2^31]. *)

val pow_mod : int -> int -> int -> int
(** [pow_mod b e p] for [e >= 0]. *)

val inv_mod : int -> int -> int
(** Modular inverse by extended Euclid.
    @raise Invalid_argument if not invertible. *)

val reduce : int -> int -> int
(** [reduce a p] maps any native int (possibly negative) into [\[0, p)]. *)

val shoup : int -> int -> int
(** [shoup w p = (w << 31) / p], the precomputed companion word for
    {!mul_mod_shoup}. Requires [0 <= w < p < 2^31]. *)

val mul_mod_shoup : int -> int -> int -> int -> int
(** [mul_mod_shoup w wsh x p] computes [w * x mod p] using the companion
    [wsh = shoup w p], with one predicted shift-quotient instead of a
    hardware divide. Exact for any [x < 2^31] (canonical or lazy). *)

val is_prime : int -> bool
(** Deterministic Miller–Rabin, valid for all [n < 3_215_031_751]
    (covers every modulus we use). *)

val gen_ntt_prime : bits:int -> modulus_of:int -> below:int -> int
(** [gen_ntt_prime ~bits ~modulus_of:m ~below] finds the largest prime
    [p < min(2^bits, below)] with [p ≡ 1 (mod m)] — the condition for a
    [2N]-th root of unity to exist when [m = 2N].
    @raise Invalid_argument if [bits > 30]: every RNS prime is below
      [2^30], the bound of {!Ntt.make_table}.
    @raise Not_found if none exists in range. *)

val gen_ntt_primes : bits:int -> modulus_of:int -> count:int -> int array
(** [count] distinct NTT-friendly primes of about [bits] bits, descending.
    @raise Invalid_argument if [bits > 30]. *)

val primitive_root : int -> int
(** A generator of the multiplicative group mod prime [p]. *)

val root_of_unity : order:int -> int -> int
(** [root_of_unity ~order p]: an element of multiplicative order exactly
    [order] mod prime [p]. Requires [order | p - 1]. *)

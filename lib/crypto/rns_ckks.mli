(** RNS-CKKS: the full residue-number-system variant of the CKKS approximate
    FHE scheme (Cheon et al., SAC 2018) — the scheme implemented by
    "SEAL v3.1" in the paper.

    Ciphertexts live over a chain of NTT-friendly primes [q_0 … q_{l-1}];
    {!rescale} drops primes from the end of the chain. Key switching is
    hybrid (Han–Ki 2020, DESIGN.md §15): the two largest generated primes
    form the special modulus [P = p_0·p_1], the chain is decomposed into
    digits of two consecutive primes, each lifted exactly to its centered
    value, and a key carries one pair per digit. *)

module Rq = Rq_rns
module Bigint = Chet_bigint.Bigint

type params = {
  n : int;  (** ring dimension (power of two); SIMD width is [n/2] *)
  coeff_modulus_bits : int;  (** bit size of each chain prime *)
  num_coeff_primes : int;  (** chain length [L] *)
  sigma : float;  (** RLWE error stddev *)
}

val default_params : ?n:int -> ?bits:int -> num_coeff_primes:int -> unit -> params

type context

val make_context : params -> context
val params : context -> params
val slot_count : context -> int
val coeff_primes : context -> int array
val special_primes : context -> int array
(** [\[| p_0; p_1 |\]], the key-switching special modulus [P = p_0·p_1];
    both exceed every chain prime. *)

val max_level : context -> int
(** = [num_coeff_primes]; fresh ciphertexts start here. *)

val total_modulus_bits : context -> int
(** [log2 (Q * P)] — the quantity the security table bounds. *)

val encoding : context -> Encoding.ctx

val rq_ctx : context -> Rq_rns.ctx
(** The underlying polynomial-ring context (serialisation needs it). *)

type secret_key
type public_key
type kswitch_key

type keys = {
  public : public_key;
  relin : kswitch_key;
  rotation : (int, kswitch_key) Hashtbl.t;  (** galois element -> key *)
}

val keygen : context -> Sampling.t -> secret_key * keys
(** Generates secret, public and relinearisation keys (no rotation keys —
    add them with {!add_rotation_key}, mirroring CHET's explicit
    rotation-key selection). *)

val add_rotation_key : context -> Sampling.t -> secret_key -> keys -> int -> unit
(** [add_rotation_key ctx rng sk keys r]: create the key for rotating slots
    left by [r] (negative = right). Idempotent. *)

val add_power_of_two_rotation_keys : context -> Sampling.t -> secret_key -> keys -> unit
(** The scheme-default configuration: keys for every power-of-two left and
    right rotation ([2·log2(n/2)] keys, §2.4). *)

val rotation_key_count : keys -> int

val key_bytes : keys -> int
(** Residue bytes of the relinearisation and rotation keys: each holds
    [⌈L/2⌉] pairs over the [L + 2] key-basis primes. *)

type plaintext = { poly : Rq.t; pt_scale : float; pt_level : int }
type ciphertext = { c0 : Rq.t; c1 : Rq.t; level : int; scale : float }

val encode : context -> level:int -> scale:float -> Complexv.t -> plaintext
(** Encode [n/2] complex slot values. *)

val encode_real : context -> level:int -> scale:float -> float array -> plaintext

val decode : context -> plaintext -> Complexv.t

val encrypt : context -> Sampling.t -> public_key -> plaintext -> ciphertext
val decrypt : context -> secret_key -> ciphertext -> plaintext

val add : context -> ciphertext -> ciphertext -> ciphertext
val sub : context -> ciphertext -> ciphertext -> ciphertext
val negate : context -> ciphertext -> ciphertext
val add_plain : context -> ciphertext -> plaintext -> ciphertext
val sub_plain : context -> ciphertext -> plaintext -> ciphertext

val mul : context -> keys -> ciphertext -> ciphertext -> ciphertext
(** Ciphertext–ciphertext product, relinearised. Scales multiply. *)

val mul_plain : context -> ciphertext -> plaintext -> ciphertext

val mul_scalar : context -> ciphertext -> float -> scale:float -> ciphertext
(** [mul_scalar ctx ct x ~scale]: multiply every slot by [round(x·scale)]
    (an integer constant — the cheap [mulScalar] of Table 2). *)

val add_scalar : context -> ciphertext -> float -> ciphertext
val max_rescale : context -> ciphertext -> int -> int
(** Largest product of next chain primes [<= ub] (Table 2 semantics; returns
    1 if even the next prime exceeds [ub]) — {!Modulus.max_rescale}. *)

val rescale : context -> ciphertext -> int -> ciphertext
(** [rescale ctx ct x]: drop the primes {!Modulus.rescale} says [x] is the
    product of, dividing the scale by each in turn.
    @raise Chet_herr.Herr.Fhe_error ([Illegal_rescale], [Modulus_exhausted])
      when the rule rejects [x]. *)

val mod_switch_to_level : context -> ciphertext -> int -> ciphertext
(** Drop chain primes (without rescaling — the scale is unchanged) until the
    ciphertext sits at the given level. Exact: [Q'] divides [Q]. *)

val rotate : context -> keys -> ciphertext -> int -> ciphertext
(** Rotate slots left by [r] using the exact key for [r]; falls back to a
    sequence of power-of-two rotations when the exact key is absent.
    @raise Not_found if no combination of available keys reaches [r]. *)

val rotate_many : context -> keys -> ciphertext -> int array -> ciphertext array
(** [rotate_many ctx keys ct amounts]: [ct] rotated left by each amount, with
    the key-switch digit decomposition of [ct] shared by every amount that
    has its own key (hoisting). Amounts without an exact key go through
    {!rotate}. Every result is bit for bit {!rotate}'s: the centered digits
    commute with the automorphism. *)

val rotate_key_available : keys -> context -> int -> bool

val level_of : ciphertext -> int
val scale_of : ciphertext -> float

(** {1 Key part accessors} — serialisation of the Figure-3 protocol's public
    material (the secret key deliberately has no accessor). *)

val public_key_parts : public_key -> Rq.t * Rq.t
val public_key_of_parts : Rq.t * Rq.t -> public_key
val kswitch_pairs : kswitch_key -> (Rq.t * Rq.t) array
(** One [(b_j, a_j)] pair per digit of a top-level ciphertext
    ([⌈L/2⌉] pairs), each over the full key basis. *)

val kswitch_of_pairs : (Rq.t * Rq.t) array -> kswitch_key

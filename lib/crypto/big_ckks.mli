(** CKKS with a power-of-two coefficient modulus and big-integer arithmetic —
    the original scheme of Cheon–Kim–Kim–Song (ASIACRYPT 2017) as implemented
    by HEAAN v1.0, which the paper's "CHET-HEAAN" configuration targets.

    Differences from {!Rns_ckks} that matter to CHET:
    - the modulus is [Q = 2^logq]; {!rescale} divides by any power of two
      ([maxRescale] returns [2^⌊log2 ub⌋]), so scale management is exact;
    - key switching uses a single special modulus [P = 2^log_special] rather
      than RNS digits;
    - ciphertexts carry their own [logq], which shrinks as the computation
      proceeds. *)

module Bigint = Chet_bigint.Bigint

type params = {
  n : int;
  log_fresh : int;  (** [log2 Q] of fresh ciphertexts *)
  log_special : int;  (** [log2 P] for key switching; HEAAN uses [≈ log_fresh] *)
  sigma : float;
}

val default_params : ?n:int -> ?log_special:int -> log_fresh:int -> unit -> params

type context

val make_context : params -> context
val params : context -> params
val slot_count : context -> int
val encoding : context -> Encoding.ctx
val total_modulus_bits : context -> int

type secret_key
type public_key
type kswitch_key

type keys = {
  public : public_key;
  relin : kswitch_key;
  rotation : (int, kswitch_key) Hashtbl.t;
}

val keygen : context -> Sampling.t -> secret_key * keys
val add_rotation_key : context -> Sampling.t -> secret_key -> keys -> int -> unit
val add_power_of_two_rotation_keys : context -> Sampling.t -> secret_key -> keys -> unit
val rotation_key_count : keys -> int

type plaintext = { poly : Rq_big.t; pt_scale : float }
type ciphertext = { c0 : Rq_big.t; c1 : Rq_big.t; scale : float }

val encode : context -> logq:int -> scale:float -> Complexv.t -> plaintext
val encode_real : context -> logq:int -> scale:float -> float array -> plaintext
val decode : context -> plaintext -> Complexv.t
val encrypt : context -> Sampling.t -> public_key -> plaintext -> ciphertext
val decrypt : context -> secret_key -> ciphertext -> plaintext
val add : context -> ciphertext -> ciphertext -> ciphertext
val sub : context -> ciphertext -> ciphertext -> ciphertext
val negate : context -> ciphertext -> ciphertext
val add_plain : context -> ciphertext -> plaintext -> ciphertext
val sub_plain : context -> ciphertext -> plaintext -> ciphertext
val mul : context -> keys -> ciphertext -> ciphertext -> ciphertext
val mul_plain : context -> ciphertext -> plaintext -> ciphertext
val mul_scalar : context -> ciphertext -> float -> scale:float -> ciphertext
val add_scalar : context -> ciphertext -> float -> ciphertext

val max_rescale : context -> ciphertext -> int -> int
(** Largest power of two [<= ub] (and [< 2^logq]) — {!Modulus.max_rescale}. *)

val rescale : context -> ciphertext -> int -> ciphertext
(** [rescale ctx ct x]: shift off the bits {!Modulus.rescale} consumes for
    [x], a power of two.
    @raise Chet_herr.Herr.Fhe_error ([Illegal_rescale], [Modulus_exhausted])
      when the rule rejects [x]. *)

val mod_down : context -> ciphertext -> logq:int -> ciphertext
val rotate : context -> keys -> ciphertext -> int -> ciphertext
val rotate_key_available : keys -> context -> int -> bool
val logq_of : ciphertext -> int
val scale_of : ciphertext -> float
val pt_logq : plaintext -> int

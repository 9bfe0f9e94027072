(** The shared shape of the two real-scheme HISA backends.

    {!Seal_backend} (RNS-CKKS) and {!Heaan_backend} (power-of-two CKKS)
    differ only in how a ciphertext's modulus is named — an RNS level or a
    [logq] exponent. {!Make} abstracts that into an integer [handle] and
    builds the whole {!Hisa.S} implementation (lazy per-handle plaintext
    encoding cache, modulus equalisation before binary ops, fused ops,
    the scheme's own [rot_many]) once. *)

module Complexv = Chet_crypto.Complexv

(** What a concrete CKKS scheme must provide. *)
module type SCHEME = sig
  val backend_name : string

  type context
  type keys
  type secret_key
  type plaintext
  type ciphertext

  val slot_count : context -> int
  val ring_degree : context -> int

  val fresh_handle : context -> int
  (** Modulus handle of a fresh ciphertext: the max RNS level (SEAL) or
      [log_fresh] (HEAAN). *)

  val handle_of : ciphertext -> int
  val mod_to : context -> ciphertext -> int -> ciphertext
  val env_of : context -> ciphertext -> Hisa.op_env
  val encode_real : context -> handle:int -> scale:float -> float array -> plaintext
  val decode : context -> plaintext -> Complexv.t
  val encrypt : context -> Chet_crypto.Sampling.t -> keys -> plaintext -> ciphertext
  val decrypt : context -> secret_key -> ciphertext -> plaintext
  val add : context -> ciphertext -> ciphertext -> ciphertext
  val mul : context -> keys -> ciphertext -> ciphertext -> ciphertext
  val add_plain : context -> ciphertext -> plaintext -> ciphertext
  val mul_plain : context -> ciphertext -> plaintext -> ciphertext
  val add_scalar : context -> ciphertext -> float -> ciphertext
  val mul_scalar : context -> ciphertext -> float -> scale:float -> ciphertext

  val fma_scalar : context -> ciphertext -> ciphertext -> float -> scale:float -> ciphertext
  (** [fma_scalar ctx acc x w ~scale] = [add ctx acc (mul_scalar ctx x w ~scale)]
      and [fma_plain ctx acc x p] = [add ctx acc (mul_plain ctx x p)], bit
      for bit, for operands at one modulus handle: {!Hisa.S.fma_scalar} and
      {!Hisa.S.fma_plain}. A scheme fuses them into one pass (RNS-CKKS,
      which also accumulates unsettled rotations in the key basis) or
      composes them (HEAAN). *)

  val fma_plain : context -> ciphertext -> ciphertext -> plaintext -> ciphertext
  val rotate : context -> keys -> ciphertext -> int -> ciphertext

  val rotate_many : context -> keys -> ciphertext -> int array -> ciphertext array
  (** {!Hisa.S.rot_many}: hoisted rotations, or the composition of
      [rotate] where the scheme has none. *)

  val rescale : context -> ciphertext -> int -> ciphertext
  val max_rescale : context -> ciphertext -> int -> int
  val scale_of : ciphertext -> float
end

module Make (S : SCHEME) : sig
  type config = {
    ctx : S.context;
    rng : Chet_crypto.Sampling.t;
    keys : S.keys;
    secret : S.secret_key option;  (** client-side only; [decrypt] raises without it *)
  }

  val make : config -> Hisa.t
end

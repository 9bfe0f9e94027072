(* The Homomorphic Instruction Set Architecture (Table 2 of the paper): the
   interface between the CHET runtime kernels and an FHE scheme. Backends:

   - Seal_backend  : real RNS-CKKS ("SEAL v3.1")
   - Heaan_backend : real power-of-two CKKS ("HEAAN v1.0")
   - Shape_backend : value-free (scale, modulus) facts, the analyses' target,
     and the scale algebra the other interpretations share
   - Clear_backend : unencrypted reference — slot values carrying Shape's
     record; CHET's "different interpretation" execution vehicle

   Further interpretations observe another backend without changing its
   values: they are hooks on {!intercept} (Instrument's op counters,
   Sim_backend's cost clock, Timed_backend's wall-time cells). Checked and
   Fault wrappers replace the ciphertext itself and are written out by hand.
   Backends that do not fuse slot passes take their [fma_*] ops from
   {!Fused_default} (the CKKS backends take [fma_scalar] and [fma_plain]
   from their scheme).

   Only the ops the runtime calls are carried. Table 2's other ops are
   expressed through them: a right rotation by [k] is [rot_left] by [-k],
   and the garbage collector stands in for [copy] and [free] (ciphertexts
   are immutable values; a plan's arena frees a slot by dropping it). *)

module Modulus = Chet_crypto.Modulus

(** How the target scheme restricts [rescale] divisors — the only scheme
    behaviour the analyses must reproduce exactly (§5.2). The rule itself
    is {!Modulus.rescale}, shared by the schemes and every interpretation. *)
type scheme_kind = Modulus.kind =
  | Rns_chain of int array  (** remaining divisors are next chain primes *)
  | Pow2_modulus of int  (** any power of two [< Q]; field is [log2 Q] *)

(** Status of a ciphertext's modulus when an op executes: [r] is the number
    of active RNS primes (RNS-CKKS), [log_q] the current modulus bits
    (CKKS). Cost models read whichever their scheme needs. *)
type op_env = { env_n : int; env_r : int; env_log_q : int }

(** The {!op_env} of a ciphertext at [level] in a ring of degree [n]. *)
let env_at ~n = function
  | Modulus.Rns_level r -> { env_n = n; env_r = r; env_log_q = 0 }
  | Modulus.Logq q -> { env_n = n; env_r = 0; env_log_q = q }

(** The level an {!op_env} reports, read as [kind]'s form. *)
let level_of_env kind e =
  match kind with Rns_chain _ -> Modulus.Rns_level e.env_r | Pow2_modulus _ -> Modulus.Logq e.env_log_q

(** Every HISA op but the fused ones; see {!S}. *)
module type UNFUSED = sig
  val slots : int
  (** SIMD width ([N/2] for CKKS schemes; 1 for schemes without batching). *)

  type pt
  type ct

  val encode : float array -> scale:int -> pt
  val decode : pt -> float array
  val encrypt : pt -> ct
  val decrypt : ct -> pt
  val rot_left : ct -> int -> ct
  val add : ct -> ct -> ct
  val add_plain : ct -> pt -> ct
  val add_scalar : ct -> float -> ct
  val mul : ct -> ct -> ct
  val mul_plain : ct -> pt -> ct

  val mul_scalar : ct -> float -> scale:int -> ct
  (** Multiply by [round(x · scale)], a plaintext integer constant applied to
      every slot — cheaper than [mul_plain] in CKKS (Table 1). *)

  val rescale : ct -> int -> ct
  (** Divisor must come from {!max_rescale}. *)

  val max_rescale : ct -> int -> int
  val scale_of : ct -> float

  val env_of : ct -> op_env
  (** Ring dimension and current modulus status — what the compiler's
      analyses need to observe (consumed levels, current logQ). *)
end

module type S = sig
  include UNFUSED

  val fma_scalar : ct -> ct -> float -> scale:int -> ct
  (** [fma_scalar acc x w ~scale] = [add acc (mul_scalar x w ~scale)] as one
      fused step: the accumulate pattern of every convolution tap. Backends
      that hold slot values fuse the two passes into one (no intermediate
      ciphertext); the per-slot arithmetic order is identical to the
      composition, so results are bit-identical. *)

  val fma_plain : ct -> ct -> pt -> ct
  (** [fma_plain acc x p] = [add acc (mul_plain x p)], fused. *)

  val fma_rot : ct -> ct -> int -> ct
  (** [fma_rot acc x r] = [add acc (rot_left x r)], fused — the
      rotate-accumulate step of fold/reduce trees. [r] is normalised modulo
      [slots]; [r = 0] degenerates to [add]. [acc == x] is permitted (the
      self-fold case): the result is a fresh ciphertext. *)

  val rot_many : ct -> int array -> ct array
  (** [rot_many x ks] = [Array.map (rot_left x) ks], hoisted: a scheme that
      key-switches rotations decomposes [x] once and shares that work across
      every amount (Halevi–Shoup 2018). Values agree with the composition up
      to scheme noise; backends without hoisting compute exactly it. *)
end

type t = (module S)

(** The fused ops as the composition they stand for — for backends with
    nothing to gain from fusing the two passes. *)
module Fused_default (B : UNFUSED) : S with type pt = B.pt and type ct = B.ct = struct
  include B

  let fma_scalar acc x w ~scale = B.add acc (B.mul_scalar x w ~scale)
  let fma_plain acc x p = B.add acc (B.mul_plain x p)
  let fma_rot acc x r = B.add acc (B.rot_left x (((r mod B.slots) + B.slots) mod B.slots))
  let rot_many x ks = Array.map (B.rot_left x) ks
end

(* ------------------------------------------------------------------ *)
(* Interception (§5.1's "different interpretations" of one runtime)     *)
(* ------------------------------------------------------------------ *)

(** One call of a {!S} op, as an interceptor sees it. Rotations carry their
    amounts as passed, [Rescale] its divisor. [max_rescale], [scale_of] and
    [env_of] are not intercepted. *)
type op =
  | Encode
  | Decode
  | Encrypt
  | Decrypt
  | Rot_left of int
  | Add
  | Add_plain
  | Add_scalar
  | Mul
  | Mul_plain
  | Mul_scalar
  | Fma_scalar
  | Fma_plain
  | Fma_rot of int
  | Rot_many of int array
  | Rescale of int

(** The op's {!S} name — the key of timing cells and cost classes. *)
let op_name = function
  | Encode -> "encode"
  | Decode -> "decode"
  | Encrypt -> "encrypt"
  | Decrypt -> "decrypt"
  | Rot_left _ -> "rot_left"
  | Add -> "add"
  | Add_plain -> "add_plain"
  | Add_scalar -> "add_scalar"
  | Mul -> "mul"
  | Mul_plain -> "mul_plain"
  | Mul_scalar -> "mul_scalar"
  | Fma_scalar -> "fma_scalar"
  | Fma_plain -> "fma_plain"
  | Fma_rot _ -> "fma_rot"
  | Rot_many _ -> "rot_many"
  | Rescale _ -> "rescale"

(** [around op env run] is called once per intercepted op and must call
    [run] exactly once, returning its result. [env i] is the {!op_env} of
    the op's [i]-th ciphertext operand as it is before the op runs (0: the
    first — the accumulator of a fused op; 1: the second); it is computed
    only when asked for, and raises [Invalid_argument] past the op's
    ciphertext operands (encode, decode and encrypt have none). *)
type hook = { around : 'a. op -> (int -> op_env) -> (unit -> 'a) -> 'a }

let intercept (h : hook) (backend : t) : t =
  let module B = (val backend) in
  (module struct
    include B

    let none _ = invalid_arg "Hisa.intercept: no such ciphertext operand"
    let env1 c i = if i = 0 then B.env_of c else none i
    let env2 a b i = if i = 0 then B.env_of a else if i = 1 then B.env_of b else none i
    let encode v ~scale = h.around Encode none (fun () -> B.encode v ~scale)
    let decode p = h.around Decode none (fun () -> B.decode p)
    let encrypt p = h.around Encrypt none (fun () -> B.encrypt p)
    let decrypt c = h.around Decrypt (env1 c) (fun () -> B.decrypt c)
    let rot_left c k = h.around (Rot_left k) (env1 c) (fun () -> B.rot_left c k)
    let add a b = h.around Add (env2 a b) (fun () -> B.add a b)
    let add_plain c p = h.around Add_plain (env1 c) (fun () -> B.add_plain c p)
    let add_scalar c x = h.around Add_scalar (env1 c) (fun () -> B.add_scalar c x)
    let mul a b = h.around Mul (env2 a b) (fun () -> B.mul a b)
    let mul_plain c p = h.around Mul_plain (env1 c) (fun () -> B.mul_plain c p)
    let mul_scalar c x ~scale = h.around Mul_scalar (env1 c) (fun () -> B.mul_scalar c x ~scale)

    let fma_scalar acc x w ~scale =
      h.around Fma_scalar (env2 acc x) (fun () -> B.fma_scalar acc x w ~scale)

    let fma_plain acc x p = h.around Fma_plain (env2 acc x) (fun () -> B.fma_plain acc x p)
    let fma_rot acc x r = h.around (Fma_rot r) (env2 acc x) (fun () -> B.fma_rot acc x r)
    let rot_many c ks = h.around (Rot_many ks) (env1 c) (fun () -> B.rot_many c ks)
    let rescale c x = h.around (Rescale x) (env1 c) (fun () -> B.rescale c x)
  end)

(* ------------------------------------------------------------------ *)
(* Cost models (Table 1)                                               *)
(* ------------------------------------------------------------------ *)

(** Seconds per op at a modulus status — what {!Sim_backend}'s clock
    charges; Chet.Cost_model builds the SEAL and HEAAN instances. *)
type cost_model = {
  cm_add : op_env -> float;
  cm_scalar_mul : op_env -> float;
  cm_plain_mul : op_env -> float;
  cm_cipher_mul : op_env -> float;
  cm_rotate : op_env -> float;
  cm_rot_hoisted : op_env -> float;
      (** one amount of a {!S.rot_many} call, the shared decomposition
          amortised over the call *)
  cm_rescale : op_env -> float;
}

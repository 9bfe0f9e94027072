(* The Homomorphic Instruction Set Architecture (Table 2 of the paper): the
   interface between the CHET runtime kernels and an FHE scheme. Backends:

   - Seal_backend  : real RNS-CKKS ("SEAL v3.1")
   - Heaan_backend : real power-of-two CKKS ("HEAAN v1.0")
   - Clear_backend : unencrypted reference that mimics scale/modulus
     semantics — CHET's "different interpretation" execution vehicle
   - Shape_backend : value-free (scale, modulus) facts, the analyses' target

   Further interpretations observe another backend without changing its
   values: they are hooks on {!intercept} (Instrument's op counters,
   Sim_backend's cost clock, Timed_backend's wall-time cells). Checked and
   Fault wrappers replace the ciphertext itself and are written out by hand.
   Backends that do not fuse slot passes take their [fma_*] ops from
   {!Fused_default}. *)

(** How the target scheme restricts [rescale] divisors — the only scheme
    behaviour the analyses must reproduce exactly (§5.2). *)
type scheme_kind =
  | Rns_chain of int array  (** remaining divisors are next chain primes *)
  | Pow2_modulus of int  (** any power of two [< Q]; field is [log2 Q] *)

(** Status of a ciphertext's modulus when an op executes: [r] is the number
    of active RNS primes (RNS-CKKS), [log_q] the current modulus bits
    (CKKS). Cost models read whichever their scheme needs. *)
type op_env = { env_n : int; env_r : int; env_log_q : int }

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
  val copy : ct -> ct
  val free : ct -> unit
  val rot_left : ct -> int -> ct
  val rot_right : ct -> int -> ct
  val add : ct -> ct -> ct
  val add_plain : ct -> pt -> ct
  val add_scalar : ct -> float -> ct
  val sub : ct -> ct -> ct
  val sub_plain : ct -> pt -> ct
  val sub_scalar : ct -> float -> ct
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
    amounts as passed, [Rescale] its divisor. [copy], [free], [max_rescale],
    [scale_of] and [env_of] are not intercepted. *)
type op =
  | Encode
  | Decode
  | Encrypt
  | Decrypt
  | Rot_left of int
  | Rot_right of int
  | Add
  | Sub
  | Add_plain
  | Sub_plain
  | Add_scalar
  | Sub_scalar
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
  | Rot_right _ -> "rot_right"
  | Add -> "add"
  | Sub -> "sub"
  | Add_plain -> "add_plain"
  | Sub_plain -> "sub_plain"
  | Add_scalar -> "add_scalar"
  | Sub_scalar -> "sub_scalar"
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
    let rot_right c k = h.around (Rot_right k) (env1 c) (fun () -> B.rot_right c k)
    let add a b = h.around Add (env2 a b) (fun () -> B.add a b)
    let sub a b = h.around Sub (env2 a b) (fun () -> B.sub a b)
    let add_plain c p = h.around Add_plain (env1 c) (fun () -> B.add_plain c p)
    let sub_plain c p = h.around Sub_plain (env1 c) (fun () -> B.sub_plain c p)
    let add_scalar c x = h.around Add_scalar (env1 c) (fun () -> B.add_scalar c x)
    let sub_scalar c x = h.around Sub_scalar (env1 c) (fun () -> B.sub_scalar c x)
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

let logf n = log (float_of_int n) /. log 2.0

(* Asymptotics of Table 1 with unit constants; calibrated variants are built
   by Cost_calibration (bench) and Chet.Cost_model. *)
let rns_cost_model ?(c = 1e-9) () =
  let n e = float_of_int e.env_n in
  let r e = float_of_int e.env_r in
  {
    cm_add = (fun e -> c *. n e *. r e);
    cm_scalar_mul = (fun e -> c *. n e *. r e);
    cm_plain_mul = (fun e -> c *. n e *. r e);
    cm_cipher_mul = (fun e -> c *. n e *. logf e.env_n *. r e *. r e);
    cm_rotate = (fun e -> c *. n e *. logf e.env_n *. r e *. r e);
    cm_rot_hoisted = (fun e -> c *. n e *. r e *. (r e +. logf e.env_n));
    cm_rescale = (fun e -> c *. n e *. logf e.env_n *. r e);
  }

let ckks_cost_model ?(c = 1e-9) () =
  let n e = float_of_int e.env_n in
  let lq e = float_of_int e.env_log_q in
  (* M(Q) = O(logQ^1.58) — Karatsuba-style big-integer multiplication *)
  let m_q e = lq e ** 1.58 /. 64.0 in
  {
    cm_add = (fun e -> c *. n e *. lq e);
    cm_scalar_mul = (fun e -> c *. n e *. m_q e);
    cm_plain_mul = (fun e -> c *. n e *. logf e.env_n *. m_q e);
    cm_cipher_mul = (fun e -> c *. n e *. logf e.env_n *. m_q e);
    cm_rotate = (fun e -> c *. n e *. logf e.env_n *. m_q e);
    cm_rot_hoisted = (fun e -> c *. n e *. logf e.env_n *. m_q e);
    cm_rescale = (fun e -> c *. n e *. lq e);
  }

(** Cost models for the HISA primitives (Table 1), with constants calibrated
    against timings of this repository's scheme implementations
    ([chet profile] refits them; see below). *)

module Hisa = Chet_hisa.Hisa

type constants = {
  k_add : float;
  k_scalar_mul : float;
  k_plain_mul : float;
  k_cipher_mul : float;
  k_rotate : float;
  k_rot_hoisted : float;  (** one amount of a hoisted [rot_many] call *)
  k_rescale : float;
}
(** Seconds per elementary unit of each Table-1 asymptotic term. *)

val seal_defaults : constants
val heaan_defaults : constants

val seal : ?c:constants -> unit -> Hisa.cost_model
(** RNS-CKKS: linear terms in [N·r]; mul/rotate in [N·logN·r²]; one amount
    of a hoisted rotation in [N·r·(r + logN)]. *)

val heaan : ?c:constants -> unit -> Hisa.cost_model
(** CKKS: [M(Q) = logQ^1.58] big-integer multiplication inside each term. *)

val fit_constant_weighted :
  (Hisa.op_env -> float) -> (Hisa.op_env * float * float) list -> float
(** Weighted least-squares constant for one op given [(env, seconds,
    weight)] samples and the op's asymptotic term; the profile path weights
    by the number of timed operations behind a mean. *)

(** {2 Profile-driven calibration}

    [chet profile] times real scheme operations through
    [Chet_hisa.Timed_backend], fits Table-1 constants from the resulting
    cells, and persists them as JSON
    ([{"version":1,"constants":{"seal":{...},"heaan":{...}}}]). The
    compiler's layout search and the Figure-6 bench load the same file. *)

type scheme = [ `Seal | `Heaan ]

type op_class = Add | Scalar_mul | Plain_mul | Cipher_mul | Rotate | Rot_hoisted | Rescale

val class_of_op : string -> op_class option
(** Cost-model class for a timed HISA op name; [None] for client-side ops
    (encode/encrypt/decrypt/decode) outside Table 1. The fused ops
    ([fma_scalar]/[fma_plain]/[fma_rot]) map to their main class, and
    [rot_many] to [Rot_hoisted]. *)

val fused_main_class : string -> op_class option
(** [Some main] iff the op is a fused multiply/rotate-accumulate, whose cost
    decomposes as [main] plus {!Add}. {!calibrate_from} fits fused cells
    against that composite term. *)

val term_of : scheme -> op_class -> Hisa.op_env -> float
(** The asymptotic Table-1 term of a (scheme, class) pair, sans constant. *)

val calibrate_from :
  scheme:scheme -> (string * Hisa.op_env * int * float) list -> constants
(** Fit constants from timed cells [(op, env, count, mean_seconds)] — the
    shape returned by [Chet_hisa.Timed_backend.cells]. Classes with no
    samples keep the scheme's shipped defaults. Fused cells ([fma_*], from a
    [chet profile] grid or a plan-path trace) are fitted as composite
    samples: the Add component is credited at the fitted [k_add] and the
    residual folds into the main class. *)

type calibration = { seal_c : constants; heaan_c : constants }

val default_calibration : calibration

val calibration_to_json : calibration -> Chet_obs.Jsonx.t
val calibration_of_json : Chet_obs.Jsonx.t -> calibration
(** @raise Failure on missing/unsupported version or malformed constants. *)

val save_calibration : string -> calibration -> unit

val load_calibration : string -> calibration
(** @raise Chet_obs.Jsonx.Parse_error on malformed JSON, [Failure] on a
    structurally wrong file, [Sys_error] if unreadable. *)

val model_for : scheme -> calibration -> Hisa.cost_model
(** The scheme's cost model under a calibration's constants. *)

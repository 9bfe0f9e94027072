(** Timed HISA interceptor: wraps any backend and records per-op wall-time
    statistics keyed by (op, level/r) on the monotonic clock — the
    measurement layer under the cost-model calibrator and traced runs.
    Every timed op also ticks {!Chet_obs.Tracer.tick_op} so executor node
    spans can attribute op counts. *)

type t

val create : unit -> t

val wrap : t -> Hisa.t -> Hisa.t

val cells : t -> (string * Hisa.op_env * int * float) list
(** Sorted measurement cells: (op, env, sample count, mean seconds). Ops
    with no ciphertext operand (encode/encrypt/decode) carry a fresh env
    with [env_r = env_log_q = 0]. [rescale] is only timed when it actually
    drops modulus ([divisor > 1]), mirroring {!Instrument}. *)

val total_ops : t -> int

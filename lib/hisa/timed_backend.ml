(* Timed HISA interceptor, a hook on {!Hisa.intercept}: wraps any backend
   and records per-op wall-time statistics keyed by (op, level/r). This is
   the measurement layer under the cost-model calibrator (`chet profile`)
   and the per-step op attribution in traced runs (every op also ticks
   {!Chet_obs.Tracer.tick_op}).

   The recorder is shared across ops under a mutex: one lock/unlock pair per
   homomorphic op, which is noise next to even the cleartext backend's
   slot-vector arithmetic. *)

module Obs_clock = Chet_obs.Clock
module Obs_tracer = Chet_obs.Tracer

type cell = {
  tc_op : string;
  tc_env : Hisa.op_env;
  mutable tc_count : int;
  mutable tc_sum_ns : float;
}

type t = {
  mutex : Mutex.t;
  cells : (string * int * int * int, cell) Hashtbl.t;  (** (op, n, r, logq) *)
}

let create () = { mutex = Mutex.create (); cells = Hashtbl.create 64 }

let record ?(count = 1) t op (env : Hisa.op_env) dt_ns =
  Mutex.lock t.mutex;
  let key = (op, env.Hisa.env_n, env.Hisa.env_r, env.Hisa.env_log_q) in
  let cell =
    match Hashtbl.find_opt t.cells key with
    | Some c -> c
    | None ->
        let c = { tc_op = op; tc_env = env; tc_count = 0; tc_sum_ns = 0.0 } in
        Hashtbl.add t.cells key c;
        c
  in
  cell.tc_count <- cell.tc_count + count;
  cell.tc_sum_ns <- cell.tc_sum_ns +. dt_ns;
  Mutex.unlock t.mutex

(* Measurement cells: (op, env, count, mean seconds) — the calibrator's
   input. Sorted for deterministic reports. *)
let cells t =
  Mutex.lock t.mutex;
  let l =
    Hashtbl.fold
      (fun _ c acc -> (c.tc_op, c.tc_env, c.tc_count, c.tc_sum_ns /. float_of_int c.tc_count /. 1e9) :: acc)
      t.cells []
  in
  Mutex.unlock t.mutex;
  List.sort compare l

let total_ops t =
  Mutex.lock t.mutex;
  let n = Hashtbl.fold (fun _ c acc -> acc + c.tc_count) t.cells 0 in
  Mutex.unlock t.mutex;
  n

let wrap t (backend : Hisa.t) : Hisa.t =
  let module B = (val backend) in
  (* env for ops with no ciphertext operand (encode/encrypt/decode) *)
  let fresh_env = { Hisa.env_n = 2 * B.slots; env_r = 0; env_log_q = 0 } in
  let around : type a. Hisa.op -> (int -> Hisa.op_env) -> (unit -> a) -> a =
   fun op env run ->
    match op with
    | Rescale x when x <= 1 -> run ()
    | _ ->
        (* fused ops get their own cells (keyed on the accumulator's env) so
           the calibrator can fit them *)
        let env = match op with Encode | Decode | Encrypt -> fresh_env | _ -> env 0 in
        (* a hoisted call is one op per amount, each at the call's
           amortised time: the cell's mean is the hoisted row of Table 1 *)
        let count = match op with Rot_many ks -> Array.length ks | _ -> 1 in
        for _ = 1 to count do
          Obs_tracer.tick_op ()
        done;
        let t0 = Obs_clock.now_ns () in
        let r = run () in
        record ~count t (Hisa.op_name op) env
          (Int64.to_float (Int64.sub (Obs_clock.now_ns ()) t0));
        r
  in
  Hisa.intercept { around } backend

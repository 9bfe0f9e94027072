(* Timed HISA interceptor, in the Instrument functor style: wraps any
   backend and records per-op wall-time statistics keyed by (op, level/r),
   plus optional per-op latency histograms in a metrics registry. This is
   the measurement layer under the cost-model calibrator (`chet profile`)
   and the per-step op attribution in traced runs (every op also ticks
   {!Chet_obs.Tracer.tick_op}).

   The recorder is shared across ops under a mutex: one lock/unlock pair per
   homomorphic op, which is noise next to even the cleartext backend's
   slot-vector arithmetic. *)

module Obs_clock = Chet_obs.Clock
module Obs_tracer = Chet_obs.Tracer
module Metrics = Chet_obs.Metrics

type cell = {
  tc_op : string;
  tc_env : Hisa.op_env;
  mutable tc_count : int;
  mutable tc_sum_ns : float;
  tc_hist : Metrics.histogram option;
}

type t = {
  mutex : Mutex.t;
  cells : (string * int * int * int, cell) Hashtbl.t;  (** (op, n, r, logq) *)
  registry : Metrics.t option;
}

let create ?registry () = { mutex = Mutex.create (); cells = Hashtbl.create 64; registry }

(* The histogram/cost-model key: active RNS primes for RNS-CKKS, current
   logQ for pow2-CKKS — whichever the scheme consumes. *)
let level_of (env : Hisa.op_env) = if env.Hisa.env_r > 0 then env.Hisa.env_r else env.Hisa.env_log_q

let record t op (env : Hisa.op_env) dt_ns =
  Mutex.lock t.mutex;
  let key = (op, env.Hisa.env_n, env.Hisa.env_r, env.Hisa.env_log_q) in
  let cell =
    match Hashtbl.find_opt t.cells key with
    | Some c -> c
    | None ->
        let hist =
          Option.map
            (fun reg ->
              Metrics.histogram reg ~help:"wall time of HISA ops by (op, level)" ~lo:1e-8
                ~labels:
                  [ ("op", op); ("n", string_of_int env.Hisa.env_n);
                    ("level", string_of_int (level_of env)) ]
                "chet_hisa_op_seconds")
            t.registry
        in
        let c = { tc_op = op; tc_env = env; tc_count = 0; tc_sum_ns = 0.0; tc_hist = hist } in
        Hashtbl.add t.cells key c;
        c
  in
  cell.tc_count <- cell.tc_count + 1;
  cell.tc_sum_ns <- cell.tc_sum_ns +. dt_ns;
  Mutex.unlock t.mutex;
  (* observe outside the recorder lock: the histogram is lock-free *)
  Option.iter (fun h -> Metrics.observe h (dt_ns /. 1e9)) cell.tc_hist

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
  (module struct
    let slots = B.slots

    type pt = B.pt
    type ct = B.ct

    (* env for ops with no ciphertext operand (encode/encrypt/decode) *)
    let fresh_env = { Hisa.env_n = 2 * B.slots; env_r = 0; env_log_q = 0 }

    let timed op env f =
      Obs_tracer.tick_op ();
      let t0 = Obs_clock.now_ns () in
      let r = f () in
      record t op env (Int64.to_float (Int64.sub (Obs_clock.now_ns ()) t0));
      r

    let encode v ~scale = timed "encode" fresh_env (fun () -> B.encode v ~scale)
    let decode p = timed "decode" fresh_env (fun () -> B.decode p)
    let encrypt p = timed "encrypt" fresh_env (fun () -> B.encrypt p)
    let decrypt c = timed "decrypt" (B.env_of c) (fun () -> B.decrypt c)
    let copy = B.copy
    let free = B.free
    let rot_left c k = timed "rot_left" (B.env_of c) (fun () -> B.rot_left c k)
    let rot_right c k = timed "rot_right" (B.env_of c) (fun () -> B.rot_right c k)
    let add a b = timed "add" (B.env_of a) (fun () -> B.add a b)
    let sub a b = timed "sub" (B.env_of a) (fun () -> B.sub a b)
    let add_plain c p = timed "add_plain" (B.env_of c) (fun () -> B.add_plain c p)
    let sub_plain c p = timed "sub_plain" (B.env_of c) (fun () -> B.sub_plain c p)
    let add_scalar c x = timed "add_scalar" (B.env_of c) (fun () -> B.add_scalar c x)
    let sub_scalar c x = timed "sub_scalar" (B.env_of c) (fun () -> B.sub_scalar c x)
    let mul a b = timed "mul" (B.env_of a) (fun () -> B.mul a b)
    let mul_plain c p = timed "mul_plain" (B.env_of c) (fun () -> B.mul_plain c p)
    let mul_scalar c x ~scale = timed "mul_scalar" (B.env_of c) (fun () -> B.mul_scalar c x ~scale)

    (* fused ops get their own cells so the calibrator can fit them *)
    let fma_scalar acc x w ~scale =
      timed "fma_scalar" (B.env_of acc) (fun () -> B.fma_scalar acc x w ~scale)

    let fma_plain acc x p = timed "fma_plain" (B.env_of acc) (fun () -> B.fma_plain acc x p)
    let fma_rot acc x r = timed "fma_rot" (B.env_of acc) (fun () -> B.fma_rot acc x r)

    let rescale c x =
      if x > 1 then timed "rescale" (B.env_of c) (fun () -> B.rescale c x) else B.rescale c x

    let max_rescale = B.max_rescale
    let scale_of = B.scale_of
    let env_of = B.env_of
  end : Hisa.S)

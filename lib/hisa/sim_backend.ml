(* Simulation backend: a hook on {!Hisa.intercept} that advances a latency
   clock per operation according to a cost model, at the modulus status the
   wrapped backend reports. The default wraps the value-free Shape_backend
   (fast — this is what the compiler's cost pass and the latency benches
   run); [make_with_values] wraps the cleartext backend when the simulated
   run's outputs matter (examples that print predictions).

   The clock is calibrated against timings of the real backends
   (`chet profile`). *)

type clock = {
  mutable elapsed : float;
  mutable op_count : int;
  mutable rotate_elapsed : float;
  mutable rotate_count : int;
}

type config = {
  n : int;  (** ring dimension (slots = n/2) *)
  scheme : Hisa.scheme_kind;
  costs : Hisa.cost_model;
}

let make_over (inner : Hisa.t) (cfg : config) : Hisa.t * clock =
  let clock = { elapsed = 0.0; op_count = 0; rotate_elapsed = 0.0; rotate_count = 0 } in
  let c = cfg.costs in
  let slots = (let module B = (val inner) in B.slots) in
  let tick cost_of env =
    clock.elapsed <- clock.elapsed +. cost_of env;
    clock.op_count <- clock.op_count + 1
  in
  let tick_rotation ?(cost_of = c.Hisa.cm_rotate) env =
    clock.rotate_elapsed <- clock.rotate_elapsed +. cost_of env;
    clock.rotate_count <- clock.rotate_count + 1;
    tick cost_of env
  in
  (* the modulus status an op is charged at: its operand's, or the lower
     of two (binary ops modulus-switch down). Fused ops charge both
     component costs, so the simulated clock prices a fused accumulate
     exactly like the unfused op + add it replaces. *)
  let charge (op : Hisa.op) env =
    let min2 () =
      let a = env 0 and b = env 1 in
      { a with Hisa.env_r = min a.Hisa.env_r b.Hisa.env_r; env_log_q = min a.env_log_q b.env_log_q }
    in
    match op with
    | Encode | Decode | Encrypt | Decrypt -> ()
    | Rot_left _ -> tick_rotation (env 0)
    | Add -> tick c.cm_add (min2 ())
    | Add_plain | Add_scalar -> tick c.cm_add (env 0)
    | Mul -> tick c.cm_cipher_mul (min2 ())
    | Mul_plain -> tick c.cm_plain_mul (env 0)
    | Mul_scalar -> tick c.cm_scalar_mul (env 0)
    | Fma_scalar ->
        tick c.cm_scalar_mul (env 1);
        tick c.cm_add (min2 ())
    | Fma_plain ->
        tick c.cm_plain_mul (env 1);
        tick c.cm_add (min2 ())
    | Fma_rot _ ->
        tick_rotation (env 1);
        tick c.cm_add (min2 ())
    | Rot_many ks ->
        (* the hoisted row of Table 1, once per amount that rotates *)
        Array.iter
          (fun k -> if k mod slots <> 0 then tick_rotation ~cost_of:c.cm_rot_hoisted (env 0))
          ks
    | Rescale _ -> tick c.cm_rescale (env 0)
  in
  (Hisa.intercept { around = (fun op env run -> charge op env; run ()) } inner, clock)

let make (cfg : config) : Hisa.t * clock =
  make_over (Shape_backend.make { Shape_backend.slots = cfg.n / 2; scheme = cfg.scheme }) cfg

let make_with_values (cfg : config) : Hisa.t * clock =
  make_over
    (Clear_backend.make
       { Clear_backend.slots = cfg.n / 2; scheme = cfg.scheme; strict_modulus = false; encode_noise = false })
    cfg

(* Simulation backend: wraps another HISA backend and advances a latency
   clock per operation according to a cost model. The default wraps the
   value-free Shape_backend (fast — this is what the compiler's cost pass and
   the latency benches run); [make_with_values] wraps the cleartext backend
   when the simulated run's outputs matter (examples that print predictions).

   The clock is calibrated against microbenchmarks of the real backends
   (bench/main.exe --calibrate). *)

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

let budget_env (cfg : config) = function
  | Clear_backend.Rns_level r -> { Hisa.env_n = cfg.n; env_r = r; env_log_q = 0 }
  | Clear_backend.Logq q -> { Hisa.env_n = cfg.n; env_r = 0; env_log_q = q }

let make_over (inner : Hisa.t) (cfg : config) : Hisa.t * clock =
  let clock = { elapsed = 0.0; op_count = 0; rotate_elapsed = 0.0; rotate_count = 0 } in
  let module Inner = (val inner) in
  let backend =
    (module struct
      let slots = Inner.slots

      type pt = Inner.pt
      (* the modulus budget needed for cost evaluation is tracked in
         parallel with the inner backend's own state *)
      type ct = { ict : Inner.ct; budget : Clear_backend.budget }

      let tick cost_of budget =
        clock.elapsed <- clock.elapsed +. cost_of (budget_env cfg budget);
        clock.op_count <- clock.op_count + 1

      let encode = Inner.encode
      let decode = Inner.decode
      let encrypt pt = { ict = Inner.encrypt pt; budget = Clear_backend.initial_budget cfg.scheme }
      let decrypt ct = Inner.decrypt ct.ict
      let copy ct = { ct with ict = Inner.copy ct.ict }
      let free _ = ()

      let budget_min a b =
        match (a, b) with
        | Clear_backend.Rns_level x, Clear_backend.Rns_level y ->
            Clear_backend.Rns_level (Stdlib.min x y)
        | Clear_backend.Logq x, Clear_backend.Logq y -> Clear_backend.Logq (Stdlib.min x y)
        | _ ->
            Herr.raise_err ~backend:"sim" ~op:"binop"
              (Herr.Invalid_op { reason = "mixed scheme budgets (RNS vs pow2)" })

      let tick_rotation budget =
        let cost = cfg.costs.Hisa.cm_rotate (budget_env cfg budget) in
        clock.rotate_elapsed <- clock.rotate_elapsed +. cost;
        clock.rotate_count <- clock.rotate_count + 1;
        tick cfg.costs.Hisa.cm_rotate budget

      let rot_left ct k =
        tick_rotation ct.budget;
        { ct with ict = Inner.rot_left ct.ict k }

      let rot_right ct k =
        tick_rotation ct.budget;
        { ct with ict = Inner.rot_right ct.ict k }

      let binop cost f a b =
        let budget = budget_min a.budget b.budget in
        tick cost budget;
        { ict = f a.ict b.ict; budget }

      let add a b = binop cfg.costs.Hisa.cm_add Inner.add a b
      let sub a b = binop cfg.costs.Hisa.cm_add Inner.sub a b

      let plainop cost f c p =
        tick cost c.budget;
        { c with ict = f c.ict p }

      let add_plain c p = plainop cfg.costs.Hisa.cm_add Inner.add_plain c p
      let sub_plain c p = plainop cfg.costs.Hisa.cm_add Inner.sub_plain c p

      let add_scalar c x =
        tick cfg.costs.Hisa.cm_add c.budget;
        { c with ict = Inner.add_scalar c.ict x }

      let sub_scalar c x =
        tick cfg.costs.Hisa.cm_add c.budget;
        { c with ict = Inner.sub_scalar c.ict x }

      let mul a b = binop cfg.costs.Hisa.cm_cipher_mul Inner.mul a b
      let mul_plain c p = plainop cfg.costs.Hisa.cm_plain_mul Inner.mul_plain c p

      let mul_scalar c x ~scale =
        tick cfg.costs.Hisa.cm_scalar_mul c.budget;
        { c with ict = Inner.mul_scalar c.ict x ~scale }

      (* fused ops charge both component costs so the simulated clock prices
         a fused accumulate exactly like the unfused mul + add it replaces *)
      let fma_scalar acc x w ~scale =
        let budget = budget_min acc.budget x.budget in
        tick cfg.costs.Hisa.cm_scalar_mul x.budget;
        tick cfg.costs.Hisa.cm_add budget;
        { ict = Inner.fma_scalar acc.ict x.ict w ~scale; budget }

      let fma_plain acc x p =
        let budget = budget_min acc.budget x.budget in
        tick cfg.costs.Hisa.cm_plain_mul x.budget;
        tick cfg.costs.Hisa.cm_add budget;
        { ict = Inner.fma_plain acc.ict x.ict p; budget }

      let fma_rot acc x r =
        let budget = budget_min acc.budget x.budget in
        tick_rotation x.budget;
        tick cfg.costs.Hisa.cm_add budget;
        { ict = Inner.fma_rot acc.ict x.ict r; budget }

      let rescale ct x =
        tick cfg.costs.Hisa.cm_rescale ct.budget;
        let budget =
          match (cfg.scheme, ct.budget) with
          | _, _ when x = 1 -> ct.budget
          | Hisa.Rns_chain primes, Clear_backend.Rns_level l ->
              let l = ref l and rem = ref x in
              while !rem > 1 do
                rem := !rem / primes.(!l - 1);
                decr l
              done;
              Clear_backend.Rns_level !l
          | Hisa.Pow2_modulus _, Clear_backend.Logq q ->
              let k = int_of_float (Float.round (log (float_of_int x) /. log 2.0)) in
              Clear_backend.Logq (q - k)
          | _ -> assert false
        in
        { ict = Inner.rescale ct.ict x; budget }

      let max_rescale ct ub = Inner.max_rescale ct.ict ub
      let scale_of ct = Inner.scale_of ct.ict
      let env_of ct = budget_env cfg ct.budget
    end : Hisa.S)
  in
  (backend, clock)

let make (cfg : config) : Hisa.t * clock =
  make_over (Shape_backend.make { Shape_backend.slots = cfg.n / 2; scheme = cfg.scheme }) cfg

let make_with_values (cfg : config) : Hisa.t * clock =
  make_over
    (Clear_backend.make
       { Clear_backend.slots = cfg.n / 2; scheme = cfg.scheme; strict_modulus = false; encode_noise = false })
    cfg

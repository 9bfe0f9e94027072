(* Deterministic fault-injection HISA wrapper — the adversarial twin of
   {!Checked_backend}. Wraps any backend and, once the op counter reaches
   [trigger], corrupts exactly one thing in a seeded, reproducible way. The
   point is not to model realistic hardware faults but to prove, in
   test/test_fault.ml, that every corruption class the checker claims to
   catch actually surfaces as the matching typed {!Herr.Fhe_error} instead
   of silently producing garbage predictions.

   Fault classes and how they manifest through the [Hisa.S] surface (the
   only surface a checker can see):

   - [Scale_corruption]: after the trigger, the next fresh ciphertext's
     [scale_of] lies by a multiplicative factor. Caught by the checker's
     shadow-scale postcondition -> [Scale_mismatch].
   - [Premature_level_drop]: the next fresh ciphertext's [env_of] reports
     one level/prime (or 60 logQ bits) fewer than reality. Caught by the
     shadow-level postcondition -> [Level_mismatch].
   - [Slot_scramble]: decode rotates the slot vector and drags in a huge
     masked-garbage value, the way a misapplied Galois element drags
     non-message coefficients into the message region. Caught by the
     decode magnitude screen -> [Corrupt_ciphertext].
   - [Nan_poison]: decode poisons one seeded slot with NaN. Caught by the
     decode NaN/Inf screen -> [Numeric_blowup].
   - [Dropped_rescale]: one rescale silently becomes the identity (the
     backend "forgets" to divide). Caught by the rescale postcondition
     -> [Illegal_rescale].
   - [Silent_corruption]: decode perturbs every slot by a seeded
     small-magnitude offset (order 10x the deployment precision tolerance,
     nowhere near the magnitude screen's bound and never NaN/Inf). This is
     the fault class NO per-op checker can see — scale, level, magnitude
     and NaN screens all pass — and exists to prove that only the
     end-to-end sentinel lane (DESIGN.md §16) catches it
     -> [Integrity_violation], raised by the sentinel verifier, not here.

   Faults fire once (first opportunity at or after the trigger) so a single
   run exercises exactly one corruption; [injection_log] records what fired
   and where, letting tests assert the fault actually happened and was not
   simply never reached. With [fault = None] the wrapper is observationally
   identical to the bare backend — also asserted by the tests. *)

type fault =
  | Scale_corruption
  | Premature_level_drop
  | Slot_scramble
  | Nan_poison
  | Dropped_rescale
  | Silent_corruption

let fault_name = function
  | Scale_corruption -> "scale corruption"
  | Premature_level_drop -> "premature level drop"
  | Slot_scramble -> "slot scramble"
  | Nan_poison -> "nan poison"
  | Dropped_rescale -> "dropped rescale"
  | Silent_corruption -> "silent corruption"

type config = {
  fault : fault option;  (** [None] = transparent pass-through *)
  trigger : int;  (** op count at which the fault arms itself *)
  seed : int;  (** drives which slot / rotation the corruption picks *)
}

let default_config ?(trigger = 0) ?(seed = 0x5eed) fault = { fault; trigger; seed }

type injection_log = {
  mutable fired : bool;  (** did the armed fault actually corrupt something? *)
  mutable fired_at_op : int;  (** op counter value when it fired *)
  mutable fired_in : string;  (** HISA op name it fired inside *)
}

let wrap (cfg : config) (backend : Hisa.t) : Hisa.t * injection_log =
  let module B = (val backend) in
  let log = { fired = false; fired_at_op = -1; fired_in = "" } in
  let ops = ref 0 in
  let rng = Random.State.make [| cfg.seed; 0x7a_017; cfg.trigger |] in
  (* Should the given fault class corrupt *this* op? Arms at [trigger],
     fires exactly once. *)
  let firing f ~op =
    match cfg.fault with
    | Some g when g = f && (not log.fired) && !ops >= cfg.trigger ->
        log.fired <- true;
        log.fired_at_op <- !ops;
        log.fired_in <- op;
        true
    | _ -> false
  in
  let backend_mod =
    (module struct
      let slots = B.slots

      type pt = B.pt

      (* [fscale]: multiplicative lie applied to [scale_of]'s report.
         [fdrop]: levels/bits subtracted from [env_of]'s report. *)
      type ct = { bc : B.ct; fscale : float; fdrop : int }

      let count op =
        incr ops;
        op

      (* Wrap a fresh backend result, applying any armed fresh-ciphertext
         metadata lie exactly once. The level-drop lie never fires at
         [encrypt]: a fresh encryption is where any monitor must anchor its
         level book-keeping (there is no prior state to contradict), so a lie
         there is undetectable by construction — firing it would only waste
         the injection. *)
      let mk ~op bc =
        let fscale = if firing Scale_corruption ~op then 1.375 else 1.0 in
        let fdrop = if op <> "encrypt" && firing Premature_level_drop ~op then 1 else 0 in
        { bc; fscale; fdrop }

      let encode values ~scale = B.encode values ~scale

      let decode p =
        let op = count "decode" in
        let v = B.decode p in
        if firing Nan_poison ~op then begin
          let v = Array.copy v in
          if Array.length v > 0 then v.(Random.State.int rng (Array.length v)) <- Float.nan;
          v
        end
        else if firing Slot_scramble ~op then begin
          let n = Array.length v in
          if n = 0 then v
          else begin
            let r = 1 + Random.State.int rng (Stdlib.max 1 (n - 1)) in
            let w = Array.init n (fun i -> v.((i + r) mod n)) in
            (* the masked garbage a real scramble drags into the message
               region: far beyond any plausible decoded magnitude *)
            w.(Random.State.int rng n) <- 6.9e33;
            w
          end
        end
        else if firing Silent_corruption ~op then
          (* small seeded perturbation on every slot: passes every per-op
             screen, only the sentinel lane can tell *)
          Array.map
            (fun x ->
              let sign = if Random.State.bool rng then 1.0 else -1.0 in
              x +. (sign *. (0.2 +. (0.6 *. Random.State.float rng 1.0))))
            v
        else v

      let encrypt p = mk ~op:(count "encrypt") (B.encrypt p)
      let decrypt c = B.decrypt c.bc

      (* Fresh results of arithmetic and rotations are fair game for
         fresh-ct lies, and additionally inherit any operand lie so a
         corrupted handle stays corrupted downstream. *)
      let res2 ~op a b bc =
        let m = mk ~op bc in
        {
          m with
          fscale = m.fscale *. Float.max a.fscale b.fscale;
          fdrop = Stdlib.max m.fdrop (Stdlib.max a.fdrop b.fdrop);
        }

      let res1 ~op a bc =
        let m = mk ~op bc in
        { m with fscale = m.fscale *. a.fscale; fdrop = Stdlib.max m.fdrop a.fdrop }

      let rot_left c k = res1 ~op:(count "rot_left") c (B.rot_left c.bc k)

      let add a b = res2 ~op:(count "add") a b (B.add a.bc b.bc)
      let add_plain c p = res1 ~op:(count "add_plain") c (B.add_plain c.bc p)
      let add_scalar c x = res1 ~op:(count "add_scalar") c (B.add_scalar c.bc x)
      let mul a b = res2 ~op:(count "mul") a b (B.mul a.bc b.bc)
      let mul_plain c p = res1 ~op:(count "mul_plain") c (B.mul_plain c.bc p)
      let mul_scalar c x ~scale = res1 ~op:(count "mul_scalar") c (B.mul_scalar c.bc x ~scale)

      (* fused ops count once and forward to the backend's fused op; operand
         lies propagate exactly as for [add] *)
      let fma_scalar acc x w ~scale =
        res2 ~op:(count "fma_scalar") acc x (B.fma_scalar acc.bc x.bc w ~scale)

      let fma_plain acc x p = res2 ~op:(count "fma_plain") acc x (B.fma_plain acc.bc x.bc p)
      let fma_rot acc x r = res2 ~op:(count "fma_rot") acc x (B.fma_rot acc.bc x.bc r)

      (* one op for the hoisted call; each result is a fresh ciphertext *)
      let rot_many c ks =
        let op = count "rot_many" in
        Array.map (res1 ~op c) (B.rot_many c.bc ks)

      let rescale c x =
        let op = count "rescale" in
        if firing Dropped_rescale ~op then
          (* the silent no-op: hand back the undivided ciphertext *)
          c
        else res1 ~op c (B.rescale c.bc x)

      let max_rescale c ub = B.max_rescale c.bc ub
      let scale_of c = B.scale_of c.bc *. c.fscale

      let env_of c =
        let e = B.env_of c.bc in
        if c.fdrop = 0 then e
        else
          {
            e with
            Hisa.env_r = Stdlib.max 0 (e.Hisa.env_r - c.fdrop);
            Hisa.env_log_q = Stdlib.max 0 (e.Hisa.env_log_q - (60 * c.fdrop));
          }
    end : Hisa.S)
  in
  (backend_mod, log)

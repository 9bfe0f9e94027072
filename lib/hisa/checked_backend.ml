(* Precondition/postcondition-validating HISA interceptor, modeled on
   Instrument: wrap any backend and every op is checked against a *shadow*
   data-flow computation of what the scale and modulus level must be —
   exactly the §5.1 trick of executing the circuit under a different
   interpretation, here used as a runtime monitor instead of an analysis.

   The shadow is {!Shape_backend}'s (scale, level) record, moved by Shape's
   transfer functions — the same scale algebra and rescale rule the other
   interpretations run — and validated against what the wrapped backend
   *reports* after every operation. Divergence means either a violated
   precondition upstream or a corrupted/faulty backend downstream (see
   Fault_backend), and raises a typed {!Herr.Fhe_error} instead of
   computing garbage:

     - additions (and the plain variant) require compatible operand scales
       -> [Scale_mismatch];
     - multiplies require modulus headroom                -> [Modulus_exhausted];
     - rescale divisors must be legal for the scheme kind -> [Illegal_rescale]
       (Modulus.rescale's verdict, as on the real schemes),
       and the backend must actually apply them (a dropped rescale is caught
       by the postcondition)                              -> [Illegal_rescale];
     - scales and levels must evolve exactly as the shadow's
                                           -> [Scale_mismatch], [Level_mismatch];
     - rotations must stay inside the SIMD width          -> [Slot_overflow];
     - NaN/Inf may neither enter (encode) nor leave (decode) the scheme
                                                          -> [Numeric_blowup];
     - decoded magnitudes beyond any plausible message    -> [Corrupt_ciphertext].

   This is the moral equivalent of SEAL's transparent-ciphertext guards and
   Intel HEXL's precondition-checking debug builds: a deployment can run the
   whole inference under [wrap] and turn silent corruption into a typed,
   per-op diagnosable error. *)

module Modulus = Hisa.Modulus
module Shape = Shape_backend

(* largest plausible decoded magnitude *)
let value_bound = 1e30

let wrap ~scheme (backend : Hisa.t) : Hisa.t =
  let module B = (val backend) in
  (* fused ops compose this module's own checked ops (Hisa.Fused_default):
     every operand and intermediate gets the full pre/postcondition
     treatment, and the component results are bit-identical to the fused
     backend ops by the HISA contract. [rot_many] forwards to the backend's
     own, so hoisting survives the checker. *)
  let module U = struct
    let slots = B.slots

    type pt = { bp : B.pt; pscale : float }
    type ct = { bc : B.ct; sh : Shape.ct  (** shadow scale and level *) }

    let backend = "checked"
    let err ~op e = Herr.raise_err ~backend ~op e
    let level_of bc = Hisa.level_of_env scheme (B.env_of bc)

    (* shadow-vs-observed scale agreement: the shadow mirrors the backend's
       own float algebra, so only representation drift (sequential vs fused
       divisions in RNS rescale) separates them *)
    let close a b =
      Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

    (* Validate that the backend's report on [bc] agrees with the shadow
       [sh]. Runs both as an operand precondition (catches in-place
       corruption) and as the postcondition on every fresh result. *)
    let agree ~op bc (sh : Shape.ct) =
      let rs = B.scale_of bc in
      if not (close rs sh.scale) then err ~op (Herr.Scale_mismatch { expected = sh.scale; got = rs });
      let rl = level_of bc in
      if rl <> sh.level then
        err ~op (Herr.Level_mismatch { expected = Modulus.count sh.level; got = Modulus.count rl })

    let observe ~op c = agree ~op c.bc c.sh

    (* Build a checked handle for a fresh backend result whose shadow is
       [sh]; verifies the postcondition, then adopts the backend's exact
       float scale so drift never accumulates. *)
    let mk ~op bc sh =
      agree ~op bc sh;
      { bc; sh = { sh with scale = B.scale_of bc } }

    let depth ~op c = Shape.check_depth ~backend ~op c.sh

    let screen ~op v =
      Array.iteri
        (fun i x ->
          if Float.is_nan x || Float.abs x = Float.infinity then
            err ~op (Herr.Numeric_blowup { slot = i; value = x }))
        v

    let screen_scalar ~op x =
      if Float.is_nan x || Float.abs x = Float.infinity then
        err ~op (Herr.Numeric_blowup { slot = -1; value = x })

    (* --- encode / encrypt / decrypt / decode ------------------------- *)

    let encode values ~scale =
      if Array.length values > slots then
        err ~op:"encode" (Herr.Slot_overflow { slots; requested = Array.length values });
      if scale < 1 then
        err ~op:"encode"
          (Herr.Invalid_op { reason = Printf.sprintf "encode scale must be >= 1, got %d" scale });
      screen ~op:"encode" values;
      { bp = B.encode values ~scale; pscale = float_of_int scale }

    let decode p =
      let v = B.decode p.bp in
      screen ~op:"decode" v;
      Array.iteri
        (fun i x ->
          if Float.abs x > value_bound then
            err ~op:"decode"
              (Herr.Corrupt_ciphertext
                 {
                   reason =
                     Printf.sprintf
                       "decoded slot %d magnitude %.3g exceeds plausible bound %.3g (garbage from a corrupted ciphertext?)"
                       i x value_bound;
                 }))
        v;
      v

    let encrypt p =
      let bc = B.encrypt p.bp in
      (* fresh ciphertexts anchor the shadow level at the backend's report *)
      mk ~op:"encrypt" bc { Shape.scale = p.pscale; level = level_of bc }

    let decrypt c =
      observe ~op:"decrypt" c;
      { bp = B.decrypt c.bc; pscale = c.sh.scale }

    (* --- rotations ---------------------------------------------------- *)

    let check_amount ~op k =
      if k >= slots || k <= -slots then err ~op (Herr.Slot_overflow { slots; requested = k })

    let rotated ~op c bc = mk ~op bc c.sh

    let rot_left c k =
      let op = "rot_left" in
      observe ~op c;
      check_amount ~op k;
      rotated ~op c (B.rot_left c.bc k)

    let rot_many c ks =
      let op = "rot_many" in
      observe ~op c;
      Array.iter (check_amount ~op) ks;
      Array.map (rotated ~op c) (B.rot_many c.bc ks)

    (* --- additive ops ------------------------------------------------- *)

    let add a b =
      let op = "add" in
      observe ~op a;
      observe ~op b;
      let sh = Shape.add ~backend ~op a.sh b.sh in
      mk ~op (B.add a.bc b.bc) sh

    let add_plain c p =
      let op = "add_plain" in
      observe ~op c;
      let sh = Shape.add_plain ~backend ~op c.sh p.pscale in
      mk ~op (B.add_plain c.bc p.bp) sh

    let add_scalar c x =
      let op = "add_scalar" in
      observe ~op c;
      screen_scalar ~op x;
      mk ~op (B.add_scalar c.bc x) c.sh

    (* --- multiplicative ops ------------------------------------------- *)

    let mul a b =
      observe ~op:"mul" a;
      observe ~op:"mul" b;
      depth ~op:"mul" a;
      depth ~op:"mul" b;
      mk ~op:"mul" (B.mul a.bc b.bc) (Shape.mul ~backend a.sh b.sh)

    let mul_plain c p =
      observe ~op:"mul_plain" c;
      depth ~op:"mul_plain" c;
      mk ~op:"mul_plain" (B.mul_plain c.bc p.bp) (Shape.mul_plain c.sh p.pscale)

    let mul_scalar c x ~scale =
      observe ~op:"mul_scalar" c;
      screen_scalar ~op:"mul_scalar" x;
      depth ~op:"mul_scalar" c;
      mk ~op:"mul_scalar" (B.mul_scalar c.bc x ~scale) (Shape.mul_scalar c.sh ~scale)

    (* --- rescaling ---------------------------------------------------- *)

    let rescale c x =
      observe ~op:"rescale" c;
      let sh = Shape.rescale ~backend scheme c.sh x in
      if x = 1 then c
      else begin
        let bc = B.rescale c.bc x in
        (* postcondition: the backend must actually have divided the scale —
           a dropped rescale otherwise silently desynchronises every
           downstream scale *)
        let rs = B.scale_of bc in
        if not (close rs sh.scale) then
          err ~op:"rescale"
            (Herr.Illegal_rescale
               {
                 divisor = x;
                 reason =
                   Printf.sprintf "backend did not apply the divisor: scale %.6g where %.6g expected (dropped rescale?)"
                     rs sh.scale;
               });
        mk ~op:"rescale" bc sh
      end

    let max_rescale c ub =
      observe ~op:"max_rescale" c;
      B.max_rescale c.bc ub

    let scale_of c = B.scale_of c.bc
    let env_of c = B.env_of c.bc
  end in
  (module struct
    include Hisa.Fused_default (U)

    let rot_many = U.rot_many
  end)

(* Precondition/postcondition-validating HISA interceptor, modeled on
   Instrument: wrap any backend and every op is checked against a *shadow*
   data-flow computation of what the scale and modulus level must be —
   exactly the §5.1 trick of executing the circuit under a different
   interpretation, here used as a runtime monitor instead of an analysis.

   The checker maintains, per ciphertext:
     - a shadow scale (mirrors the scheme's scale algebra op by op), and
     - a shadow level (RNS primes remaining, or logQ bits remaining),
   and validates both against what the wrapped backend *reports* after every
   operation. Divergence means either a violated precondition upstream or a
   corrupted/faulty backend downstream (see Fault_backend), and raises a
   typed {!Herr.Fhe_error} instead of computing garbage:

     - add/sub (and the plain variants) require compatible operand scales
       -> [Scale_mismatch];
     - multiplies require modulus headroom                -> [Modulus_exhausted];
     - rescale divisors must be legal for the scheme kind -> [Illegal_rescale],
       and the backend must actually apply them (a dropped rescale is caught
       by the postcondition)                              -> [Illegal_rescale];
     - levels must evolve exactly as the scheme dictates  -> [Level_mismatch];
     - rotations must stay inside the SIMD width          -> [Slot_overflow];
     - NaN/Inf may neither enter (encode) nor leave (decode) the scheme
                                                          -> [Numeric_blowup];
     - decoded magnitudes beyond any plausible message, and any use of a
       freed handle                                       -> [Corrupt_ciphertext].

   This is the moral equivalent of SEAL's transparent-ciphertext guards and
   Intel HEXL's precondition-checking debug builds: a deployment can run the
   whole inference under [wrap] and turn silent corruption into a typed,
   per-op diagnosable error. *)

(* The noise-margin guard (DESIGN.md §16): alongside scale and level, the
   checker can track a conservative interval model of CKKS error growth —
   per ciphertext, an absolute message-space error bound [serr] and a
   message magnitude bound [smag], grown per op with the standard heuristic
   rules (LibFHE's catalogue: additive for add/rot/rescale, cross-term
   products for multiplies). When the bound crosses the deployment's
   precision tolerance, the request raises a typed [Precision_exhausted]
   *before* it decrypts to garbage — turning "the answer looked wrong" into
   a diagnosable, pre-decrypt failure. The constants are heuristics
   calibrated to this repo's backends at the default scales; the point is
   the monotone bound and the margin gauge, not a tight noise proof. *)
type noise_model = {
  nm_fresh : float;  (** message-space error of a fresh encryption *)
  nm_encode : float;  (** error contributed by encoding a plaintext *)
  nm_rot : float;  (** key-switch/relin/rescale rounding error per op *)
  nm_tolerance : float;  (** error bound at which [Precision_exhausted] fires *)
}

let default_noise_model ?(tolerance = 0.05) () =
  { nm_fresh = 1e-5; nm_encode = 1e-6; nm_rot = 1e-6; nm_tolerance = tolerance }

type config = {
  scheme : Hisa.scheme_kind;
      (** must describe the wrapped backend's *actual* modulus chain (see
          e.g. [ks_scheme] of {!Compiler.keyset}) *)
  tolerance : float;  (** relative slack for operand-scale compatibility *)
  value_bound : float;  (** largest plausible decoded magnitude *)
  noise : noise_model option;  (** None: noise-margin guard off *)
}

let default_config ~scheme =
  { scheme; tolerance = Herr.scale_tolerance; value_bound = 1e30; noise = None }

let log2f x = Float.log x /. Float.log 2.0

let wrap ?(config = None) ?margin ~scheme (backend : Hisa.t) : Hisa.t =
  let cfg = match config with Some c -> c | None -> default_config ~scheme in
  let nm = cfg.noise in
  let module B = (val backend) in
  (* fused ops compose this module's own checked ops (Hisa.Fused_default):
     every operand and intermediate gets the full pre/postcondition
     treatment, and the component results are bit-identical to the fused
     backend ops by the HISA contract. [rot_many] forwards to the backend's
     own, so hoisting survives the checker. *)
  let module U = struct
    let slots = B.slots

    type pt = { bp : B.pt; pscale : float; pmax : float }

    type ct = {
      bc : B.ct;
      cid : int;
      mutable freed : bool;
      mutable sscale : float;  (** shadow scale *)
      mutable slevel : int;  (** shadow level: RNS primes or logQ bits remaining *)
      mutable serr : float;  (** noise guard: message-space error bound *)
      mutable smag : float;  (** noise guard: message magnitude bound *)
    }

    let next_id = ref 0

    let level_of_env (e : Hisa.op_env) =
      match cfg.scheme with
      | Hisa.Rns_chain _ -> e.Hisa.env_r
      | Hisa.Pow2_modulus _ -> e.Hisa.env_log_q

    let err ~op e = Herr.raise_err ~backend:"checked" ~op e

    (* noise-guard plumbing: all bound arithmetic degenerates to zeros when
       no model is configured, so the guard never fires and costs a few
       float ops per call *)
    let nmv f = match nm with Some m -> f m | None -> 0.0

    let margin_of m e = log2f (m.nm_tolerance /. Float.max e Float.min_float)

    let guard ~op e =
      match nm with
      | Some m when e > m.nm_tolerance ->
          (match margin with Some r -> r := margin_of m e | None -> ());
          err ~op (Herr.Precision_exhausted { margin_bits = margin_of m e; tolerance = m.nm_tolerance })
      | _ -> ()

    let gauge e =
      match (nm, margin) with Some m, Some r -> r := margin_of m e | _ -> ()

    (* shadow-vs-observed scale agreement: the shadow mirrors the backend's
       own float algebra, so only representation drift (sequential vs fused
       divisions in RNS rescale) separates them *)
    let close a b =
      Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

    let compatible a b = Float.abs (a -. b) <= cfg.tolerance *. Float.max 1.0 (Float.max a b)

    let live ~op c =
      if c.freed then
        err ~op (Herr.Corrupt_ciphertext { reason = Printf.sprintf "use of freed ciphertext #%d" c.cid })

    (* Validate that the backend's report agrees with the shadow. Runs both
       as an operand precondition (catches in-place corruption) and as the
       postcondition on every fresh result. *)
    let observe ~op c =
      live ~op c;
      let rs = B.scale_of c.bc in
      if not (close rs c.sscale) then err ~op (Herr.Scale_mismatch { expected = c.sscale; got = rs });
      let rl = level_of_env (B.env_of c.bc) in
      if rl <> c.slevel then err ~op (Herr.Level_mismatch { expected = c.slevel; got = rl })

    (* Build a checked handle for a fresh backend result whose shadow values
       are [sscale]/[slevel]; verifies the postcondition, then adopts the
       backend's exact float scale so drift never accumulates. The noise
       guard fires here: the bound is monotone, so the first op to push it
       past tolerance is the one named in the error. *)
    let mk ~op bc ~sscale ~slevel ~serr ~smag =
      guard ~op serr;
      incr next_id;
      let c = { bc; cid = !next_id; freed = false; sscale; slevel; serr; smag } in
      observe ~op c;
      c.sscale <- B.scale_of bc;
      c

    let depth ~op c =
      if c.slevel < 1 then err ~op (Herr.Modulus_exhausted { level = c.slevel; requested = 1 })

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
      let pmax = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 values in
      { bp = B.encode values ~scale; pscale = float_of_int scale; pmax }

    let decode p =
      let v = B.decode p.bp in
      screen ~op:"decode" v;
      Array.iteri
        (fun i x ->
          if Float.abs x > cfg.value_bound then
            err ~op:"decode"
              (Herr.Corrupt_ciphertext
                 {
                   reason =
                     Printf.sprintf
                       "decoded slot %d magnitude %.3g exceeds plausible bound %.3g (garbage from a corrupted ciphertext?)"
                       i x cfg.value_bound;
                 }))
        v;
      v

    let encrypt p =
      let bc = B.encrypt p.bp in
      (* fresh ciphertexts anchor the shadow level at the backend's report *)
      mk ~op:"encrypt" bc ~sscale:p.pscale ~slevel:(level_of_env (B.env_of bc))
        ~serr:(nmv (fun m -> m.nm_fresh +. m.nm_encode))
        ~smag:p.pmax

    let decrypt c =
      observe ~op:"decrypt" c;
      (* the pre-decrypt precision gate: a bound past tolerance means the
         plaintext under this ciphertext is already garbage *)
      guard ~op:"decrypt" c.serr;
      gauge c.serr;
      { bp = B.decrypt c.bc; pscale = c.sscale; pmax = c.smag }

    let copy c =
      observe ~op:"copy" c;
      mk ~op:"copy" (B.copy c.bc) ~sscale:c.sscale ~slevel:c.slevel ~serr:c.serr ~smag:c.smag

    let free c =
      live ~op:"free" c;
      c.freed <- true;
      B.free c.bc

    (* --- rotations ---------------------------------------------------- *)

    let rot ~op f c k =
      observe ~op c;
      if k >= slots || k <= -slots then err ~op (Herr.Slot_overflow { slots; requested = k });
      mk ~op (f c.bc k) ~sscale:c.sscale ~slevel:c.slevel
        ~serr:(c.serr +. nmv (fun m -> m.nm_rot))
        ~smag:c.smag

    let rot_left c k = rot ~op:"rot_left" B.rot_left c k
    let rot_right c k = rot ~op:"rot_right" B.rot_right c k

    let rot_many c ks =
      let op = "rot_many" in
      observe ~op c;
      Array.iter
        (fun k ->
          if k >= slots || k <= -slots then err ~op (Herr.Slot_overflow { slots; requested = k }))
        ks;
      Array.map
        (fun bc ->
          mk ~op bc ~sscale:c.sscale ~slevel:c.slevel
            ~serr:(c.serr +. nmv (fun m -> m.nm_rot))
            ~smag:c.smag)
        (B.rot_many c.bc ks)

    (* --- additive ops ------------------------------------------------- *)

    let binop ~op f a b =
      observe ~op a;
      observe ~op b;
      if not (compatible a.sscale b.sscale) then
        err ~op (Herr.Scale_mismatch { expected = a.sscale; got = b.sscale });
      mk ~op (f a.bc b.bc) ~sscale:a.sscale ~slevel:(Stdlib.min a.slevel b.slevel)
        ~serr:(a.serr +. b.serr)
        ~smag:(a.smag +. b.smag)

    let add a b = binop ~op:"add" B.add a b
    let sub a b = binop ~op:"sub" B.sub a b

    let plain_add ~op f c p =
      observe ~op c;
      if not (compatible c.sscale p.pscale) then
        err ~op (Herr.Scale_mismatch { expected = c.sscale; got = p.pscale });
      mk ~op (f c.bc p.bp) ~sscale:c.sscale ~slevel:c.slevel
        ~serr:(c.serr +. nmv (fun m -> m.nm_encode))
        ~smag:(c.smag +. p.pmax)

    let add_plain c p = plain_add ~op:"add_plain" B.add_plain c p
    let sub_plain c p = plain_add ~op:"sub_plain" B.sub_plain c p

    let scalar ~op f c x =
      observe ~op c;
      screen_scalar ~op x;
      mk ~op (f c.bc x) ~sscale:c.sscale ~slevel:c.slevel ~serr:c.serr
        ~smag:(c.smag +. Float.abs x)

    let add_scalar c x = scalar ~op:"add_scalar" B.add_scalar c x
    let sub_scalar c x = scalar ~op:"sub_scalar" B.sub_scalar c x

    (* --- multiplicative ops ------------------------------------------- *)

    let mul a b =
      observe ~op:"mul" a;
      observe ~op:"mul" b;
      depth ~op:"mul" a;
      depth ~op:"mul" b;
      (* cross-term error growth: |(a+ea)(b+eb) - ab| <= ea|b| + eb|a| + ea·eb,
         plus the relinearization rounding term *)
      mk ~op:"mul" (B.mul a.bc b.bc) ~sscale:(a.sscale *. b.sscale)
        ~slevel:(Stdlib.min a.slevel b.slevel)
        ~serr:((a.serr *. b.smag) +. (b.serr *. a.smag) +. (a.serr *. b.serr) +. nmv (fun m -> m.nm_rot))
        ~smag:(a.smag *. b.smag)

    let mul_plain c p =
      observe ~op:"mul_plain" c;
      depth ~op:"mul_plain" c;
      mk ~op:"mul_plain" (B.mul_plain c.bc p.bp) ~sscale:(c.sscale *. p.pscale) ~slevel:c.slevel
        ~serr:((c.serr *. p.pmax) +. (c.smag *. nmv (fun m -> m.nm_encode)))
        ~smag:(c.smag *. p.pmax)

    let mul_scalar c x ~scale =
      observe ~op:"mul_scalar" c;
      screen_scalar ~op:"mul_scalar" x;
      depth ~op:"mul_scalar" c;
      (* the scalar is quantized to the 1/scale grid before multiplying *)
      mk ~op:"mul_scalar"
        (B.mul_scalar c.bc x ~scale)
        ~sscale:(c.sscale *. float_of_int scale)
        ~slevel:c.slevel
        ~serr:((c.serr *. Float.abs x) +. (c.smag /. float_of_int scale))
        ~smag:(c.smag *. Float.abs x)

    (* --- rescaling ---------------------------------------------------- *)

    let log2_int n =
      let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
      loop n 0

    (* Predict the level after applying divisor [x] at shadow level [l],
       raising [Illegal_rescale]/[Modulus_exhausted] when the scheme kind
       cannot apply it — §5.2's maxRescale legality, enforced. *)
    let rescale_target ~op c x =
      match cfg.scheme with
      | Hisa.Rns_chain primes ->
          let l = ref c.slevel and rem = ref x in
          while !rem > 1 do
            if !l < 1 then err ~op (Herr.Modulus_exhausted { level = c.slevel; requested = x });
            if !l > Array.length primes then
              err ~op
                (Herr.Invalid_op
                   {
                     reason =
                       Printf.sprintf "shadow level %d exceeds the declared %d-prime chain" !l
                         (Array.length primes);
                   });
            let q = primes.(!l - 1) in
            if !rem mod q <> 0 then
              err ~op
                (Herr.Illegal_rescale
                   {
                     divisor = x;
                     reason =
                       Printf.sprintf "not a product of the next chain primes (next is %d, remainder %d)" q !rem;
                   });
            rem := !rem / q;
            decr l
          done;
          !l
      | Hisa.Pow2_modulus _ ->
          if x land (x - 1) <> 0 then
            err ~op (Herr.Illegal_rescale { divisor = x; reason = "divisor must be a power of two" });
          let k = log2_int x in
          if k >= c.slevel then err ~op (Herr.Modulus_exhausted { level = c.slevel; requested = k });
          c.slevel - k

    let rescale c x =
      observe ~op:"rescale" c;
      if x < 1 then
        err ~op:"rescale" (Herr.Illegal_rescale { divisor = x; reason = "divisor must be >= 1" });
      if x = 1 then c
      else begin
        let slevel' = rescale_target ~op:"rescale" c x in
        let bc = B.rescale c.bc x in
        (* postcondition: the backend must actually have divided the scale —
           a dropped rescale otherwise silently desynchronises every
           downstream scale *)
        let expected = c.sscale /. float_of_int x in
        let rs = B.scale_of bc in
        if not (close rs expected) then
          err ~op:"rescale"
            (Herr.Illegal_rescale
               {
                 divisor = x;
                 reason =
                   Printf.sprintf "backend did not apply the divisor: scale %.6g where %.6g expected (dropped rescale?)"
                     rs expected;
               });
        mk ~op:"rescale" bc ~sscale:expected ~slevel:slevel'
          ~serr:(c.serr +. nmv (fun m -> m.nm_rot))
          ~smag:c.smag
      end

    let max_rescale c ub =
      observe ~op:"max_rescale" c;
      B.max_rescale c.bc ub

    let scale_of c =
      live ~op:"scale_of" c;
      B.scale_of c.bc

    let env_of c =
      live ~op:"env_of" c;
      B.env_of c.bc
  end in
  (module struct
    include Hisa.Fused_default (U)

    let rot_many = U.rot_many
  end)

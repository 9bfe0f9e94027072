module Hisa = Chet_hisa.Hisa
module Herr = Chet_hisa.Herr
module Clear = Chet_hisa.Clear_backend
module Shape = Chet_hisa.Shape_backend
module Sim = Chet_hisa.Sim_backend
module Checked = Chet_hisa.Checked_backend
module Instrument = Chet_hisa.Instrument
module Security = Chet_crypto.Security
module Modarith = Chet_crypto.Modarith
module Circuit = Chet_nn.Circuit
module Tensor = Chet_tensor.Tensor
module Kernels = Chet_runtime.Kernels
module Layout = Chet_runtime.Layout
module Plan = Chet_plan.Plan
module Plan_exec = Chet_plan.Plan_exec

type target = Seal | Heaan
type security = Standard of Security.level | Legacy_heaan

type options = {
  target : target;
  security : security;
  prime_bits : int;
  value_headroom_bits : int;
  scales : Kernels.scales;
  cost : Hisa.cost_model option;
  max_n : int;
  sentinel : bool;
}

let default_options ?(target = Seal) () =
  {
    target;
    security = (match target with Seal -> Standard Security.Bits128 | Heaan -> Legacy_heaan);
    prime_bits = 30;
    value_headroom_bits = 12;
    scales = Kernels.default_scales;
    cost = None;
    max_n = 65536;
    sentinel = false;
  }

type params_choice =
  | Rns_params of { n : int; prime_bits : int; num_primes : int; log_q : int }
  | Pow2_params of { n : int; log_fresh : int; log_special : int }

let params_n = function Rns_params { n; _ } -> n | Pow2_params { n; _ } -> n

let params_log_q = function
  | Rns_params { log_q; _ } -> log_q
  | Pow2_params { log_fresh; _ } -> log_fresh

let pp_params fmt = function
  | Rns_params { n; prime_bits; num_primes; log_q } ->
      Format.fprintf fmt "RNS-CKKS N=%d, %d x %d-bit primes (+2 special), logQ=%d" n num_primes
        prime_bits log_q
  | Pow2_params { n; log_fresh; log_special } ->
      Format.fprintf fmt "CKKS N=%d, logQ=%d, logP=%d" n log_fresh log_special

type policy_report = {
  pr_policy : Layout.layout_policy;
  pr_params : params_choice;
  pr_cost : float;
}

type compiled = {
  circuit : Circuit.t;
  opts : options;
  policy : Layout.layout_policy;
  params : params_choice;
  rotations : (int * int) list;
  op_counters : Instrument.counters;
  reports : policy_report list;
}

exception Compilation_failure of string

(* ------------------------------------------------------------------ *)
(* Analysis plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let log2f x = log x /. log 2.0

(* Candidate modulus chain for the analysis (the paper's "global list
   Q1..Qn of pre-generated candidate moduli for sufficiently large n"). *)
let analysis_chain_length = 192

let candidate_chain opts ~n =
  if opts.prime_bits <= 30 then
    (* mirror the executable backend's actual NTT primes where possible *)
    try Modarith.gen_ntt_primes ~bits:opts.prime_bits ~modulus_of:(2 * n) ~count:analysis_chain_length
    with Not_found ->
      Array.init analysis_chain_length (fun i -> (1 lsl opts.prime_bits) - 1 - (2 * i))
  else Array.init analysis_chain_length (fun i -> (1 lsl opts.prime_bits) - 1 - (2 * i))

let analysis_scheme opts ~n =
  match opts.target with
  | Seal -> Hisa.Rns_chain (candidate_chain opts ~n)
  | Heaan -> Hisa.Pow2_modulus 4000

let zero_image circuit =
  match circuit.Circuit.input.Circuit.shape with
  | [| c; h; w |] -> Tensor.create [| c; h; w |]
  | shape -> Tensor.create shape

(* Execute the circuit's plan through an analysis backend and hand back the
   output tensor's first ciphertext observations — the same plan executor
   deployments run, under another interpretation of the HISA. Raises
   [Herr.Fhe_error (Slot_overflow _, _)] when the layout does not fit
   [slots] — callers treat that as "N too small". *)
let run_through (backend : Hisa.t) opts circuit ~policy =
  let module H = (val backend) in
  let module PE = Plan_exec.Make (H) in
  (* sentinel deployments execute on the interleaved twin layout, so every
     analysis pass must see that geometry: its extents (parameter
     selection), its op mix (cost), and its doubled rotation amounts
     (rotation-key selection) *)
  let plan = Plan.build ~twin:opts.sentinel ~slots:H.slots ~policy circuit in
  (* budget 0: each plaintext is encoded where it is used, as many times as
     it is used, so the op counts describe one cold inference *)
  let prepared = PE.prepare ~pt_budget:0 opts.scales plan in
  let enc = PE.K.encrypt_tensor opts.scales plan.Plan.p_input_meta (zero_image circuit) in
  let out = PE.run_encrypted prepared enc in
  (H.scale_of out.PE.K.cts.(0), H.env_of out.PE.K.cts.(0))

(* ------------------------------------------------------------------ *)
(* §5.2 Encryption parameter selection                                  *)
(* ------------------------------------------------------------------ *)

let security_min_n opts ~log_q =
  match opts.security with
  | Standard level -> Security.min_ring_dim level ~log_q
  | Legacy_heaan -> Security.min_ring_dim_legacy ~log_q

let params_for_consumption opts ~n ~s_out ~env =
  match opts.target with
  | Seal ->
      let consumed = analysis_chain_length - env.Hisa.env_r in
      let remaining_bits = log2f s_out +. float_of_int opts.value_headroom_bits in
      let rem_primes =
        Stdlib.max 1 (int_of_float (Float.ceil (remaining_bits /. float_of_int opts.prime_bits)))
      in
      let num_primes = consumed + rem_primes in
      (* +2: both key-switching special primes count towards security *)
      let log_q = (num_primes + 2) * opts.prime_bits in
      Rns_params { n; prime_bits = opts.prime_bits; num_primes; log_q }
  | Heaan ->
      let consumed_bits = 4000 - env.Hisa.env_log_q in
      let log_fresh =
        consumed_bits
        + int_of_float (Float.ceil (log2f s_out))
        + opts.value_headroom_bits
      in
      Pow2_params { n; log_fresh; log_special = log_fresh }

(* security lookup uses the ciphertext modulus the way each library reports
   it: total chain (incl. special) for SEAL; the fresh-ciphertext logQ for
   HEAAN (its presets were specified that way, which is also how the paper's
   Table 4 reports parameters) *)
let security_log_q = function
  | Rns_params { log_q; _ } -> log_q
  | Pow2_params { log_fresh; _ } -> log_fresh

let secure_n opts params =
  try security_min_n opts ~log_q:(security_log_q params)
  with Not_found -> raise (Compilation_failure "required modulus exceeds the security table at every N")

(* §5.2 on the deployed chain: with [num_primes] primes, does the output
   keep [value_headroom_bits] of modulus above its scale? The candidate
   chain only estimates this: a fresh ciphertext there starts 192 primes
   deep, so its rescales divide by the smallest candidates, not by the
   primes the deployment drops. The deployed chain is the candidates after
   the first two, which [Rns_ckks.make_context] keeps for the special
   modulus (same generator, same order). A run that fails on a chain too
   short is a no. It runs on plain Shape: [candidate_params] has already run
   the same plan under Checked, and an output with a prime left was never
   multiplied at level 0, because levels only fall toward the output. *)
let keeps_headroom opts circuit ~policy ~n ~num_primes =
  let chain = Array.sub (candidate_chain opts ~n) 2 num_primes in
  let scheme = Hisa.Rns_chain chain in
  let backend = Shape.make { Shape.slots = n / 2; scheme } in
  match run_through backend opts circuit ~policy with
  | s_out, env ->
      let left = ref 0.0 in
      for i = 0 to env.Hisa.env_r - 1 do
        left := !left +. log2f (float_of_int chain.(i))
      done;
      !left >= log2f s_out +. float_of_int opts.value_headroom_bits
  | exception Herr.Fhe_error _ -> false

(* The smallest chain whose deployed run keeps the headroom, searched from
   the candidate-chain estimate [from] in whichever direction the deployed
   chain asks. *)
let deployed_primes opts circuit ~policy ~n ~from =
  let keeps num_primes = keeps_headroom opts circuit ~policy ~n ~num_primes in
  let rec down l = if l > 1 && keeps (l - 1) then down (l - 1) else l in
  let rec up l =
    if l + 2 > analysis_chain_length then
      raise (Compilation_failure "no deployable chain keeps the output's headroom")
    else if keeps l then l
    else up (l + 1)
  in
  if from > 1 && keeps (from - 1) then down (from - 1) else up from

(* §5.2 on the candidate chain: the smallest secure N and its prime-count
   estimate, searched from ring dimension [n]. *)
let candidate_params ?(n = 2048) opts circuit ~policy =
  let rec iterate n tries =
    if n > opts.max_n then
      raise (Compilation_failure (Printf.sprintf "no secure N <= %d accommodates this circuit" opts.max_n));
    let attempt =
      try
        let scheme = analysis_scheme opts ~n in
        (* run the analysis under the checked wrapper: a compiler bug that
           desynchronises scales or levels surfaces here as a typed error
           instead of propagating garbage into the parameter choice *)
        let backend =
          Checked.wrap ~scheme (Shape.make { Shape.slots = n / 2; scheme })
        in
        Some (run_through backend opts circuit ~policy)
      with
      | Herr.Fhe_error (Herr.Slot_overflow _, _) | Invalid_argument _ ->
          None (* layout does not fit this SIMD width: grow N *)
      | Herr.Fhe_error _ as e ->
          (* the candidate chain is policy-independent, so growing N cannot
             repair a modulus/scale violation — report it structurally *)
          raise (Compilation_failure ("parameter analysis failed: " ^ Printexc.to_string e))
    in
    match attempt with
    | None -> iterate (n * 2) tries (* layout does not fit this SIMD width *)
    | Some (s_out, env) ->
        let params = params_for_consumption opts ~n ~s_out ~env in
        let n_sec = secure_n opts params in
        if n_sec > n && tries < 8 then iterate (Stdlib.max n_sec (n * 2)) (tries + 1)
        else if n_sec > n then raise (Compilation_failure "parameter selection did not converge")
        else begin
          match params with
          | Rns_params p -> Rns_params { p with n }
          | Pow2_params p -> Pow2_params { p with n }
        end
  in
  iterate n 0

(* The candidate-chain estimate [params] settled on the deployed chain;
   should that chain outgrow the security of its N, the estimate is redone
   at the larger N. *)
let rec deploy opts circuit ~policy = function
  | Rns_params p ->
      let num_primes = deployed_primes opts circuit ~policy ~n:p.n ~from:p.num_primes in
      let params = Rns_params { p with num_primes; log_q = (num_primes + 2) * p.prime_bits } in
      let n_sec = secure_n opts params in
      if n_sec <= p.n then params
      else
        deploy opts circuit ~policy
          (candidate_params ~n:(Stdlib.max n_sec (p.n * 2)) opts circuit ~policy)
  | Pow2_params _ as params -> params

let select_params opts circuit ~policy =
  deploy opts circuit ~policy (candidate_params opts circuit ~policy)

(* ------------------------------------------------------------------ *)
(* §5.3 Cost estimation / data layout selection                         *)
(* ------------------------------------------------------------------ *)

let scheme_of_params opts = function
  | Rns_params { n; num_primes; _ } ->
      let chain = candidate_chain opts ~n in
      Hisa.Rns_chain (Array.sub chain 0 (Stdlib.min num_primes (Array.length chain)))
  | Pow2_params { log_fresh; _ } -> Hisa.Pow2_modulus log_fresh

let default_cost_model opts =
  match opts.cost with
  | Some cm -> cm
  | None -> ( match opts.target with Seal -> Cost_model.seal () | Heaan -> Cost_model.heaan () )

let estimate_cost opts circuit ~policy ~params =
  let backend, clock =
    Sim.make
      { Sim.n = params_n params; scheme = scheme_of_params opts params; costs = default_cost_model opts }
  in
  (try ignore (run_through backend opts circuit ~policy) with
  | Invalid_argument msg -> raise (Compilation_failure ("cost analysis failed: " ^ msg))
  | Herr.Fhe_error _ as e ->
      raise (Compilation_failure ("cost analysis failed: " ^ Printexc.to_string e)));
  clock.Sim.elapsed

(* ------------------------------------------------------------------ *)
(* §5.4 Rotation-keys selection                                         *)
(* ------------------------------------------------------------------ *)

let select_rotations opts circuit ~policy ~params =
  let n = params_n params in
  let shape = Shape.make { Shape.slots = n / 2; scheme = scheme_of_params opts params } in
  let backend, counters = Instrument.wrap shape in
  (try ignore (run_through backend opts circuit ~policy) with
  | Invalid_argument msg -> raise (Compilation_failure ("rotation analysis failed: " ^ msg))
  | Herr.Fhe_error _ as e ->
      raise (Compilation_failure ("rotation analysis failed: " ^ Printexc.to_string e)));
  let rotations =
    Hashtbl.fold (fun amount uses acc -> (amount, uses) :: acc) counters.Instrument.rotation_counts []
    |> List.sort compare
  in
  (rotations, counters)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

(* §5.3 ranks the policies on their candidate-chain estimates; only the
   winner is then settled on the deployed chain (its report re-estimated
   there). Ranking on deployed chains would move LeNet-5-small at Pc = 2^30,
   Pw = Pu = 2^14, Pm = 2^16 to CHW, which the model puts 0.5% under
   CHW-fc, HW-before on 13 primes but which measured 28% slower per
   inference at N = 2048. *)
let compile opts circuit =
  let estimates =
    List.map
      (fun policy ->
        let params = candidate_params opts circuit ~policy in
        let cost = estimate_cost opts circuit ~policy ~params in
        { pr_policy = policy; pr_params = params; pr_cost = cost })
      Layout.all_policies
  in
  let cheapest =
    List.fold_left (fun acc r -> if r.pr_cost < acc.pr_cost then r else acc) (List.hd estimates)
      (List.tl estimates)
  in
  let policy = cheapest.pr_policy in
  let params = deploy opts circuit ~policy cheapest.pr_params in
  let best =
    if params = cheapest.pr_params then cheapest
    else { cheapest with pr_params = params; pr_cost = estimate_cost opts circuit ~policy ~params }
  in
  let reports = List.map (fun r -> if r.pr_policy = policy then best else r) estimates in
  let rotations, op_counters = select_rotations opts circuit ~policy ~params in
  { circuit; opts; policy; params; rotations; op_counters; reports }

(* rotations and relinearisations of one inference at the compiled
   parameters *)
let key_switches c = Instrument.total_rotations c.op_counters + c.op_counters.Instrument.ct_muls

let pp_compiled fmt c =
  Format.fprintf fmt
    "@[<v>%s compiled for %s:@,  layout: %s@,  params: %a@,  rotation keys: %d@,\
    \  key switches per inference: %d@,"
    c.circuit.Circuit.name
    (match c.opts.target with Seal -> "SEAL (RNS-CKKS)" | Heaan -> "HEAAN (CKKS)")
    (Layout.policy_name c.policy) pp_params c.params (List.length c.rotations) (key_switches c);
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-18s est. %8.2f s  (N=%d, logQ=%d)@," (Layout.policy_name r.pr_policy)
        r.pr_cost (params_n r.pr_params) (params_log_q r.pr_params))
    c.reports;
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Deployment                                                           *)
(* ------------------------------------------------------------------ *)

type rotation_key_policy = Selected_keys | Power_of_two_keys

type keyset = {
  ks_seed : int;
  ks_view : Chet_crypto.Sampling.t -> Hisa.t;
  ks_scheme : Hisa.scheme_kind;
  ks_key_bytes : int;
}

(* The one key generation behind every deployment entry point: build the
   context, run the base keygen from the deployment seed, then either
   generate the rotation keys the compile selected or load the public
   evaluation material from a stored RKY3 payload (the warm-restart path;
   the base keygen still re-derives the never-persisted secret key). Returns
   the keygen sampler (which [instantiate] hands on to its backend), the
   keyset, and a thunk serialising its public material ([None] for HEAAN
   targets, whose key material has no wire format). Contexts and key tables
   are read-only afterwards, so views are safe to use from concurrent
   domains. *)
let keygen compiled ~seed ~rotation_keys ~keys ~with_secret =
  let rng = Chet_crypto.Sampling.create ~seed in
  match compiled.params with
  | Rns_params { n; prime_bits; num_primes; _ } ->
      (* every RNS prime is below 2^30 (Ntt.make_table); a wider chain is
         for analysis only, as Table 4's 60-bit companion *)
      if prime_bits > 30 then
        Herr.raise_err ~backend:"rns_ckks" ~op:"keygen"
          (Herr.Invalid_op
             {
               reason =
                 Printf.sprintf
                   "%d-bit primes: the RNS-CKKS backend runs on primes below 2^30 (prime_bits <= 30)"
                   prime_bits;
             });
      let module C = Chet_crypto.Rns_ckks in
      let params = C.default_params ~n ~bits:prime_bits ~num_coeff_primes:num_primes () in
      let ctx = C.make_context params in
      let sk, generated = C.keygen ctx rng in
      let keys =
        match keys with
        | Some bytes ->
            Chet_crypto.Serial.read_rns_keys (Chet_crypto.Serial.reader bytes) (C.rq_ctx ctx)
        | None ->
            (match rotation_keys with
            | Selected_keys ->
                List.iter
                  (fun (amount, _) -> C.add_rotation_key ctx rng sk generated amount)
                  compiled.rotations
            | Power_of_two_keys -> C.add_power_of_two_rotation_keys ctx rng sk generated);
            generated
      in
      let secret = if with_secret then Some sk else None in
      let view vrng =
        Chet_hisa.Seal_backend.make
          { Chet_hisa.Seal_backend.ctx; rng = vrng; keys; secret }
      in
      let export () =
        let w = Chet_crypto.Serial.writer () in
        Chet_crypto.Serial.write_rns_keys w (C.rq_ctx ctx) keys;
        Some (Chet_crypto.Serial.contents w)
      in
      (* the *actual* chain of the instantiated context (the analysis-time
         candidate chain differs: its two largest primes became the special
         modulus), so a checked wrapper validates against deployment truth *)
      let ks =
        {
          ks_seed = seed;
          ks_view = view;
          ks_scheme = Hisa.Rns_chain (C.coeff_primes ctx);
          ks_key_bytes = C.key_bytes keys;
        }
      in
      (rng, ks, export)
  | Pow2_params { n; log_fresh; log_special } ->
      (* stored keys only exist for RNS targets; HEAAN deployments re-derive *)
      let module C = Chet_crypto.Big_ckks in
      let params = C.default_params ~n ~log_special ~log_fresh () in
      let ctx = C.make_context params in
      let sk, keys = C.keygen ctx rng in
      (match rotation_keys with
      | Selected_keys ->
          List.iter (fun (amount, _) -> C.add_rotation_key ctx rng sk keys amount) compiled.rotations
      | Power_of_two_keys -> C.add_power_of_two_rotation_keys ctx rng sk keys);
      let secret = if with_secret then Some sk else None in
      let view vrng =
        Chet_hisa.Heaan_backend.make
          { Chet_hisa.Heaan_backend.ctx; rng = vrng; keys; secret }
      in
      let ks =
        { ks_seed = seed; ks_view = view; ks_scheme = Hisa.Pow2_modulus log_fresh; ks_key_bytes = 0 }
      in
      (rng, ks, Fun.const None)

let keyset compiled ~seed ?(rotation_keys = Selected_keys) ?keys ~with_secret () =
  let _, ks, _ = keygen compiled ~seed ~rotation_keys ~keys ~with_secret in
  ks

(* One backend drawing its randomness from the keygen sampler itself, as
   the deployment's first (and only) user. *)
let instantiate compiled ~seed ?(rotation_keys = Selected_keys) ~with_secret () =
  let rng, ks, _ = keygen compiled ~seed ~rotation_keys ~keys:None ~with_secret in
  ks.ks_view rng

(* Derive a per-request RNG seed from the deployment seed: requests must not
   share an encryption-randomness stream (their results would then depend on
   scheduling order), and distinct requests must not collide. An odd
   multiplier keeps the map injective over the integers. *)
let request_seed ~seed ~req_seed = seed lxor (0x2545F4914F6CDD1D * ((2 * req_seed) + 1))

(* A request's ciphertexts are a pure function of (inputs, req_seed) —
   independent of which worker runs it or in what order: every view draws
   its encryption randomness from a stream seeded by the request alone. *)
let reseed ks rng ~req_seed = Chet_crypto.Sampling.reseed rng ~seed:(request_seed ~seed:ks.ks_seed ~req_seed)

let view ks ~req_seed =
  ks.ks_view (Chet_crypto.Sampling.create ~seed:(request_seed ~seed:ks.ks_seed ~req_seed))

(* The cleartext stand-in for a deployment: the Clear backend at the
   compiled ring dimension and virtual scheme. It draws no randomness, so
   its views ignore the sampler. *)
let clear_keyset compiled =
  let scheme = scheme_of_params compiled.opts compiled.params in
  let slots = params_n compiled.params / 2 in
  {
    ks_seed = 0;
    ks_view =
      (fun _ -> Clear.make { Clear.slots; scheme; strict_modulus = false; encode_noise = false });
    ks_scheme = scheme;
    ks_key_bytes = 0;
  }

(* ------------------------------------------------------------------ *)
(* Durable deployments: compiled-metadata and key persistence           *)
(* ------------------------------------------------------------------ *)

module Serial = Chet_crypto.Serial

(* The CMPD frame: the full compile result minus the circuit (stored by
   name; the caller re-supplies the circuit and the reader verifies the
   name). Bumping the layout bumps [compiled_version] — an old frame then
   surfaces as a typed [Serial.Corrupt], never a misparse. *)
let compiled_version = 2

let write_params w = function
  | Rns_params { n; prime_bits; num_primes; log_q } ->
      Serial.write_int w 0;
      Serial.write_int w n;
      Serial.write_int w prime_bits;
      Serial.write_int w num_primes;
      Serial.write_int w log_q
  | Pow2_params { n; log_fresh; log_special } ->
      Serial.write_int w 1;
      Serial.write_int w n;
      Serial.write_int w log_fresh;
      Serial.write_int w log_special

let read_params r =
  match Serial.read_int r with
  | 0 ->
      let n = Serial.read_int r in
      let prime_bits = Serial.read_int r in
      let num_primes = Serial.read_int r in
      let log_q = Serial.read_int r in
      if n < 2 || n land (n - 1) <> 0 || prime_bits < 2 || num_primes < 1 then
        raise (Serial.Corrupt "implausible RNS parameters");
      Rns_params { n; prime_bits; num_primes; log_q }
  | 1 ->
      let n = Serial.read_int r in
      let log_fresh = Serial.read_int r in
      let log_special = Serial.read_int r in
      if n < 2 || n land (n - 1) <> 0 || log_fresh < 1 then
        raise (Serial.Corrupt "implausible pow2 parameters");
      Pow2_params { n; log_fresh; log_special }
  | k -> raise (Serial.Corrupt (Printf.sprintf "bad params kind %d" k))

let write_counted_pairs w pairs =
  Serial.write_int w (List.length pairs);
  List.iter
    (fun (a, b) ->
      Serial.write_int w a;
      Serial.write_int w b)
    pairs

let read_counted_pairs r =
  let n = Serial.read_int r in
  if n < 0 || n > 1 lsl 20 then raise (Serial.Corrupt "bad pair count");
  List.init n (fun _ ->
      let a = Serial.read_int r in
      let b = Serial.read_int r in
      (a, b))

(* The layout-policy codec of the CMPD frame (chosen policy and report
   rows); the tags are also the policy column of test/data's golden files. *)
let policy_tag = function
  | Layout.All_hw -> 0
  | Layout.All_chw -> 1
  | Layout.Hw_conv_chw_rest -> 2
  | Layout.Chw_fc_hw_before -> 3

let policy_of_tag = function
  | 0 -> Layout.All_hw
  | 1 -> Layout.All_chw
  | 2 -> Layout.Hw_conv_chw_rest
  | 3 -> Layout.Chw_fc_hw_before
  | n -> raise (Serial.Corrupt (Printf.sprintf "unknown layout policy %d" n))

let write_compiled w c =
  Serial.write_frame w "CMPD" (fun w ->
      Serial.write_int w compiled_version;
      Serial.write_string w c.circuit.Circuit.name;
      Serial.write_int w (match c.opts.target with Seal -> 0 | Heaan -> 1);
      Serial.write_int w
        (match c.opts.security with
        | Standard Security.Bits128 -> 0
        | Standard Security.Bits192 -> 1
        | Standard Security.Bits256 -> 2
        | Legacy_heaan -> 3);
      Serial.write_int w c.opts.prime_bits;
      Serial.write_int w c.opts.value_headroom_bits;
      Serial.write_int w c.opts.scales.Kernels.pc;
      Serial.write_int w c.opts.scales.Kernels.pw;
      Serial.write_int w c.opts.scales.Kernels.pu;
      Serial.write_int w c.opts.scales.Kernels.pm;
      Serial.write_int w c.opts.max_n;
      Serial.write_int w (if c.opts.sentinel then 1 else 0);
      Serial.write_int w (policy_tag c.policy);
      write_params w c.params;
      write_counted_pairs w c.rotations;
      let k = c.op_counters in
      List.iter (Serial.write_int w)
        Instrument.
          [
            k.encodes; k.decodes; k.encrypts; k.decrypts; k.adds; k.plain_adds; k.scalar_adds;
            k.ct_muls; k.plain_muls; k.scalar_muls; k.rescales;
          ];
      write_counted_pairs w
        (Hashtbl.fold (fun a u acc -> (a, u) :: acc) c.op_counters.Instrument.rotation_counts []
        |> List.sort compare);
      Serial.write_int w (List.length c.reports);
      List.iter
        (fun rp ->
          Serial.write_int w (policy_tag rp.pr_policy);
          write_params w rp.pr_params;
          Serial.write_float w rp.pr_cost)
        c.reports)

let read_compiled ~circuit r =
  Serial.read_frame r "CMPD" (fun r ->
      let v = Serial.read_int r in
      if v <> compiled_version then
        raise (Serial.Corrupt (Printf.sprintf "unsupported compiled version %d" v));
      let name = Serial.read_string r in
      if name <> circuit.Circuit.name then
        raise
          (Serial.Corrupt
             (Printf.sprintf "compiled for circuit %S, asked to restore %S" name
                circuit.Circuit.name));
      let target =
        match Serial.read_int r with
        | 0 -> Seal
        | 1 -> Heaan
        | k -> raise (Serial.Corrupt (Printf.sprintf "bad target %d" k))
      in
      let security =
        match Serial.read_int r with
        | 0 -> Standard Security.Bits128
        | 1 -> Standard Security.Bits192
        | 2 -> Standard Security.Bits256
        | 3 -> Legacy_heaan
        | k -> raise (Serial.Corrupt (Printf.sprintf "bad security level %d" k))
      in
      let prime_bits = Serial.read_int r in
      let value_headroom_bits = Serial.read_int r in
      let pc = Serial.read_int r in
      let pw = Serial.read_int r in
      let pu = Serial.read_int r in
      let pm = Serial.read_int r in
      if pc < 1 || pw < 1 || pu < 1 || pm < 1 then raise (Serial.Corrupt "bad scales");
      let max_n = Serial.read_int r in
      let sentinel =
        match Serial.read_int r with
        | 0 -> false
        | 1 -> true
        | k -> raise (Serial.Corrupt (Printf.sprintf "bad sentinel flag %d" k))
      in
      let opts =
        {
          target;
          security;
          prime_bits;
          value_headroom_bits;
          scales = { Kernels.pc; pw; pu; pm };
          cost = None;
          max_n;
          sentinel;
        }
      in
      let policy = policy_of_tag (Serial.read_int r) in
      let params = read_params r in
      let rotations = read_counted_pairs r in
      let k = Instrument.fresh_counters () in
      k.Instrument.encodes <- Serial.read_int r;
      k.Instrument.decodes <- Serial.read_int r;
      k.Instrument.encrypts <- Serial.read_int r;
      k.Instrument.decrypts <- Serial.read_int r;
      k.Instrument.adds <- Serial.read_int r;
      k.Instrument.plain_adds <- Serial.read_int r;
      k.Instrument.scalar_adds <- Serial.read_int r;
      k.Instrument.ct_muls <- Serial.read_int r;
      k.Instrument.plain_muls <- Serial.read_int r;
      k.Instrument.scalar_muls <- Serial.read_int r;
      k.Instrument.rescales <- Serial.read_int r;
      List.iter (fun (a, u) -> Hashtbl.replace k.Instrument.rotation_counts a u)
        (read_counted_pairs r);
      let nreports = Serial.read_int r in
      if nreports < 0 || nreports > 64 then raise (Serial.Corrupt "bad report count");
      let reports =
        List.init nreports (fun _ ->
            let pr_policy = policy_of_tag (Serial.read_int r) in
            let pr_params = read_params r in
            let pr_cost = Serial.read_float r in
            { pr_policy; pr_params; pr_cost })
      in
      { circuit; opts; policy; params; rotations; op_counters = k; reports })

(* Public evaluation material for the compiled deployment, as the RKY3 wire
   frame: the same deterministic keygen as [keyset], serialised without the
   secret key, which a restore re-derives from the seed instead of ever
   touching disk. *)
let export_keys compiled ~seed ?(rotation_keys = Selected_keys) () =
  let _, _, export = keygen compiled ~seed ~rotation_keys ~keys:None ~with_secret:false in
  export ()

(* ------------------------------------------------------------------ *)
(* Compiled execution plans (DESIGN.md §14)                            *)
(* ------------------------------------------------------------------ *)

(* Compile the chosen policy into an executable plan at the compiled ring
   dimension, on the twin geometry when the deployment carries sentinels.
   Pure metadata — no keys, no ciphertexts — and cheap, so a bundle does
   not store it: every deployment, warm or cold, rebuilds it from the
   compiled decisions (DESIGN.md §11). A zero-budget prepare
   against the shape backend fills in the static fusion counts (they are
   the same for every backend) without encoding a single plaintext. *)
let plan compiled =
  let slots = params_n compiled.params / 2 in
  let p = Plan.build ~twin:compiled.opts.sentinel ~slots ~policy:compiled.policy compiled.circuit in
  let shape =
    Shape.make { Shape.slots; scheme = scheme_of_params compiled.opts compiled.params }
  in
  let module H = (val shape : Hisa.S) in
  let module PE = Plan_exec.Make (H) in
  ignore (PE.prepare ~pt_budget:0 compiled.opts.scales p);
  p

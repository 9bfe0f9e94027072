(* Command-line driver: compile, inspect, run and serve the bundled networks.

     chet models
     chet compile  LeNet-5-small  --target seal
     chet run      micro          --target seal  --real
     chet run      SqueezeNet-CIFAR               (simulated)
     chet scales   micro          --tolerance 0.05
     chet serve    micro          --requests 24 --domains 2 --fault transient

   Exit codes: 0 ok, 2 usage error, 3 compilation failure, 4 runtime
   (FHE/serialisation) failure. *)

module Compiler = Chet.Compiler
module Scale_select = Chet.Scale_select
module Integrity = Chet.Integrity
module Layout = Chet_runtime.Layout
module Plan = Chet_plan.Plan
module Plan_exec = Chet_plan.Plan_exec
module Models = Chet_nn.Models
module Circuit = Chet_nn.Circuit
module Opcount = Chet_nn.Opcount
module Reference = Chet_nn.Reference
module Sim = Chet_hisa.Sim_backend
module Checked = Chet_hisa.Checked_backend
module Fault = Chet_hisa.Fault_backend
module Hisa = Chet_hisa.Hisa
module Herr = Chet_hisa.Herr
module Service = Chet_serve.Service
module T = Chet_tensor.Tensor
module Cost_model = Chet.Cost_model
module Timed_backend = Chet_hisa.Timed_backend
module Tracer = Chet_obs.Tracer
module Jsonx = Chet_obs.Jsonx
module Rns = Chet_crypto.Rns_ckks
module Big = Chet_crypto.Big_ckks
module Sampling = Chet_crypto.Sampling
module Seal_backend = Chet_hisa.Seal_backend
module Heaan_backend = Chet_hisa.Heaan_backend
module Store = Chet_store.Store
module Bundle = Chet_store.Bundle
open Cmdliner

let model_arg =
  let doc = "Network name (see `chet models')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)

let target_arg =
  let doc = "Target FHE scheme: seal (RNS-CKKS) or heaan (CKKS)." in
  Arg.(value & opt (enum [ ("seal", Compiler.Seal); ("heaan", Compiler.Heaan) ]) Compiler.Seal
       & info [ "target" ] ~doc)

let security_arg =
  let doc = "Security level: 128, 192, 256 (HE-standard) or legacy (HEAAN v1.0 presets)." in
  Arg.(value & opt (enum [
      ("128", Compiler.Standard Chet_crypto.Security.Bits128);
      ("192", Compiler.Standard Chet_crypto.Security.Bits192);
      ("256", Compiler.Standard Chet_crypto.Security.Bits256);
      ("legacy", Compiler.Legacy_heaan);
    ]) (Compiler.Standard Chet_crypto.Security.Bits128)
    & info [ "security" ] ~doc)

let cost_file_arg =
  let doc =
    "Load cost-model constants from a calibration JSON file written by `chet profile'; the \
     layout-selection pass then ranks candidates under the measured constants of this machine \
     instead of the shipped defaults."
  in
  Arg.(value & opt (some string) None & info [ "cost-file" ] ~docv:"FILE" ~doc)

(* calibration-file failures are runtime/serialisation failures: exit 4,
   like any other corrupt payload *)
let load_calibration_or_exit path =
  try Cost_model.load_calibration path
  with
  | Jsonx.Parse_error msg ->
      Printf.eprintf "chet: %s: bad calibration JSON: %s\n" path msg;
      exit 4
  | Failure msg ->
      Printf.eprintf "chet: %s: %s\n" path msg;
      exit 4
  | Sys_error msg ->
      Printf.eprintf "chet: %s\n" msg;
      exit 4

let apply_cost_file opts target = function
  | None -> opts
  | Some path ->
      let cal = load_calibration_or_exit path in
      let scheme = match target with Compiler.Seal -> `Seal | Compiler.Heaan -> `Heaan in
      { opts with Compiler.cost = Some (Cost_model.model_for scheme cal) }

let state_dir_arg =
  let doc =
    "Durable deployment store directory (created if absent). `compile' saves the deployment \
     bundle there; `serve' warm-restarts from it, skipping compilation and key generation. \
     Inspect with `chet store'."
  in
  Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)

(* Opening a store runs crash recovery; narrate what it found — quarantined
   generations keep their typed reason, uncommitted debris is just counted. *)
let open_store_verbose ?keep ?create dir =
  let store, report = Store.open_ ?keep ?create dir in
  List.iter
    (fun (name, e) ->
      Printf.eprintf "chet: store: quarantined %s/%s (%s: %s)\n" dir name (Herr.error_name e)
        (Herr.error_detail e))
    report.Store.r_quarantined;
  if report.Store.r_removed_tmp > 0 then
    Printf.eprintf "chet: store: removed %d uncommitted *.tmp entries\n" report.Store.r_removed_tmp;
  (store, report)

let save_bundle_verbose store bundle =
  let files = Bundle.files bundle in
  let bytes = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 files in
  let gen = Store.save store ~files in
  Printf.printf "saved deployment bundle: generation %d, %d files, %d bytes -> %s\n" gen
    (List.length files) bytes (Store.root store);
  gen

(* --- ring kernel options (DESIGN.md §15) ------------------------------- *)

let kernel_domains_arg =
  let doc =
    "Kernel-domain pool width: independent RNS residue channels of each ring operation fan \
     out across $(docv) OCaml 5 domains (default: this machine's recommended domain count). \
     1 runs every kernel sequentially. Results are bit-identical for every width."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let kernel_domains_gauge =
  lazy
    (Chet_obs.Metrics.gauge Chet_obs.Metrics.default ~help:"kernel-domain pool width"
       "chet_kernel_domains")

(* lib/crypto cannot depend on lib/obs, so the gauge is set here, at the
   layer that also owns the pool width decision *)
let apply_kernel_opts domains =
  let d =
    match domains with Some d -> Stdlib.max 1 d | None -> Domain.recommended_domain_count ()
  in
  Chet_crypto.Kpool.configure ~domains:d;
  Chet_obs.Metrics.set_gauge (Lazy.force kernel_domains_gauge) (float_of_int d)

let kernel_term = Term.(const apply_kernel_opts $ kernel_domains_arg)

(* serve names its worker-pool width --domains already; the kernel pool gets
   an unambiguous flag there *)
let kernel_domains_serve_arg =
  let doc =
    "Kernel-domain pool width for ring operations (distinct from --domains, the worker-pool \
     width). Defaults to 1 under serve: worker parallelism usually saturates the cores."
  in
  Arg.(value & opt int 1 & info [ "kernel-domains" ] ~docv:"N" ~doc)

let kernel_term_serve = Term.(const (fun d -> apply_kernel_opts (Some d)) $ kernel_domains_serve_arg)

(* exit code 2: a usage error, same class as a flag cmdliner rejects *)
let lookup_model name =
  try Models.find name
  with Not_found ->
    Printf.eprintf "unknown model %s; try `chet models'\n" name;
    exit 2

let models_cmd =
  let run () =
    List.iter
      (fun spec ->
        let circuit = spec.Models.build () in
        let conv, fc, act = Circuit.layer_counts circuit in
        Printf.printf "%-18s %2d conv  %d fc  %d act  %9d FP ops  %s\n" spec.Models.model_name conv
          fc act (Opcount.count circuit).Opcount.total spec.Models.description)
      (Models.micro :: Models.cryptonets :: Models.all)
  in
  Cmd.v (Cmd.info "models" ~doc:"List bundled networks") Term.(const run $ const ())

let compile_cmd =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:"Deployment key-generation seed recorded in the bundle (--state-dir).")
  in
  let no_keys_arg =
    Arg.(
      value & flag
      & info [ "no-keys" ]
          ~doc:
            "With --state-dir: skip exporting the public evaluation keys into the bundle. \
             A warm restart then re-derives all key material from the seed (cheap for \
             cleartext serving; one keygen for real deployments).")
  in
  let run model target security cost_file state_dir seed no_keys =
    let spec = lookup_model model in
    let opts =
      apply_cost_file { (Compiler.default_options ~target ()) with Compiler.security } target
        cost_file
    in
    let compiled = Compiler.compile opts (spec.Models.build ()) in
    Format.printf "%a@." Compiler.pp_compiled compiled;
    match state_dir with
    | None -> ()
    | Some dir ->
        let store, _report = open_store_verbose dir in
        let bundle = Bundle.build ~with_keys:(not no_keys) compiled ~seed () in
        ignore (save_bundle_verbose store bundle)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a network and report the chosen configuration")
    Term.(
      const run $ model_arg $ target_arg $ security_arg $ cost_file_arg $ state_dir_arg $ seed_arg
      $ no_keys_arg)

let run_cmd =
  let real_arg =
    Arg.(value & flag & info [ "real" ] ~doc:"Run on the real scheme (slow) instead of the simulator.")
  in
  let checked_arg =
    Arg.(
      value & flag
      & info [ "checked" ]
          ~doc:
            "With --real: validate every homomorphic op's pre/postconditions at runtime \
             (scales, levels, rescale legality, NaN screening); corruption surfaces as a \
             typed FHE error instead of a garbage prediction.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Synthetic image seed.") in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a Chrome trace_event JSON trace of the run — one span per plan step \
             (node id, layer, layout, arena slot, HISA op count, result scale/level) — and write \
             it to $(docv); open in chrome://tracing or Perfetto.")
  in
  let sentinel_arg =
    Arg.(
      value & flag
      & info [ "sentinel" ]
          ~doc:
            "Verify the answer end-to-end with sentinel slots (DESIGN.md §16): a known probe \
             rides the twin lane through the whole plan and is checked against the clear \
             reference at decrypt.")
  in
  let run () model target real checked want_sentinel seed trace cost_file =
    let spec = lookup_model model in
    let circuit = spec.Models.build () in
    let base_opts = apply_cost_file (Compiler.default_options ~target ()) target cost_file in
    let opts = { base_opts with Compiler.sentinel = want_sentinel } in
    let compiled = Compiler.compile opts circuit in
    Format.printf "%a@." Compiler.pp_compiled compiled;
    let image = Models.input_for spec ~seed in
    let expected = Reference.eval circuit image in
    (* --trace: ambient tracer for the plan's step spans, plus the timed
       interceptor around the backend so spans can attribute HISA op counts *)
    let tracer = Option.map (fun _ -> Tracer.create ()) trace in
    let timer = Timed_backend.create () in
    Tracer.set_global tracer;
    let wrap b = if trace = None then b else Timed_backend.wrap timer b in
    let plan = Compiler.plan compiled in
    Printf.printf "plan: %s\n" (Plan.summary plan);
    let margin = ref Float.nan in
    let sentinel =
      if not want_sentinel then None
      else
        let sp = Integrity.spec_for circuit in
        Some (Integrity.sentinel ~observe:(fun t -> margin := Integrity.margin_bits sp t) sp)
    in
    let run_with (backend : Hisa.t) =
      (Plan_exec.prepare_runner (wrap backend) opts.Compiler.scales plan) ?sentinel image
    in
    let finally () = Tracer.set_global None in
    let got, latency =
      Fun.protect ~finally (fun () ->
          if real then begin
            (* one keyset, one view: --checked validates the very backend an
               unchecked run computes on, so both produce identical bits *)
            let ks = Compiler.keyset compiled ~seed:42 ~with_secret:true () in
            let backend = Compiler.view ks ~req_seed:0 in
            let backend =
              if checked then Checked.wrap ~scheme:ks.Compiler.ks_scheme backend else backend
            in
            let t0 = Unix.gettimeofday () in
            let r = run_with backend in
            (r, Unix.gettimeofday () -. t0)
          end
          else begin
            let backend, clock =
              Sim.make_with_values
                {
                  Sim.n = Compiler.params_n compiled.Compiler.params;
                  scheme = Compiler.scheme_of_params opts compiled.Compiler.params;
                  costs =
                    (match opts.Compiler.cost with
                    | Some m -> m
                    | None -> (
                        match target with
                        | Compiler.Seal -> Cost_model.seal ()
                        | Compiler.Heaan -> Cost_model.heaan ()));
                }
            in
            (* run first: a tuple's components evaluate right to left *)
            let r = run_with backend in
            (r, clock.Sim.elapsed)
          end)
    in
    (match trace, tracer with
    | Some path, Some tr ->
        Tracer.export_chrome tr path;
        Printf.printf "trace: %d spans (%d dropped), %d timed HISA ops -> %s\n"
          (List.length (Tracer.events tr))
          (Tracer.dropped tr) (Timed_backend.total_ops timer) path
    | _ -> ());
    Printf.printf "%s latency: %.2f s; class=%d (clear %d); max |err|=%.5f\n"
      (if real then "measured" else "simulated")
      latency (T.argmax got) (T.argmax expected)
      (T.max_abs_diff (T.flatten expected) (T.flatten got));
    if want_sentinel then
      if Float.is_nan !margin then Printf.printf "sentinel: verified (margin not observed)\n"
      else Printf.printf "sentinel: verified, margin %.2f bits\n" !margin
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one encrypted inference")
    Term.(
      const run $ kernel_term $ model_arg $ target_arg $ real_arg $ checked_arg $ sentinel_arg
      $ seed_arg $ trace_arg $ cost_file_arg)

let scales_cmd =
  let tol_arg = Arg.(value & opt float 0.05 & info [ "tolerance" ] ~doc:"Output tolerance.") in
  let run () model target tolerance cost_file =
    let spec = lookup_model model in
    let circuit = spec.Models.build () in
    let opts = apply_cost_file (Compiler.default_options ~target ()) target cost_file in
    let images = List.init 3 (fun i -> Models.input_for spec ~seed:(100 + i)) in
    let result =
      Scale_select.search
        ~log:(fun line -> Printf.eprintf "%s\n%!" line)
        opts circuit ~policy:Layout.All_hw ~images ~tolerance
        ~start_exponents:(34, 24, 24, 18) ()
    in
    let ec, ew, eu, em = result.Scale_select.exponents in
    Printf.printf "selected scales: Pc=2^%d Pw=2^%d Pu=2^%d Pm=2^%d (%d candidates tried, %d rejected)\n"
      ec ew eu em result.Scale_select.evaluations
      (List.length result.Scale_select.rejections)
  in
  Cmd.v (Cmd.info "scales" ~doc:"Profile-guided fixed-point scale search (§5.5)")
    Term.(const run $ kernel_term $ model_arg $ target_arg $ tol_arg $ cost_file_arg)

(* --- chet profile: calibrate the cost model on this machine ------------- *)

(* Exercise every Table-1 op of a (timed) backend at each reachable level,
   descending the modulus chain by squaring + rescaling, so the calibrator
   sees samples across the (N, r)/(N, logQ) grid it fits against. *)
let profile_amounts = Array.init 8 (fun i -> i + 1)

let profile_backend timer backend ~reps =
  let module H = (val Timed_backend.wrap timer backend : Hisa.S) in
  let scale = 1 lsl 30 in
  let v = Array.init H.slots (fun i -> 0.001 *. float_of_int (i mod 97)) in
  let pt = H.encode v ~scale in
  let a = ref (H.encrypt pt) in
  let b = ref (H.encrypt pt) in
  (try
     let continue = ref true in
     while !continue do
       (* fused accumulators must already sit at the product scale *)
       let acc_scalar = H.mul_scalar !a 1.5 ~scale and acc_plain = H.mul_plain !a pt in
       for _ = 1 to reps do
         ignore (H.add !a !b);
         ignore (H.add_plain !a pt);
         ignore (H.add_scalar !a 0.5);
         ignore (H.mul_scalar !a 1.5 ~scale);
         ignore (H.mul_plain !a pt);
         ignore (H.mul !a !b);
         ignore (H.rot_left !a 1);
         (* fused accumulation ops — the plan path's workhorses; their cells
            let the calibrator fit the composite main+Add terms *)
         ignore (H.fma_scalar acc_scalar !b 1.5 ~scale);
         ignore (H.fma_plain acc_plain !b pt);
         ignore (H.fma_rot !a !b 1);
         (* the hoisted row: one call over the amounts with profile keys *)
         ignore (H.rot_many !a profile_amounts)
       done;
       (* descend one rung: square, rescale back towards the working scale *)
       let m = H.mul !a !b in
       let d = H.max_rescale m scale in
       if d > 1 then begin
         let m' = H.rescale m d in
         a := m';
         b := m'
       end
       else continue := false
     done
   with Herr.Fhe_error _ -> (* bottom of the chain: profiling is done *) ());
  ignore (H.decode (H.decrypt !a))

let profile_cmd =
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Fewer ring sizes and repetitions (CI smoke).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "chet-calibration.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to write the calibration JSON.")
  in
  let run () quick out =
    let reps = if quick then 3 else 12 in
    let seal_timer = Timed_backend.create () in
    let seal_sizes = if quick then [ (2048, 3) ] else [ (2048, 4); (4096, 4); (4096, 8) ] in
    List.iter
      (fun (n, primes) ->
        Printf.eprintf "profiling seal   n=%-5d primes=%d\n%!" n primes;
        let params = Rns.default_params ~n ~bits:30 ~num_coeff_primes:primes () in
        let ctx = Rns.make_context params in
        let rng = Sampling.create ~seed:1 in
        let sk, keys = Rns.keygen ctx rng in
        Array.iter (Rns.add_rotation_key ctx rng sk keys) profile_amounts;
        profile_backend seal_timer
          (Seal_backend.make { Seal_backend.ctx; rng; keys; secret = Some sk })
          ~reps)
      seal_sizes;
    let heaan_timer = Timed_backend.create () in
    let heaan_sizes = if quick then [ (1024, 120) ] else [ (1024, 120); (2048, 120); (2048, 240) ] in
    List.iter
      (fun (n, log_fresh) ->
        Printf.eprintf "profiling heaan  n=%-5d logQ=%d\n%!" n log_fresh;
        let params = Big.default_params ~n ~log_fresh () in
        let ctx = Big.make_context params in
        let rng = Sampling.create ~seed:2 in
        let sk, keys = Big.keygen ctx rng in
        Array.iter (Big.add_rotation_key ctx rng sk keys) profile_amounts;
        profile_backend heaan_timer
          (Heaan_backend.make { Heaan_backend.ctx; rng; keys; secret = Some sk })
          ~reps)
      heaan_sizes;
    let seal_c = Cost_model.calibrate_from ~scheme:`Seal (Timed_backend.cells seal_timer) in
    let heaan_c = Cost_model.calibrate_from ~scheme:`Heaan (Timed_backend.cells heaan_timer) in
    let cal = { Cost_model.seal_c; heaan_c } in
    Cost_model.save_calibration out cal;
    let pr name (c : Cost_model.constants) =
      Printf.printf
        "%-6s k_add=%.3g k_scalar_mul=%.3g k_plain_mul=%.3g k_cipher_mul=%.3g k_rotate=%.3g \
         k_rot_hoisted=%.3g k_rescale=%.3g\n"
        name c.Cost_model.k_add c.Cost_model.k_scalar_mul c.Cost_model.k_plain_mul
        c.Cost_model.k_cipher_mul c.Cost_model.k_rotate c.Cost_model.k_rot_hoisted
        c.Cost_model.k_rescale
    in
    pr "seal" seal_c;
    pr "heaan" heaan_c;
    Printf.printf "%d seal + %d heaan timed ops -> %s\n"
      (Timed_backend.total_ops seal_timer)
      (Timed_backend.total_ops heaan_timer)
      out
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Microbenchmark this machine's scheme implementations through the timed HISA \
          interceptor, fit Table-1 cost-model constants from the measurements, and write a \
          calibration JSON that `compile', `run', `scales' and the benches accept via \
          --cost-file")
    Term.(const run $ kernel_term $ quick_arg $ out_arg)

(* --- chet trace: validate an exported Chrome trace ---------------------- *)

let trace_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace JSON file.")
  in
  let run file =
    let j =
      try Jsonx.of_file file
      with
      | Jsonx.Parse_error msg ->
          Printf.eprintf "chet: %s: bad trace JSON: %s\n" file msg;
          exit 4
      | Sys_error msg ->
          Printf.eprintf "chet: %s\n" msg;
          exit 4
    in
    match Jsonx.member "traceEvents" j with
    | Some (Jsonx.Arr evs) ->
        let well_formed e =
          Jsonx.str_member "ph" e <> None
          && Jsonx.str_member "name" e <> None
          && Jsonx.num_member "ts" e <> None
          && Jsonx.num_member "pid" e <> None
          && Jsonx.num_member "tid" e <> None
        in
        let bad = List.filter (fun e -> not (well_formed e)) evs in
        if bad <> [] then begin
          Printf.eprintf "chet: %s: %d trace events missing ph/name/ts/pid/tid\n" file
            (List.length bad);
          exit 4
        end;
        Printf.printf "%s: valid Chrome trace, %d events\n" file (List.length evs)
    | _ ->
        Printf.eprintf "chet: %s: not a Chrome trace (no \"traceEvents\" array)\n" file;
        exit 4
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Validate a Chrome trace_event JSON file written by `chet run --trace'")
    Term.(const run $ file_arg)

(* --- chet serve: the resilient inference service on a scripted trace --- *)

(* A warm restart adopts a bundle only if it was compiled for the requested
   sentinel setting: the other setting is another deployment, whose
   parameters and rotation keys were chosen for the other geometry. *)
let matching_bundle ~want_sentinel = function
  | Some l
    when l.Bundle.l_bundle.Bundle.b_compiled.Compiler.opts.Compiler.sentinel <> want_sentinel ->
      Printf.eprintf "chet: store: generation %d was compiled %s sentinels; cold compile\n"
        l.Bundle.l_generation
        (if want_sentinel then "without" else "with");
      None
  | l -> l

(* Boot a deployment for `serve' and `shard-worker' (DESIGN.md §11): adopt
   the newest bundle compiled for the requested sentinel setting, or
   cold-compile and persist a bundle so the next start is warm. A bundle
   that passes the store's checksums but fails schema parsing is reported
   (typed) and treated like an empty store. A warm restart prints how long
   the load took. *)
let boot ~with_keys ~target ~want_sentinel ~seed store circuit =
  let t0 = Unix.gettimeofday () in
  let restored =
    Option.bind store (fun st ->
        (try Bundle.load st ~circuit
         with Herr.Fhe_error ((Herr.Corrupt_bundle _ as e), _) ->
           Printf.eprintf "chet: store: %s: %s; falling back to cold compile\n"
             (Herr.error_name e) (Herr.error_detail e);
           None)
        |> matching_bundle ~want_sentinel)
  in
  Option.iter
    (fun l ->
      Printf.printf
        "warm restart: generation %d, %d bytes restored in %.1f ms (compile%s skipped)\n"
        l.Bundle.l_generation l.Bundle.l_bytes
        ((Unix.gettimeofday () -. t0) *. 1000.0)
        (if l.Bundle.l_bundle.Bundle.b_keys <> None then " and keygen" else ""))
    restored;
  match restored with
  | Some l -> (restored, l.Bundle.l_bundle.Bundle.b_compiled)
  | None ->
      let opts = { (Compiler.default_options ~target ()) with Compiler.sentinel = want_sentinel } in
      let compiled = Compiler.compile opts circuit in
      Option.iter
        (fun st -> ignore (save_bundle_verbose st (Bundle.build ~with_keys compiled ~seed ())))
        store;
      (None, compiled)

(* The fault modes every serving command injects (see [arm_fault]). *)
let fault_modes =
  [ ("none", `None); ("transient", `Transient); ("persistent", `Persistent); ("silent", `Silent) ]

let fault_arg ~doc = Arg.(value & opt (enum fault_modes) `None & info [ "fault" ] ~doc)

(* SIGINT/SIGTERM ask a long-running command to stop gracefully: the
   returned flag is what its main loop polls. *)
let stop_on_signals () =
  let stopping = Atomic.make false in
  List.iter
    (fun sg ->
      try Sys.set_signal sg (Sys.Signal_handle (fun _ -> Atomic.set stopping true))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  stopping

(* Seeded fault injection around a cleartext backend: 'transient' NaN-
   poisons the decode path of a request's first attempt only, 'persistent'
   of every attempt (typed Numeric_blowup under the checked wrapper),
   'silent' perturbs result slots with no typed error. *)
let arm_fault fault compiled ~req_seed ~attempt base =
  let armed =
    match fault with
    | `None -> None
    | `Transient -> if attempt = 0 then Some Fault.Nan_poison else None
    | `Persistent -> Some Fault.Nan_poison
    | `Silent -> Some Fault.Silent_corruption
  in
  match armed with
  | None -> base
  | Some f ->
      let faulty, _log = Fault.wrap (Fault.default_config ~seed:req_seed (Some f)) base in
      Checked.wrap ~scheme:(Compiler.scheme_of_params compiled.Compiler.opts compiled.Compiler.params) faulty

let clear_backend compiled = Compiler.view (Compiler.clear_keyset compiled) ~req_seed:0

(* The cleartext deployment of `serve' and `shard-worker'. One that sees a
   different backend on every attempt (faults, delays) is [Per_attempt];
   otherwise it shares one plan prepared per worker. *)
let clear_deployment compiled ~plan ?sentinel backend =
  {
    Service.dep_label = "primary";
    dep_scales = compiled.Compiler.opts.Compiler.scales;
    dep_plan = plan;
    dep_backend = backend;
    dep_sentinel = sentinel;
  }

let serve_cmd =
  let requests_arg =
    Arg.(value & opt int 24 & info [ "requests" ] ~doc:"Number of requests in the scripted trace.")
  in
  let domains_arg =
    Arg.(value & opt int 2 & info [ "domains" ] ~doc:"Worker pool width (OCaml 5 domains).")
  in
  let queue_arg =
    Arg.(value & opt int 8 & info [ "queue" ] ~doc:"Queue high-water mark (requests shed above it).")
  in
  let deadline_arg =
    Arg.(value & opt float 30000.0 & info [ "deadline-ms" ] ~doc:"Per-request deadline budget.")
  in
  let tight_arg =
    Arg.(
      value & opt int 0
      & info [ "tight-every" ]
          ~doc:"Give every k-th request a 1 ms deadline (0 = off) to exercise deadline expiry.")
  in
  let fault_arg =
    fault_arg
      ~doc:
        "Inject faults into the cleartext deployment: 'transient' NaN-poisons only the first \
         attempt of each request (retries recover), 'persistent' NaN-poisons every attempt (each \
         request ends in a typed error after its retries), 'silent' perturbs result slots with \
         no typed error — invisible without $(b,--sentinel), which fails each request with a \
         typed Integrity_violation after its retries. Faults are injected only into the \
         cleartext deployment: with $(b,--real) any mode but 'none' is a usage error."
  in
  let real_arg =
    Arg.(
      value & flag
      & info [ "real" ] ~doc:"Serve on the real instantiated scheme instead of cleartext.")
  in
  let sentinel_arg =
    Arg.(
      value & flag
      & info [ "sentinel" ]
          ~doc:
            "Verify every answer end-to-end with sentinel slots (DESIGN.md §16): a known probe \
             rides the interleaved twin lane through the whole circuit and is checked against \
             the clear reference before the answer is released. Mismatches surface as typed \
             Integrity_violation.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Key-generation seed (--real).") in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics-dump" ]
          ~doc:
            "After the trace, print the service's metrics registry in Prometheus text \
             exposition format (request counters, latency histogram, queue gauges).")
  in
  let interarrival_arg =
    Arg.(
      value & opt float 0.0
      & info [ "interarrival-ms" ]
          ~doc:
            "Pace the scripted trace: sleep this many ms between submissions (0 = one burst). \
             Pacing gives SIGINT/SIGTERM a window to land mid-run and exercise graceful \
             shutdown.")
  in
  let run () model target requests domains queue_hw deadline_ms tight_every fault real
      want_sentinel seed metrics_dump state_dir interarrival_ms =
    if real && fault <> `None then begin
      Printf.eprintf "chet: serve: --fault is not supported with --real\n";
      exit 2
    end;
    let spec = lookup_model model in
    let circuit = spec.Models.build () in
    let sentinel = if want_sentinel then Some (Integrity.spec_for circuit) else None in
    let store = Option.map (fun d -> fst (open_store_verbose d)) state_dir in
    (* keys are persisted only for real deployments *)
    let restored, compiled =
      boot ~with_keys:real ~target ~want_sentinel ~seed store circuit
    in
    Format.printf "%a@." Compiler.pp_compiled compiled;
    let deployment =
      if real then begin
        (* the bundle's seed governs: the restored deployment must be
           bit-identical to the one that wrote it *)
        let keyset =
          match restored with
          | Some l -> Bundle.restore_keyset l.Bundle.l_bundle ~with_secret:true
          | None -> Compiler.keyset compiled ~seed ~with_secret:true ()
        in
        Service.ladder_of_keyset compiled ~keyset ?sentinel ()
      end
      else begin
        (* the cleartext deployment: same circuit, policy and scales, with
           seeded fault injection so the retry machinery has something to
           push against *)
        clear_deployment compiled ~plan:(Compiler.plan compiled) ?sentinel
          (if fault = `None then Service.Shared (Compiler.clear_keyset compiled)
           else
             Service.Per_attempt
               (fun ~req_seed ~attempt ->
                 arm_fault fault compiled ~req_seed ~attempt (clear_backend compiled)))
      end
    in
    Printf.printf "plan: %s\n" (Plan.summary deployment.Service.dep_plan);
    let cfg =
      {
        (Service.default_config ~domains ()) with
        Service.high_water = queue_hw;
        backoff_base_ms = 1.0;
        backoff_cap_ms = 10.0;
        default_deadline_ms = deadline_ms;
      }
    in
    let svc = Service.create cfg ~circuit ~ladder:deployment in
    (* graceful shutdown: on SIGINT/SIGTERM stop admitting (remaining
       scripted requests are refused with the typed Overloaded vocabulary),
       drain what is in flight within its deadlines, exit 0 *)
    let stopping = stop_on_signals () in
    (* scripted trace: a burst by default — bigger than the queue can hold
       if [requests] outruns [queue + domains], which is the point — or
       paced with --interarrival-ms *)
    let tickets = ref [] in
    let refused = ref 0 in
    for i = 0 to requests - 1 do
      if Atomic.get stopping then incr refused
      else begin
        let deadline_ms =
          if tight_every > 0 && (i + 1) mod tight_every = 0 then 1.0 else deadline_ms
        in
        tickets := Service.submit svc ~deadline_ms (Models.input_for spec ~seed:(100 + i)) :: !tickets;
        if interarrival_ms > 0.0 && i < requests - 1 && not (Atomic.get stopping) then
          Unix.sleepf (interarrival_ms /. 1000.0)
      end
    done;
    let outcomes = List.rev_map (Service.await svc) !tickets in
    for i = requests - !refused to requests - 1 do
      Printf.printf "req %02d: %-5s %s (shutting down)\n" i "ERR"
        (Herr.error_name (Herr.Overloaded { queue_depth = 0; high_water = queue_hw }))
    done;
    Service.shutdown svc;
    List.iter
      (fun (o : Service.outcome) ->
        match o.Service.out_result with
        | Ok t ->
            Printf.printf "req %02d: ok    class=%d via %s (%d attempt%s, %.1f ms)\n"
              o.Service.out_id (T.argmax t) o.Service.out_served_by o.Service.out_attempts
              (if o.Service.out_attempts = 1 then "" else "s")
              o.Service.out_total_ms
        | Error (e, _) ->
            Printf.printf "req %02d: %-5s %s\n" o.Service.out_id "ERR" (Herr.error_name e))
      outcomes;
    Format.printf "%a@." Service.pp_stats (Service.stats svc);
    if metrics_dump then print_string (Service.metrics_snapshot svc);
    if Atomic.get stopping then begin
      Printf.printf "graceful shutdown: drained %d in-flight, refused %d\n" (List.length outcomes)
        !refused;
      exit 0
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the supervised inference service on a scripted request trace (deadlines, retries, \
          load shedding) against one deployment and print a stats summary")
    Term.(
      const run $ kernel_term_serve $ model_arg $ target_arg $ requests_arg $ domains_arg
      $ queue_arg $ deadline_arg
      $ tight_arg $ fault_arg $ real_arg $ sentinel_arg $ seed_arg
      $ metrics_arg $ state_dir_arg $ interarrival_arg)

(* --- chet store: inspect and maintain a deployment store ---------------- *)

let store_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Store directory.")
  in
  (* generation metadata for display; any damage here just degrades the
     listing (verification already vouched for the bytes) *)
  let peek_gen store id =
    let path = Filename.concat (Store.root store) (Printf.sprintf "gen-%06d/meta.chet" id) in
    match In_channel.with_open_bin path In_channel.input_all with
    | bytes -> ( try Some (Bundle.peek_meta bytes) with Chet_crypto.Serial.Corrupt _ -> None)
    | exception Sys_error _ -> None
  in
  let print_statuses store statuses =
    List.iter
      (fun (s : Store.status) ->
        match s.Store.g_result with
        | Ok bytes ->
            let desc =
              match peek_gen store s.Store.g_id with
              | Some (name, seed) -> Printf.sprintf "model=%s seed=%d" name seed
              | None -> "(no bundle metadata)"
            in
            Printf.printf "gen %06d: ok       %8d bytes  %s\n" s.Store.g_id bytes desc
        | Error e ->
            Printf.printf "gen %06d: CORRUPT  %s: %s\n" s.Store.g_id (Herr.error_name e)
              (Herr.error_detail e))
      statuses
  in
  (* inspection never creates a store: a mistyped path is an error, not an
     empty (healthy-looking) store *)
  let ls_run dir =
    let store, report = open_store_verbose ~create:false dir in
    (match report.Store.r_active with
    | Some id ->
        Printf.printf "active: generation %d (%d bytes verified)\n" id
          report.Store.r_verified_bytes
    | None -> Printf.printf "active: none (store empty or all generations damaged)\n");
    print_statuses store (Store.verify store)
  in
  let verify_run dir =
    let store, report = open_store_verbose ~create:false dir in
    let statuses = Store.verify store in
    let bad = List.length (List.filter (fun s -> Result.is_error s.Store.g_result) statuses) in
    print_statuses store statuses;
    let quarantined = List.length report.Store.r_quarantined in
    Printf.printf "%d generation(s) ok, %d corrupt, %d quarantined on open\n"
      (List.length statuses - bad) bad quarantined;
    if bad > 0 || quarantined > 0 then exit 4
  in
  let keep_arg =
    Arg.(value & opt int 3 & info [ "keep" ] ~doc:"How many newest generations to retain.")
  in
  let gc_run dir keep =
    if keep < 1 then begin
      Printf.eprintf "chet: store gc: --keep must be >= 1\n";
      exit 2
    end;
    let store, _report = open_store_verbose ~keep ~create:false dir in
    let removed = Store.gc store ~keep in
    List.iter (fun name -> Printf.printf "removed %s\n" name) removed;
    Printf.printf "%d removed, %d generation(s) kept\n" (List.length removed)
      (List.length (Store.generations store))
  in
  Cmd.group (Cmd.info "store" ~doc:"Inspect and maintain a durable deployment store")
    [
      Cmd.v
        (Cmd.info "ls" ~doc:"List generations with integrity status and bundle metadata")
        Term.(const ls_run $ dir_arg);
      Cmd.v
        (Cmd.info "verify"
           ~doc:"Re-verify every generation's manifest and checksums; exit 4 on any damage")
        Term.(const verify_run $ dir_arg);
      Cmd.v
        (Cmd.info "gc" ~doc:"Remove generations beyond --keep and cap quarantine debris")
        Term.(const gc_run $ dir_arg $ keep_arg);
    ]

(* --- chet shard-worker / supervise / loadgen: networked serving ---------- *)

module Wire = Chet_net.Wire
module Net_server = Chet_net.Server
module Supervisor = Chet_net.Supervisor
module Loadgen = Chet_net.Loadgen

let addr_arg name ~doc =
  let doc = doc ^ " (unix:PATH or tcp:HOST:PORT)" in
  Arg.(required & opt (some string) None & info [ name ] ~docv:"ADDR" ~doc)

let parse_addr s =
  try Wire.addr_of_string s
  with Invalid_argument msg ->
    Printf.eprintf "chet: %s\n" msg;
    exit 2

let target_name = function Compiler.Seal -> "seal" | Compiler.Heaan -> "heaan"

let net_seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Determinism seed (requests, jitter, faults).")

(* One shard process: a Service behind a socket. The supervisor forks these;
   `chet shard-worker` is also runnable by hand for a single-shard server. *)
let shard_worker_cmd =
  let listen_arg = addr_arg "listen" ~doc:"Address to serve REQ1/HLTH frames on" in
  let shard_arg = Arg.(value & opt int 0 & info [ "shard" ] ~doc:"Shard id stamped into responses.") in
  let domains_arg = Arg.(value & opt int 2 & info [ "domains" ] ~doc:"Worker pool width.") in
  let queue_arg = Arg.(value & opt int 8 & info [ "queue" ] ~doc:"Queue high-water mark.") in
  let inflight_arg =
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~doc:"Socket-level concurrent request cap.")
  in
  let fault_arg =
    fault_arg
      ~doc:
        "Inject faults into the shard's deployment: $(b,transient) NaN-poisons the first attempt \
         of each request (retries recover), $(b,persistent) every attempt (each request ends in \
         a typed error after its retries), $(b,silent) is small-magnitude corruption that evades \
         every per-op screen: with $(b,--sentinel) each request fails with a typed \
         Integrity_violation, which the supervisor answers by sending it to another shard \
         (DESIGN.md §16)."
  in
  let sentinel_arg =
    Arg.(
      value & flag
      & info [ "sentinel" ]
          ~doc:
            "Verify every answer with sentinel slots before it leaves the shard (DESIGN.md §16), \
             and answer HLTH selftest probes by running a sentinel-only inference.")
  in
  let slow_ms_arg =
    Arg.(
      value & opt float 0.0
      & info [ "slow-ms" ]
          ~doc:
            "Artificially sleep this long inside every attempt — makes this shard a predictable \
             straggler for hedging demos (scripts/hedge_smoke.sh).")
  in
  let run () model target listen shard domains queue_hw max_inflight fault want_sentinel slow_ms
      state_dir seed =
    let addr = parse_addr listen in
    let spec = lookup_model model in
    let circuit = spec.Models.build () in
    let sentinel = if want_sentinel then Some (Integrity.spec_for circuit) else None in
    let store = Option.map (fun d -> fst (open_store_verbose d)) state_dir in
    (* warm restart from the shard's own bundle: a SIGKILLed-and-respawned
       worker restores what its first boot persisted *)
    let restored, compiled =
      boot ~with_keys:false ~target ~want_sentinel ~seed store circuit
    in
    let plan = Compiler.plan compiled in
    let primary_backend ~req_seed ~attempt =
      if slow_ms > 0.0 then Unix.sleepf (slow_ms /. 1000.0);
      arm_fault fault compiled ~req_seed ~attempt (clear_backend compiled)
    in
    let deployment =
      clear_deployment compiled ~plan ?sentinel
        (if fault = `None && slow_ms <= 0.0 then Service.Shared (Compiler.clear_keyset compiled)
         else Service.Per_attempt primary_backend)
    in
    let cfg =
      {
        (Service.default_config ~domains ()) with
        Service.high_water = queue_hw;
        backoff_base_ms = 1.0;
        backoff_cap_ms = 10.0;
      }
    in
    let svc = Service.create cfg ~circuit ~ladder:deployment in
    let srv_cfg =
      {
        (Net_server.default_config ~shard addr) with
        Net_server.srv_max_inflight = max_inflight;
      }
    in
    (* HLTH selftest (DESIGN.md §16): run a sentinel-only probe through the
       same primary backend the suspect answers came from — an armed silent
       fault corrupts the probe too, so the supervisor's confirm step sees
       the same Integrity_violation the client did *)
    let selftest =
      Option.map
        (fun isp () ->
          match
            let margin = ref Float.nan in
            let s =
              Integrity.sentinel ~observe:(fun t -> margin := Integrity.margin_bits isp t) isp
            in
            let run =
              Plan_exec.prepare_runner ~pt_budget:0 (primary_backend ~req_seed:seed ~attempt:0)
                compiled.Compiler.opts.Compiler.scales plan
            in
            ignore (run ~sentinel:s (Models.input_for spec ~seed));
            !margin
          with
          | m -> Ok m
          | exception Herr.Fhe_error (e, _) -> Error (Herr.error_name e)
          | exception e -> Error (Printexc.to_string e))
        sentinel
    in
    let server = Net_server.start ?selftest srv_cfg svc in
    let stopping = stop_on_signals () in
    Printf.printf "shard %d: pid %d serving %s on %s%s\n%!" shard (Unix.getpid ()) model listen
      (match restored with Some l -> Printf.sprintf " (warm, gen %d)" l.Bundle.l_generation | None -> " (cold)");
    while not (Atomic.get stopping) do
      Thread.delay 0.05
    done;
    (* graceful drain (DESIGN.md §12): finish what was admitted, answer
       everything new with typed Overloaded, exit 0 *)
    Service.begin_drain svc;
    let drained = Service.drain svc ~timeout_ms:10_000.0 in
    Net_server.stop server;
    Service.shutdown svc;
    let st = Net_server.stats server in
    Printf.printf
      "shard %d: graceful shutdown: drained=%b served=%d rejected=%d (corrupt=%d) dedup=%d \
       cancelled=%d\n\
       %!"
      shard drained st.Net_server.srv_served st.Net_server.srv_rejected st.Net_server.srv_corrupt
      st.Net_server.srv_dedup_hits st.Net_server.srv_cancelled;
    exit 0
  in
  Cmd.v
    (Cmd.info "shard-worker"
       ~doc:
         "Serve one model shard over a socket: REQ1 inference frames in, RSP1 answers (or typed \
          errors) out, HLTH pings for the supervisor. SIGTERM drains gracefully; meant to be \
          forked by `chet supervise' but runnable by hand")
    Term.(
      const run $ kernel_term_serve $ model_arg $ target_arg $ listen_arg $ shard_arg
      $ domains_arg $ queue_arg
      $ inflight_arg $ fault_arg $ sentinel_arg $ slow_ms_arg $ state_dir_arg $ net_seed_arg)

let supervise_cmd =
  let front_arg = addr_arg "front" ~doc:"Front-door address (REQ1 proxy + HLTH control)" in
  let shards_arg = Arg.(value & opt int 2 & info [ "shards" ] ~doc:"Worker processes to fork.") in
  let sock_dir_arg =
    Arg.(
      value & opt string "/tmp/chet-shards"
      & info [ "sock-dir" ] ~doc:"Directory for the per-shard unix sockets (created if absent).")
  in
  let domains_arg = Arg.(value & opt int 2 & info [ "domains" ] ~doc:"Pool width per shard.") in
  let queue_arg = Arg.(value & opt int 8 & info [ "queue" ] ~doc:"Queue high-water per shard.") in
  let duration_arg =
    Arg.(
      value & opt float 0.0
      & info [ "duration-s" ] ~doc:"Exit cleanly after this many seconds (0 = until SIGTERM).")
  in
  let fault_arg =
    fault_arg
      ~doc:
        "Fault mode passed through to the shard workers: $(b,persistent) ends each request in a \
         typed error after its retries; $(b,silent) with $(b,--sentinel) fails each answer with \
         a typed Integrity_violation, and the request goes to another shard (see `chet \
         shard-worker --help')."
  in
  let fault_shard_arg =
    Arg.(
      value & opt int (-1)
      & info [ "fault-shard" ]
          ~doc:
            "Pass $(b,--fault) to this one shard only — the deliberate corrupter of the \
             integrity chaos drill (-1 = every shard).")
  in
  let sentinel_arg =
    Arg.(
      value & flag
      & info [ "sentinel" ]
          ~doc:"Pass $(b,--sentinel) to every shard worker (DESIGN.md §16 verified serving).")
  in
  let hedge_ms_arg =
    Arg.(
      value & opt float 0.0
      & info [ "hedge-ms" ]
          ~doc:
            "Duplicate a request to a second healthy shard if the first has not answered within \
             this many milliseconds; the loser is cancelled with a CNCL frame (0 = off).")
  in
  let slow_shard_arg =
    Arg.(
      value & opt int (-1)
      & info [ "slow-shard" ]
          ~doc:"Pass --slow-ms to this one shard only (a deliberate straggler for hedging demos).")
  in
  let slow_ms_arg =
    Arg.(
      value & opt float 0.0
      & info [ "slow-ms" ] ~doc:"Per-attempt delay injected into the $(b,--slow-shard) worker.")
  in
  let run model target front shards sock_dir domains queue_hw duration_s fault fault_shard
      want_sentinel hedge_ms slow_shard slow_ms state_dir seed =
    let front_addr = parse_addr front in
    (try Unix.mkdir sock_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let shard_addr i = Wire.Unix_sock (Filename.concat sock_dir (Printf.sprintf "shard-%d.sock" i)) in
    let argv_for ~shard ~addr =
      let base =
        [
          "chet"; "shard-worker"; model;
          "--listen"; Wire.addr_to_string addr;
          "--shard"; string_of_int shard;
          "--target"; target_name target;
          "--domains"; string_of_int domains;
          "--queue"; string_of_int queue_hw;
          "--seed"; string_of_int seed;
        ]
      in
      let with_fault =
        if fault <> `None && (fault_shard < 0 || shard = fault_shard) then
          base @ [ "--fault"; fst (List.find (fun (_, f) -> f = fault) fault_modes) ]
        else base
      in
      let with_sentinel = if want_sentinel then with_fault @ [ "--sentinel" ] else with_fault in
      let with_slow =
        if shard = slow_shard && slow_ms > 0.0 then
          with_sentinel @ [ "--slow-ms"; string_of_float slow_ms ]
        else with_sentinel
      in
      let with_store =
        match state_dir with
        | None -> with_slow
        | Some d ->
            with_slow @ [ "--state-dir"; Filename.concat d (Printf.sprintf "shard-%d" shard) ]
      in
      Array.of_list with_store
    in
    let cfg =
      {
        (Supervisor.default_config ~shards ~shard_addr ~front_addr) with
        Supervisor.sup_hedge_delay_s = hedge_ms /. 1000.0;
      }
    in
    let sup = Supervisor.start ~spawn:(Supervisor.exec_spawn ~argv_for) cfg in
    if not (Supervisor.await_ready sup ~timeout_s:60.0 ()) then
      Printf.eprintf "chet: supervisor: not all shards became ready within 60s; serving anyway\n";
    Printf.printf "supervisor: pid %d, %d shard(s), front %s, sockets in %s\n%!" (Unix.getpid ())
      shards front sock_dir;
    let stopping = stop_on_signals () in
    let started = Unix.gettimeofday () in
    while
      (not (Atomic.get stopping))
      && (duration_s <= 0.0 || Unix.gettimeofday () -. started < duration_s)
    do
      Thread.delay 0.1
    done;
    Supervisor.stop sup;
    print_string (Supervisor.metrics_snapshot sup);
    Printf.printf "supervisor: clean shutdown\n%!";
    exit 0
  in
  Cmd.v
    (Cmd.info "supervise"
       ~doc:
         "Fork N `shard-worker' processes (each warm-restarting from its own store bundle), \
          health-check them, restart crashes with capped backoff, and proxy REQ1 traffic around \
          down shards. The front door also answers HLTH control frames (ping / report / kill N)")
    Term.(
      const run $ model_arg $ target_arg $ front_arg $ shards_arg $ sock_dir_arg $ domains_arg
      $ queue_arg $ duration_arg $ fault_arg $ fault_shard_arg $ sentinel_arg $ hedge_ms_arg
      $ slow_shard_arg $ slow_ms_arg $ state_dir_arg $ net_seed_arg)

let loadgen_cmd =
  let addr_arg = addr_arg "addr" ~doc:"Target address (a shard, or the supervisor front door)" in
  let requests_arg = Arg.(value & opt int 50 & info [ "requests" ] ~doc:"Total requests.") in
  let concurrency_arg =
    Arg.(value & opt int 4 & info [ "concurrency" ] ~doc:"Concurrent client threads.")
  in
  let fault_every_arg =
    Arg.(
      value & opt int 0
      & info [ "fault-every" ]
          ~doc:
            "Mangle every k-th request on the wire, rotating truncated frame / bit flip / \
             stalled send (0 = off). Mangled attempts must come back as typed errors and \
             succeed on retry.")
  in
  let deadline_arg =
    Arg.(value & opt float 30000.0 & info [ "deadline-ms" ] ~doc:"Per-request deadline budget.")
  in
  let retries_arg =
    Arg.(value & opt int 5 & info [ "retries" ] ~doc:"Client retry budget per request.")
  in
  let kill_after_arg =
    Arg.(
      value & opt (some int) None
      & info [ "kill-after" ]
          ~doc:"After this many completions, SIGKILL --kill-shard via --control (chaos drill).")
  in
  let kill_shard_arg =
    Arg.(value & opt int 0 & info [ "kill-shard" ] ~doc:"Shard id for --kill-after.")
  in
  let control_arg =
    Arg.(
      value & opt (some string) None
      & info [ "control" ] ~docv:"ADDR" ~doc:"Supervisor control address for --kill-after.")
  in
  let bench_arg =
    Arg.(
      value & opt (some string) None
      & info [ "bench-out" ] ~docv:"FILE"
          ~doc:"Merge throughput and p50/p95/p99 latency under the `loadgen' key of this BENCH.json.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Re-verify every answer's sentinel lane client-side against the clear reference \
             (DESIGN.md §16) — independent of the shard's own check. Requires the target to \
             serve with $(b,--sentinel); exits 5 if any answer fails the re-check.")
  in
  let run model addr requests concurrency fault_every deadline_ms retries kill_after kill_shard
      control bench_out verify seed =
    let spec = lookup_model model in
    let shape = (Models.input_for spec ~seed:0).T.shape in
    (* client-side sentinel re-verification: the loadgen never trusts the
       shard's margin claim — it recomputes the deviation from the clear
       probe reference on the returned lane *)
    let lg_verify =
      if not verify then None
      else begin
        let circuit = spec.Models.build () in
        let isp = Integrity.spec_for circuit in
        let ref_shape = isp.Integrity.it_expected.T.shape in
        let numel = Array.fold_left ( * ) 1 ref_shape in
        Some
          (fun lane ->
            Array.length lane = numel
            && Integrity.margin_bits isp (T.of_array ref_shape lane) > 0.0)
      end
    in
    let kill_at =
      match (kill_after, control) with
      | Some after, Some c -> Some (parse_addr c, after, kill_shard)
      | Some _, None ->
          Printf.eprintf "chet: loadgen: --kill-after needs --control\n";
          exit 2
      | None, _ -> None
    in
    let cfg =
      {
        (Loadgen.default_config ~addr:(parse_addr addr) ~shape) with
        Loadgen.lg_total = requests;
        lg_concurrency = concurrency;
        lg_deadline_ms = deadline_ms;
        lg_seed = seed;
        lg_retries = retries;
        lg_fault_every = fault_every;
        lg_kill_at = kill_at;
        lg_verify;
      }
    in
    let r = Loadgen.run cfg in
    Format.printf "%a" Loadgen.pp r;
    Option.iter
      (fun path ->
        Loadgen.write_bench ~path r;
        Printf.printf "wrote %s\n" path)
      bench_out;
    (* --verify: an answer that fails the independent client-side re-check
       is a corruption that escaped the whole guard stack — never tolerable *)
    if r.Loadgen.r_client_rejected > 0 then exit 5;
    (* every request gets *an* answer by construction; the drill passes
       only when every answer is a result *)
    if r.Loadgen.r_ok < r.Loadgen.r_total then exit 4
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive concurrent REQ1 traffic at a shard or supervisor, optionally mangling frames on \
          the wire and SIGKILLing a shard mid-run, and report typed-error counts, throughput and \
          latency percentiles. Exits 4 unless every request ended ok (after its retries), and 5 \
          if $(b,--verify) rejected any answer")
    Term.(
      const run $ model_arg $ addr_arg $ requests_arg $ concurrency_arg $ fault_every_arg
      $ deadline_arg $ retries_arg $ kill_after_arg $ kill_shard_arg $ control_arg $ bench_arg
      $ verify_arg $ net_seed_arg)

let () =
  let info = Cmd.info "chet" ~doc:"CHET: an optimizing compiler for FHE neural-network inference" in
  let code =
    (* top-level handler: every typed failure mode renders its full context
       as a structured one-liner (never a raw backtrace) and maps to a
       distinct exit code — 2 usage, 3 compile, 4 runtime *)
    try
      match
        Cmd.eval ~catch:false
          (Cmd.group info
             [
               models_cmd; compile_cmd; run_cmd; scales_cmd; serve_cmd; profile_cmd; trace_cmd;
               store_cmd; shard_worker_cmd; supervise_cmd; loadgen_cmd;
             ])
      with
      | c when c = Cmd.Exit.cli_error -> 2 (* cmdliner usage error *)
      | c -> c
    with
    | Herr.Fhe_error (e, c) ->
        Printf.eprintf "chet: %s\n" (Herr.to_string (e, c));
        4
    | Compiler.Compilation_failure msg ->
        Printf.eprintf "chet: compilation failed: %s\n" msg;
        3
    | Chet_crypto.Serial.Corrupt msg ->
        Printf.eprintf "chet: corrupt payload: %s\n" msg;
        4
    | Unix.Unix_error (e, fn, arg) ->
        (* e.g. --state-dir pointing at a regular file, or no permission *)
        Printf.eprintf "chet: %s: %s (%s)\n" arg (Unix.error_message e) fn;
        4
    | Sys_error msg ->
        Printf.eprintf "chet: %s\n" msg;
        4
  in
  exit code

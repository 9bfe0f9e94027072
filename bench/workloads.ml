(* Workload plumbing shared by the table/figure reproductions: compilation
   and simulation-run caching, and latency under either rotation-key
   configuration (computed from one cached run). *)

module Compiler = Chet.Compiler
module Cost_model = Chet.Cost_model
module Executor = Chet_runtime.Executor
module Models = Chet_nn.Models
module Sim = Chet_hisa.Sim_backend
module Instrument = Chet_hisa.Instrument
module Hisa = Chet_hisa.Hisa

let opts_for target = Compiler.default_options ~target ()

let compile_cache : (string * Compiler.target, Compiler.compiled) Hashtbl.t = Hashtbl.create 16

let compiled_for target (spec : Models.spec) =
  match Hashtbl.find_opt compile_cache (spec.Models.model_name, target) with
  | Some c -> c
  | None ->
      let c = Compiler.compile (opts_for target) (spec.Models.build ()) in
      Hashtbl.add compile_cache (spec.Models.model_name, target) c;
      c

type key_config = Selected | Pow2_only

type cost_kind =
  | Calibrated  (** the shipped measured constants *)
  | Theory  (** raw Table-1 asymptotics, constant 1 per op class *)
  | Loaded  (** constants from a --cost-file calibration (this machine) *)

(* Set once at startup from --cost-file, before any cached run — [Loaded] is
   part of the run-cache key, so a late mutation would poison nothing but
   still be confusing. *)
let loaded_calibration : Cost_model.calibration option ref = ref None

type sim_run = {
  base_latency : float;
  rotate_elapsed : float;
  rotate_count : int;
  slots : int;
  counters : Instrument.counters;
}

let run_cache : (string * Compiler.target * Executor.layout_policy * cost_kind, sim_run) Hashtbl.t =
  Hashtbl.create 64

let costs_for kind target =
  match (kind, target) with
  | Calibrated, Compiler.Seal -> Cost_model.seal ()
  | Calibrated, Compiler.Heaan -> Cost_model.heaan ()
  | Theory, Compiler.Seal -> Hisa.rns_cost_model ()
  | Theory, Compiler.Heaan -> Hisa.ckks_cost_model ()
  | Loaded, t ->
      let cal = Option.value !loaded_calibration ~default:Cost_model.default_calibration in
      Cost_model.model_for (match t with Compiler.Seal -> `Seal | Compiler.Heaan -> `Heaan) cal

(* One simulated inference under [policy] with the given parameters. *)
let sim_run ?(kind = Calibrated) target (spec : Models.spec) ~policy ~params =
  let key = (spec.Models.model_name, target, policy, kind) in
  match Hashtbl.find_opt run_cache key with
  | Some r -> r
  | None ->
      let opts = opts_for target in
      let circuit = spec.Models.build () in
      let sim, clock =
        Sim.make
          {
            Sim.n = Compiler.params_n params;
            scheme = Compiler.scheme_of_params opts params;
            costs = costs_for kind target;
          }
      in
      let backend, counters = Instrument.wrap sim in
      let module H = (val backend : Hisa.S) in
      let module E = Chet_plan.Plan_exec.Make (H) in
      let image = Models.input_for spec ~seed:1 in
      ignore (E.eval opts.Compiler.scales circuit ~policy image);
      let r =
        {
          base_latency = clock.Sim.elapsed;
          rotate_elapsed = clock.Sim.rotate_elapsed;
          rotate_count = clock.Sim.rotate_count;
          slots = Compiler.params_n params / 2;
          counters;
        }
      in
      Hashtbl.add run_cache key r;
      r

(* Latency under a rotation-key configuration. Under [Pow2_only] every
   rotation is charged its power-of-two decomposition length (§2.4's default
   behaviour) at this run's average rotation cost. *)
let latency run ~keys =
  match keys with
  | Selected -> run.base_latency
  | Pow2_only ->
      if run.rotate_count = 0 then run.base_latency
      else begin
        let decomposed =
          Hashtbl.fold
            (fun amount uses acc ->
              acc + (uses * Bench_util.pow2_rotation_count ~slots:run.slots amount))
            run.counters.Instrument.rotation_counts 0
        in
        let avg_rot = run.rotate_elapsed /. float_of_int run.rotate_count in
        run.base_latency +. (float_of_int (decomposed - run.rotate_count) *. avg_rot)
      end

let sim_latency ?(keys = Selected) ?kind target spec ~policy ~params =
  latency (sim_run ?kind target spec ~policy ~params) ~keys

let best_policy_run ?kind target spec =
  let compiled = compiled_for target spec in
  sim_run ?kind target spec ~policy:compiled.Compiler.policy ~params:compiled.Compiler.params

let best_policy_latency ?(keys = Selected) target spec = latency (best_policy_run target spec) ~keys

(* The "Manual-HEAAN" baseline of Figure 5: an expert's typical hand-written
   starting point — HW layout everywhere (as in the paper's hand-written
   LeNet baselines), scheme-default power-of-two rotation keys, and HEAAN
   parameters selected for that layout. *)
let manual_heaan_latency spec =
  let opts = opts_for Compiler.Heaan in
  let params = Compiler.select_params opts (spec.Models.build ()) ~policy:Executor.All_hw in
  latency (sim_run Compiler.Heaan spec ~policy:Executor.All_hw ~params) ~keys:Pow2_only

(* ------------------------------------------------------------------ *)
(* Serving-layer sweep: queue depth vs tail latency and shed rate      *)
(* ------------------------------------------------------------------ *)

module Service = Chet_serve.Service

type serve_point = {
  sv_high_water : int;
  sv_submitted : int;
  sv_shed : int;
  sv_succeeded : int;
  sv_p50_ms : float;
  sv_p95_ms : float;
  sv_p99_ms : float;
}

(* One burst of [burst] requests submitted back-to-back against a pool of
   [domains] workers serving the micro network on the cleartext backend at
   the compiled parameters — the serving layer's control-plane costs
   (queueing, shedding, retry/breaker bookkeeping) measured without the
   multi-second FHE data plane drowning them out. Every request that is
   admitted must finish [Ok]; the sweep varies only the queue's high-water
   mark, so the shed-rate column is the direct picture of admission control
   under a fixed burst. *)
let serve_sweep ?(domains = 2) ?(burst = 48) ~high_waters () =
  let spec = Models.micro in
  let circuit = spec.Models.build () in
  let opts = opts_for Compiler.Seal in
  let compiled = compiled_for Compiler.Seal spec in
  let dep =
    {
      Service.dep_label = "clear";
      dep_degraded = false;
      dep_scales = opts.Compiler.scales;
      dep_plan = Compiler.plan compiled;
      dep_cost_ms = None;
      dep_backend = Service.Shared (Compiler.clear_keyset compiled);
      dep_sentinel = None;
    }
  in
  let images = Array.init burst (fun i -> Models.input_for spec ~seed:(9000 + i)) in
  List.map
    (fun high_water ->
      let cfg = { (Service.default_config ~domains ()) with Service.high_water } in
      let svc = Service.create cfg ~circuit ~ladder:[ dep ] in
      let outcomes =
        Fun.protect
          ~finally:(fun () -> Service.shutdown svc)
          (fun () ->
            let tickets =
              Array.to_list (Array.mapi (fun i img -> Service.submit svc ~seed:i img) images)
            in
            List.map (Service.await svc) tickets)
      in
      List.iter
        (fun (o : Service.outcome) ->
          match o.Service.out_result with
          | Ok _ | Error (Chet_hisa.Herr.Overloaded _, _) -> ()
          | Error (e, c) ->
              failwith
                (Printf.sprintf "serve sweep: unexpected failure: %s"
                   (Chet_hisa.Herr.to_string (e, c))))
        outcomes;
      let s = Service.stats svc in
      (* tail latency over the *served* requests; shed rejections return in
         microseconds and would only flatter the percentiles *)
      let lat =
        Array.of_list
          (List.filter_map
             (fun (o : Service.outcome) ->
               match o.Service.out_result with
               | Ok _ -> Some o.Service.out_total_ms
               | Error _ -> None)
             outcomes)
      in
      {
        sv_high_water = high_water;
        sv_submitted = s.Service.s_submitted;
        sv_shed = s.Service.s_shed;
        sv_succeeded = s.Service.s_succeeded;
        sv_p50_ms = Service.percentile lat 50.0;
        sv_p95_ms = Service.percentile lat 95.0;
        sv_p99_ms = Service.percentile lat 99.0;
      })
    high_waters

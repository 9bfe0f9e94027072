(* Workload plumbing shared by the table/figure reproductions: compilation
   and simulation-run caching, and latency under either rotation-key
   configuration (computed from one cached run). *)

module Compiler = Chet.Compiler
module Cost_model = Chet.Cost_model
module Layout = Chet_runtime.Layout
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
  | Theory  (** raw Table-1 asymptotics, one constant (1e-9) for every op class *)
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

let run_cache : (string * Compiler.target * Layout.layout_policy * cost_kind, sim_run) Hashtbl.t =
  Hashtbl.create 64

(* the Table-1 terms with the same constant for every op class *)
let theory =
  let k = 1e-9 in
  {
    Cost_model.k_add = k;
    k_scalar_mul = k;
    k_plain_mul = k;
    k_cipher_mul = k;
    k_rotate = k;
    k_rot_hoisted = k;
    k_rescale = k;
  }

let costs_for kind target =
  let cal =
    match kind with
    | Calibrated -> Cost_model.default_calibration
    | Theory -> { Cost_model.seal_c = theory; heaan_c = theory }
    | Loaded -> Option.value !loaded_calibration ~default:Cost_model.default_calibration
  in
  Cost_model.model_for (match target with Compiler.Seal -> `Seal | Compiler.Heaan -> `Heaan) cal

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
  let params = Compiler.select_params opts (spec.Models.build ()) ~policy:Layout.All_hw in
  latency (sim_run Compiler.Heaan spec ~policy:Layout.All_hw ~params) ~keys:Pow2_only


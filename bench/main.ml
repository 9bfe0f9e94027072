(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6). See EXPERIMENTS.md for paper-vs-measured records.

     dune exec bench/main.exe                 all tables and figures
     dune exec bench/main.exe -- --table 5    one table
     dune exec bench/main.exe -- --fast       small-network subset

   Everything goes to stdout; no file is written. Cost-model constants are
   refitted by `chet profile`. *)

module Compiler = Chet.Compiler
module Cost_model = Chet.Cost_model
module Layout = Chet_runtime.Layout
module Kernels = Chet_runtime.Kernels
module Models = Chet_nn.Models
module Circuit = Chet_nn.Circuit
module Opcount = Chet_nn.Opcount
module Reference = Chet_nn.Reference
module Hisa = Chet_hisa.Hisa
module Clear = Chet_hisa.Clear_backend
module Rns = Chet_crypto.Rns_ckks
module Big = Chet_crypto.Big_ckks
module Sampling = Chet_crypto.Sampling
module T = Chet_tensor.Tensor
open Bench_util

let fast = ref false
let networks () = if !fast then [ Models.lenet5_small; Models.lenet5_medium ] else Models.all

(* ------------------------------------------------------------------ *)
(* Table 1: asymptotic costs of HISA ops, microbenchmarked              *)
(* ------------------------------------------------------------------ *)

let rns_ops ~n ~primes =
  let params = Rns.default_params ~n ~bits:30 ~num_coeff_primes:primes () in
  let ctx = Rns.make_context params in
  let rng = Sampling.create ~seed:1 in
  let sk, keys = Rns.keygen ctx rng in
  Rns.add_rotation_key ctx rng sk keys 1;
  let scale = 1073741824.0 in
  let v = Array.init (Rns.slot_count ctx) (fun i -> 0.001 *. float_of_int (i mod 100)) in
  let pt = Rns.encode_real ctx ~level:(Rns.max_level ctx) ~scale v in
  let a = Rns.encrypt ctx rng keys.Rns.public pt in
  let b = Rns.encrypt ctx rng keys.Rns.public pt in
  [
    ("add", fun () -> ignore (Rns.add ctx a b));
    ("mulScalar", fun () -> ignore (Rns.mul_scalar ctx a 1.5 ~scale));
    ("mulPlain", fun () -> ignore (Rns.mul_plain ctx a pt));
    ("mul", fun () -> ignore (Rns.mul ctx keys a b));
    ("rotate", fun () -> ignore (Rns.rotate ctx keys a 1));
  ]

let heaan_ops ~n ~log_fresh =
  let params = Big.default_params ~n ~log_fresh () in
  let ctx = Big.make_context params in
  let rng = Sampling.create ~seed:2 in
  let sk, keys = Big.keygen ctx rng in
  Big.add_rotation_key ctx rng sk keys 1;
  ignore sk;
  let scale = 1073741824.0 in
  let v = Array.init (Big.slot_count ctx) (fun i -> 0.001 *. float_of_int (i mod 100)) in
  let pt = Big.encode_real ctx ~logq:log_fresh ~scale v in
  let a = Big.encrypt ctx rng keys.Big.public pt in
  let b = Big.encrypt ctx rng keys.Big.public pt in
  [
    ("add", fun () -> ignore (Big.add ctx a b));
    ("mulScalar", fun () -> ignore (Big.mul_scalar ctx a 1.5 ~scale));
    ("mulPlain", fun () -> ignore (Big.mul_plain ctx a pt));
    ("mul", fun () -> ignore (Big.mul ctx keys a b));
    ("rotate", fun () -> ignore (Big.rotate ctx keys a 1));
  ]

let rns_sizes () = if !fast then [ (2048, 4) ] else [ (2048, 4); (4096, 4); (4096, 8); (8192, 8) ]
let heaan_sizes () = if !fast then [ (1024, 120) ] else [ (1024, 120); (2048, 120); (2048, 240) ]

let measure_rns () =
  List.concat_map
    (fun (n, r) ->
      let tests = rns_ops ~n ~primes:r in
      List.map (fun (op, ns) -> ((n, r), op, ns)) (bechamel_ns ~quota:0.25 tests))
    (rns_sizes ())

let measure_heaan () =
  List.concat_map
    (fun (n, lq) ->
      let tests = heaan_ops ~n ~log_fresh:lq in
      List.map (fun (op, ns) -> ((n, lq), op, ns)) (bechamel_ns ~quota:0.25 tests))
    (heaan_sizes ())

let table1 () =
  print_endline "\n===== Table 1: HISA operation costs (measured, real backends) =====";
  let rows measured fmt_size =
    List.map (fun (size, op, ns) -> [ fmt_size size; op; Printf.sprintf "%.1f us" (ns /. 1e3) ]) measured
  in
  let rns = measure_rns () in
  print_table ~title:"RNS-CKKS (our SEAL-v3.1 stand-in)"
    ~headers:[ "(N, r)"; "op"; "time" ]
    (rows rns (fun (n, r) -> Printf.sprintf "(%d, %d)" n r));
  let heaan = measure_heaan () in
  print_table ~title:"CKKS (our HEAAN-v1.0 stand-in)"
    ~headers:[ "(N, logQ)"; "op"; "time" ]
    (rows heaan (fun (n, lq) -> Printf.sprintf "(%d, %d)" n lq));
  (* scaling sanity: ciphertext mul should grow superlinearly in r; add
     roughly linearly — the shape Table 1 predicts *)
  let find sz op l = List.find_opt (fun (s, o, _) -> s = sz && o = op) l in
  (match (find (4096, 4) "mul" rns, find (4096, 8) "mul" rns, find (4096, 4) "add" rns, find (4096, 8) "add" rns) with
  | Some (_, _, m4), Some (_, _, m8), Some (_, _, a4), Some (_, _, a8) ->
      Printf.printf "\nscaling r=4 -> r=8 at N=4096: mul x%.1f (model: x4 from r^2), add x%.1f (model: x2 from r)\n"
        (m8 /. m4) (a8 /. a4)
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* Table 3: networks                                                    *)
(* ------------------------------------------------------------------ *)

let fidelity spec =
  (* encrypted-vs-cleartext max abs output error under the compiled SEAL
     configuration (replaces the accuracy column — DESIGN.md §2) *)
  let compiled = Workloads.compiled_for Compiler.Seal spec in
  let opts = Workloads.opts_for Compiler.Seal in
  let n = Compiler.params_n compiled.Compiler.params in
  let backend =
    Clear.make
      {
        Clear.slots = n / 2;
        scheme = Compiler.scheme_of_params opts compiled.Compiler.params;
        strict_modulus = false;
        encode_noise = true;
      }
  in
  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let circuit = spec.Models.build () in
  let image = Models.input_for spec ~seed:7 in
  let got = E.eval opts.Compiler.scales circuit ~policy:compiled.Compiler.policy image in
  T.max_abs_diff (T.flatten (Reference.eval circuit image)) (T.flatten got)

let table3 () =
  print_endline "\n===== Table 3: networks =====";
  let rows =
    List.map
      (fun spec ->
        let circuit = spec.Models.build () in
        let conv, fc, act = Circuit.layer_counts circuit in
        [
          spec.Models.model_name;
          string_of_int conv;
          string_of_int fc;
          string_of_int act;
          string_of_int (Opcount.count circuit).Opcount.total;
          Printf.sprintf "%.4f" (fidelity spec);
        ])
      (networks ())
  in
  print_table ~title:"networks (fidelity = max |enc - clear| output error, replaces accuracy)"
    ~headers:[ "Network"; "Conv"; "FC"; "Act"; "# FP ops"; "fidelity" ]
    rows

(* ------------------------------------------------------------------ *)
(* Table 4: parameters selected by CHET-HEAAN                           *)
(* ------------------------------------------------------------------ *)

let table4 () =
  print_endline "\n===== Table 4: encryption parameters selected by CHET-HEAAN =====";
  let s = Kernels.default_scales in
  let log2i v = int_of_float (Float.round (log (float_of_int v) /. log 2.0)) in
  let rows =
    List.map
      (fun spec ->
        let compiled = Workloads.compiled_for Compiler.Heaan spec in
        match compiled.Compiler.params with
        | Compiler.Pow2_params { n; log_fresh; _ } ->
            [
              spec.Models.model_name;
              string_of_int n;
              string_of_int log_fresh;
              Printf.sprintf "%d %d %d %d" (log2i s.Kernels.pc) (log2i s.Kernels.pw)
                (log2i s.Kernels.pu) (log2i s.Kernels.pm);
            ]
        | Compiler.Rns_params _ -> assert false)
      (networks ())
  in
  print_table ~title:"(legacy-HEAAN security model, as in the paper's baselines)"
    ~headers:[ "Network"; "N"; "log Q"; "log(Pc Pw Pu Pm)" ]
    rows;
  (* companion: CHET-SEAL parameters at standard 128-bit security, analysed
     both with the executable backend's 30-bit primes and with the paper's
     SEAL-style 60-bit candidate list (DESIGN.md §2) *)
  let seal_rows =
    List.map
      (fun spec ->
        let circuit = spec.Models.build () in
        let with_bits prime_bits =
          (* the fixed-point scales must sit near the prime size (§5.5):
             with 60-bit primes a rescale only fires once two layers of
             scale have accumulated, so the working profile differs *)
          let scales =
            if prime_bits > 31 then
              { Kernels.pc = 1 lsl 30; pw = 1 lsl 24; pu = 1 lsl 24; pm = 1 lsl 6 }
            else Kernels.default_scales
          in
          let opts = { (Workloads.opts_for Compiler.Seal) with Compiler.prime_bits; scales } in
          let compiled_policy = (Workloads.compiled_for Compiler.Seal spec).Compiler.policy in
          try
            let p = Compiler.select_params opts circuit ~policy:compiled_policy in
            (string_of_int (Compiler.params_n p), string_of_int (Compiler.params_log_q p))
          with Compiler.Compilation_failure _ ->
            (* scale runaway between rescale opportunities: the interplay the
               paper's §5.5 profile-guided search exists to fix *)
            ("n/a", "n/a")
        in
        let n30, q30 = with_bits 30 and n60, q60 = with_bits 60 in
        [ spec.Models.model_name; n30; q30; n60; q60 ])
      (networks ())
  in
  print_table ~title:"companion: CHET-SEAL, standard 128-bit security"
    ~headers:[ "Network"; "N (30-bit primes)"; "logQ"; "N (60-bit primes)"; "logQ" ]
    seal_rows

(* ------------------------------------------------------------------ *)
(* Tables 5 & 6: latency per data layout                                *)
(* ------------------------------------------------------------------ *)

let layout_table target title =
  let rows =
    List.map
      (fun spec ->
        let compiled = Workloads.compiled_for target spec in
        let cells =
          List.map
            (fun report ->
              let l =
                Workloads.sim_latency target spec ~policy:report.Compiler.pr_policy
                  ~params:report.Compiler.pr_params
              in
              let mark = if report.Compiler.pr_policy = compiled.Compiler.policy then "*" else "" in
              fmt_seconds l ^ mark)
            compiled.Compiler.reports
        in
        spec.Models.model_name :: cells)
      (networks ())
  in
  print_table ~title ~headers:[ "Network"; "HW"; "CHW"; "HW-conv CHW-rest"; "CHW-fc HW-before" ] rows

let table5 () =
  print_endline "\n===== Table 5: simulated latency (s) per layout, CHET-SEAL =====";
  layout_table Compiler.Seal "(* marks the layout the compiler selected)"

let table6 () =
  print_endline "\n===== Table 6: simulated latency (s) per layout, CHET-HEAAN =====";
  layout_table Compiler.Heaan "(* marks the layout the compiler selected)"

(* ------------------------------------------------------------------ *)
(* Figure 5: CHET-SEAL vs CHET-HEAAN vs Manual-HEAAN                    *)
(* ------------------------------------------------------------------ *)

let figure5 () =
  print_endline "\n===== Figure 5: average inference latency (s) =====";
  let rows =
    List.map
      (fun spec ->
        let seal = Workloads.best_policy_latency Compiler.Seal spec in
        let heaan = Workloads.best_policy_latency Compiler.Heaan spec in
        let manual = Workloads.manual_heaan_latency spec in
        [
          spec.Models.model_name;
          fmt_seconds seal;
          fmt_seconds heaan;
          fmt_seconds manual;
          Printf.sprintf "%.1fx" (manual /. heaan);
        ])
      (networks ())
  in
  print_table ~title:"simulated latencies (calibrated clock)"
    ~headers:[ "Network"; "CHET-SEAL"; "CHET-HEAAN"; "Manual-HEAAN"; "manual/CHET" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 6: estimated cost vs observed latency                         *)
(* ------------------------------------------------------------------ *)

let figure6 () =
  print_endline "\n===== Figure 6: estimated cost vs observed latency =====";
  (* estimated: the compiler's *uncalibrated* asymptotic model (§5.3);
     observed: the calibrated simulation clock. These use different constants
     per op class, so agreement is informative. With --cost-file, every
     point is additionally estimated under the machine's profiled constants
     — a useful calibration correlates at least as well as the frozen
     asymptotic baseline. *)
  let with_cal = !Workloads.loaded_calibration <> None in
  let points = ref [] in
  List.iter
    (fun target ->
      List.iter
        (fun spec ->
          let compiled = Workloads.compiled_for target spec in
          List.iter
            (fun report ->
              let lat kind =
                Workloads.sim_latency ~kind target spec ~policy:report.Compiler.pr_policy
                  ~params:report.Compiler.pr_params
              in
              let estimated = lat Workloads.Theory in
              let est_cal = if with_cal then Some (lat Workloads.Loaded) else None in
              let observed = lat Workloads.Calibrated in
              points := (spec.Models.model_name, target, estimated, est_cal, observed) :: !points)
            compiled.Compiler.reports)
        (networks ()))
    [ Compiler.Seal; Compiler.Heaan ];
  let pts = List.rev !points in
  let rows =
    List.map
      (fun (name, target, est, est_cal, obs) ->
        [
          name;
          (match target with Compiler.Seal -> "SEAL" | Compiler.Heaan -> "HEAAN");
          Printf.sprintf "%.3g" est;
          (match est_cal with Some e -> fmt_seconds e | None -> "-");
          fmt_seconds obs;
        ])
      pts
  in
  print_table ~title:"per (network, scheme, layout) point"
    ~headers:[ "Network"; "scheme"; "estimated cost"; "est. calibrated (s)"; "observed (s)" ]
    rows;
  let arr f = Array.of_list (List.map f pts) in
  let obs = arr (fun (_, _, _, _, o) -> log o) in
  let est = arr (fun (_, _, e, _, _) -> log e) in
  let r_theory = pearson est obs and rho_theory = spearman est obs in
  Printf.printf "\nlog-log Pearson r = %.3f, Spearman rho = %.3f over %d points\n" r_theory
    rho_theory (Array.length est);
  if with_cal then begin
    let est_c = arr (fun (_, _, _, ec, _) -> log (Option.get ec)) in
    Printf.printf
      "calibrated estimates: Pearson r = %.3f, Spearman rho = %.3f (baseline r = %.3f)\n"
      (pearson est_c obs) (spearman est_c obs) r_theory
  end

(* ------------------------------------------------------------------ *)
(* Figure 7: rotation-keys selection speedup                            *)
(* ------------------------------------------------------------------ *)

let figure7 () =
  print_endline "\n===== Figure 7: speedup of selected rotation keys over power-of-two keys =====";
  let speedups = ref [] in
  let rows =
    List.concat_map
      (fun target ->
        List.map
          (fun spec ->
            let sel = Workloads.best_policy_latency ~keys:Workloads.Selected target spec in
            let pow2 = Workloads.best_policy_latency ~keys:Workloads.Pow2_only target spec in
            let speedup = pow2 /. sel in
            speedups := speedup :: !speedups;
            [
              spec.Models.model_name;
              (match target with Compiler.Seal -> "CHET-SEAL" | Compiler.Heaan -> "CHET-HEAAN");
              fmt_seconds pow2;
              fmt_seconds sel;
              Printf.sprintf "%.2fx" speedup;
            ])
          (networks ()))
      [ Compiler.Seal; Compiler.Heaan ]
  in
  print_table ~title:"simulated latency with each key configuration"
    ~headers:[ "Network"; "scheme"; "pow2 keys (s)"; "selected keys (s)"; "speedup" ]
    rows;
  let geo =
    exp (List.fold_left (fun acc s -> acc +. log s) 0.0 !speedups /. float_of_int (List.length !speedups))
  in
  Printf.printf "\ngeometric-mean speedup: %.2fx (paper: 1.8x)\n" geo

(* ------------------------------------------------------------------ *)
(* Depth sweep: parameter growth with multiplicative depth              *)
(* ------------------------------------------------------------------ *)

let depth_sweep () =
  print_endline "\n===== Depth sweep: selected parameters vs multiplicative depth =====";
  (* squaring chains of increasing depth on a small image; the selected
     (N, logQ) should grow in the staircase pattern the security table
     imposes — the mechanism behind Table 4's growth with network depth *)
  let chain_circuit depth =
    let b = Circuit.builder () in
    let x = ref (Circuit.input b ~name:"x" [| 1; 8; 8 |]) in
    for _ = 1 to depth do
      x := Circuit.square b !x
    done;
    Circuit.finish b ~name:(Printf.sprintf "chain-%d" depth) ~output:!x
  in
  let rows =
    List.map
      (fun depth ->
        let circuit = chain_circuit depth in
        let seal =
          Compiler.select_params (Workloads.opts_for Compiler.Seal) circuit
            ~policy:Layout.All_hw
        in
        let heaan =
          Compiler.select_params (Workloads.opts_for Compiler.Heaan) circuit
            ~policy:Layout.All_hw
        in
        [
          string_of_int depth;
          string_of_int (Compiler.params_n seal);
          string_of_int (Compiler.params_log_q seal);
          string_of_int (Compiler.params_n heaan);
          string_of_int (Compiler.params_log_q heaan);
        ])
      [ 1; 2; 4; 6; 8; 10; 12 ]
  in
  print_table ~title:"squaring chains (SEAL standard 128-bit; HEAAN legacy security)"
    ~headers:[ "depth"; "SEAL N"; "SEAL logQ"; "HEAAN N"; "HEAAN logQ" ]
    rows

(* ------------------------------------------------------------------ *)
(* CryptoNets comparison (the paper's §6 "Cryptonets" paragraph)        *)
(* ------------------------------------------------------------------ *)

let cryptonets_comparison () =
  print_endline "\n===== CryptoNets comparison =====";
  let spec = Models.cryptonets in
  let compiled = Workloads.compiled_for Compiler.Seal spec in
  let lat = Workloads.best_policy_latency Compiler.Seal spec in
  let small = Workloads.best_policy_latency Compiler.Seal Models.lenet5_small in
  Printf.printf
    "CryptoNets network under CHET-SEAL: %.1f s simulated (params %s; paper: their hand-optimised\n     implementation took 250 s; our LeNet-5-small, a bigger network, takes %.1f s here).\n"
    lat
    (Format.asprintf "%a" Compiler.pp_params compiled.Compiler.params)
    small

(* ------------------------------------------------------------------ *)
(* Ablation: pruned four-policy search vs exhaustive per-node search    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline "\n===== Ablation: pruned layout search (4 policies) vs exhaustive =====";
  (* The paper prunes the exponential per-tensor layout space to four
     policies with domain heuristics (§5.3). Here we enumerate *every*
     per-node HW/CHW assignment on small circuits and check how close the
     pruned search's winner comes to the true optimum (costs compared at the
     pruned winner's encryption parameters). *)
  let module Layout = Chet_runtime.Layout in
  let module Sim = Chet_hisa.Sim_backend in
  let rows =
    List.map
      (fun (spec : Models.spec) ->
        let target = Compiler.Seal in
        let circuit = spec.Models.build () in
        let compiled = Workloads.compiled_for target spec in
        let opts = Workloads.opts_for target in
        let params = compiled.Compiler.params in
        let nodes = Circuit.topo_order circuit in
        let k = List.length nodes in
        let cost_of_assignment kind_of =
          let sim, clock =
            Sim.make
              {
                Sim.n = Compiler.params_n params;
                scheme = Compiler.scheme_of_params opts params;
                costs = Cost_model.seal ();
              }
          in
          let module H = (val sim : Hisa.S) in
          let module PE = Chet_plan.Plan_exec.Make (H) in
          let image = Models.input_for spec ~seed:1 in
          let plan = Chet_plan.Plan.build_assigned ~slots:H.slots ~kind_of circuit in
          ignore (PE.run (PE.prepare ~pt_budget:0 opts.Compiler.scales plan) image);
          clock.Sim.elapsed
        in
        let best_exhaustive = ref infinity in
        let count = 1 lsl k in
        for mask = 0 to count - 1 do
          let kind_of (node : Circuit.node) =
            let idx =
              match List.find_index (fun (n : Circuit.node) -> n.Circuit.id = node.Circuit.id) nodes with
              | Some i -> i
              | None -> 0
            in
            if (mask lsr idx) land 1 = 1 then Layout.CHW else Layout.HW
          in
          let c = cost_of_assignment kind_of in
          if c < !best_exhaustive then best_exhaustive := c
        done;
        let best_pruned =
          List.fold_left
            (fun acc r ->
              Float.min acc
                (Workloads.sim_latency target spec ~policy:r.Compiler.pr_policy ~params))
            infinity compiled.Compiler.reports
        in
        [
          spec.Models.model_name;
          string_of_int count;
          fmt_seconds !best_exhaustive;
          fmt_seconds best_pruned;
          Printf.sprintf "%.1f%%" (100.0 *. (best_pruned -. !best_exhaustive) /. !best_exhaustive);
        ])
      [ Models.micro ]
  in
  print_table
    ~title:"cost of the best assignment found (lower is better)"
    ~headers:[ "Network"; "assignments"; "exhaustive best"; "pruned best"; "gap" ]
    rows

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  (* large transient allocations (32k-slot plaintext vectors) balloon the
     major heap; keep the space overhead tight and compact between sections
     so the whole suite fits in modest memory *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 40 };
  let args = Array.to_list Sys.argv in
  fast := List.mem "--fast" args;
  (* --cost-file: profiled constants from `chet profile`; feeds the Loaded
     cost kind (figure 6's calibrated column) *)
  let rec cost_file = function
    | "--cost-file" :: path :: _ -> Some path
    | _ :: rest -> cost_file rest
    | [] -> None
  in
  (match cost_file args with
  | None -> ()
  | Some path ->
      Workloads.loaded_calibration := Some (Chet.Cost_model.load_calibration path);
      Printf.printf "loaded cost-model calibration from %s\n" path);
  let rec wanted = function
    | "--table" :: n :: rest -> ("t" ^ n) :: wanted rest
    | "--figure" :: n :: rest -> ("f" ^ n) :: wanted rest
    | "--ablation" :: rest -> "abl" :: wanted rest
    | "--sweep" :: rest -> "swp" :: wanted rest
    | "--cryptonets" :: rest -> "cn" :: wanted rest
    | _ :: rest -> wanted rest
    | [] -> []
  in
  let selected = wanted args in
  let all = selected = [] in
  let want k = all || List.mem k selected in
  let t0 = Unix.gettimeofday () in
  if want "t1" then begin table1 (); Gc.compact () end;
  if want "t3" then begin table3 (); Gc.compact () end;
  if want "t4" then begin table4 (); Gc.compact () end;
  if want "t5" then begin table5 (); Gc.compact () end;
  if want "t6" then begin table6 (); Gc.compact () end;
  if want "f5" then begin figure5 (); Gc.compact () end;
  if want "f6" then begin figure6 (); Gc.compact () end;
  if want "f7" then begin figure7 (); Gc.compact () end;
  if want "swp" then begin depth_sweep (); Gc.compact () end;
  if want "cn" then begin cryptonets_comparison (); Gc.compact () end;
  if all || List.mem "abl" selected then ablation ();
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal bench time: %.1f s\n" total

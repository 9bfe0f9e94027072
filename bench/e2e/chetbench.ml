(* chetbench: the repository's end-to-end benchmark (README.md beside this
   file). Three modes:

     chetbench --workload W --seed N [--seconds S] [--trace 0|1] [--out-dir D]
       run one workload in this process; the last stdout line is
       {"correct","attempted","failed","metrics"}
     chetbench --seed N [--seconds S] [--trace 0|1] [--out-dir D]
       run every workload, each in its own subprocess, and print one JSON
       document with the environment header and every workload's result
     chetbench --compare A.json B.json
       compare two files of such documents, one per line *)

module Jsonx = Chet_obs.Jsonx

let usage =
  "usage: chetbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n\
  \       chetbench --compare A.json B.json"

let fail_usage msg =
  prerr_endline ("chetbench: " ^ msg);
  prerr_endline usage;
  exit 2

(* --- environment header ----------------------------------------------- *)

let git_rev () =
  if not (Sys.file_exists ".git") then "none"
  else
    try
      let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
      let rev = try input_line ic with End_of_file -> "unknown" in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> rev | _ -> "unknown"
    with Unix.Unix_error _ -> "unknown"

let env_json ~seed ~seconds ~trace =
  Jsonx.Obj
    [
      ("nproc", Num (float_of_int Work.nproc));
      ("ocaml", Str Sys.ocaml_version);
      ("git_rev", Str (git_rev ()));
      ("seed", Num (float_of_int seed));
      ("seconds", Num seconds);
      ("trace", Bool trace);
      ("ring_n", Num (float_of_int Work.ring_n));
    ]

(* --- one workload ----------------------------------------------------- *)

let end_to_end_values (r : Work.result) ~rss =
  [
    (* the lower quartile: a busy period on the host slows a run's slower
       samples first (README.md, "Why the lower quartile") *)
    ("latency_s_p25", (let q1, _, _ = Stats.quartiles r.Work.latencies in q1));
    ("setup_s", Stats.median r.Work.setups);
    ("precision_bits_p50", Stats.median r.Work.precision);
    ("peak_rss_mb", rss);
  ]

let per_layer_values (r : Work.result) =
  ("oracle.failed_share", Stats.failed_share r.Work.tally) :: r.Work.layer

let metrics_json table values =
  Jsonx.Obj
    (List.map
       (fun (m : Spec.metric) ->
         (* JSON has no NaN or infinity: a metric with no samples reads 0 *)
         let v = Option.value ~default:0.0 (List.assoc_opt m.Spec.name values) in
         let v = if Float.is_finite v then v else 0.0 in
         (m.Spec.name, Jsonx.Obj [ ("value", Num v); ("unit", Str m.Spec.unit_) ]))
       table)

let oracle_json (r : Work.result) =
  let t = r.Work.tally in
  let n x = Jsonx.Num (float_of_int x) in
  Jsonx.Obj
    [
      ("attempted", n t.Stats.attempted);
      ("wrong", n t.Stats.wrong);
      ("errors", n t.Stats.errors);
      ("deadline_misses", n t.Stats.deadline_misses);
      ("shed", n t.Stats.shed);
      ("degraded", n t.Stats.degraded);
      ("class_flips", n r.Work.flips);
      ( "wrong_answers",
        Arr
          (List.map
             (fun (c : Stats.check) ->
               Jsonx.Obj
                 [
                   ("class_expected", n c.Stats.class_expected);
                   ("class_got", n c.Stats.class_got);
                   ("max_err", Num c.Stats.max_err);
                 ])
             r.Work.wrong) );
    ]

let run_one ~workload ~(ctx : Work.ctx) =
  let t0 = Work.now () in
  let r = Work.run ctx workload in
  let rss = Work.peak_rss_mb () in
  let wall = Work.now () -. t0 in
  let t = r.Work.tally in
  let failed = Stats.failed t in
  let detail =
    Jsonx.Obj
      [
        ("workload", Str workload);
        ("env", env_json ~seed:ctx.Work.seed ~seconds:ctx.Work.seconds ~trace:ctx.Work.trace);
        ("kpool_domains", Num (float_of_int r.Work.kpool));
        ("pool_domains", Num (float_of_int r.Work.pool));
        ("wall_s", Num wall);
        ("oracle", oracle_json r);
        ("latency_s", Arr (List.map (fun x -> Jsonx.Num x) r.Work.latencies));
        ("setup_s", Arr (List.map (fun x -> Jsonx.Num x) r.Work.setups));
      ]
  in
  let metrics =
    if ctx.Work.trace then metrics_json Spec.per_layer (per_layer_values r)
    else metrics_json Spec.end_to_end (end_to_end_values r ~rss)
  in
  print_endline (Jsonx.to_string detail);
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("correct", Bool (failed = 0 && t.Stats.attempted > 0));
            ("attempted", Num (float_of_int t.Stats.attempted));
            ("failed", Num (float_of_int failed));
            ("metrics", metrics);
          ]))

(* --- every workload, one subprocess each ------------------------------ *)

let read_lines ic =
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

(* Run one workload in a child process so its peak RSS and warm caches are
   its own; returns its detail and result lines merged into one object. *)
let run_child ~workload ~(ctx : Work.ctx) =
  let args =
    [ "--workload"; workload; "--seed"; string_of_int ctx.Work.seed; "--seconds";
      Printf.sprintf "%g" ctx.Work.seconds; "--trace"; (if ctx.Work.trace then "1" else "0") ]
    @ match ctx.Work.out_dir with Some d -> [ "--out-dir"; d ] | None -> []
  in
  let t0 = Work.now () in
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = read_lines ic in
  let status = Unix.close_process_in ic in
  let wall = Work.now () -. t0 in
  match (status, List.rev lines) with
  | Unix.WEXITED 0, result :: detail :: _ -> (
      match (Jsonx.of_string detail, Jsonx.of_string result) with
      | Jsonx.Obj d, Jsonx.Obj r ->
          let keep k = List.filter (fun (k', _) -> k' = k) d in
          Ok
            (Jsonx.Obj
               ((("name", Jsonx.Str workload) :: ("wall_s", Jsonx.Num wall) :: keep "kpool_domains")
               @ keep "pool_domains" @ keep "oracle" @ r))
      | _ -> Error "malformed result lines"
      | exception Jsonx.Parse_error e -> Error e)
  | Unix.WEXITED 0, _ -> Error "no result lines"
  | (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c), _ ->
      Error (Printf.sprintf "exit status %d" c)

let run_all ~(ctx : Work.ctx) =
  let ok = ref true in
  let results =
    List.map
      (fun (w : Spec.workload) ->
        match run_child ~workload:w.Spec.w_name ~ctx with
        | Ok j -> j
        | Error e ->
            ok := false;
            Printf.eprintf "chetbench: workload %s failed: %s\n%!" w.Spec.w_name e;
            Jsonx.Obj [ ("name", Str w.Spec.w_name); ("error", Str e) ])
      Spec.workloads
  in
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("chetbench", Num 1.0);
            ("env", env_json ~seed:ctx.Work.seed ~seconds:ctx.Work.seconds ~trace:ctx.Work.trace);
            ("workloads", Arr results);
          ]));
  if not !ok then exit 1

(* --- --compare -------------------------------------------------------- *)

(* (workload, metric) -> values, in file order, from a file of documents. *)
let load_runs path =
  let tbl = Hashtbl.create 64 and order = ref [] in
  let ic = open_in path in
  let lines = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_lines ic) in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        let doc = Jsonx.of_string line in
        List.iter
          (fun w ->
            match (Jsonx.str_member "name" w, Jsonx.member "metrics" w) with
            | Some name, Some (Jsonx.Obj ms) ->
                List.iter
                  (fun (metric, v) ->
                    match Jsonx.num_member "value" v with
                    | Some x ->
                        let key = (name, metric) in
                        if not (Hashtbl.mem tbl key) then order := key :: !order;
                        Hashtbl.replace tbl key
                          (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
                    | None -> ())
                  ms
            | _ -> ())
          (Option.value ~default:[] (Option.bind (Jsonx.member "workloads" doc) Jsonx.to_arr)))
    lines;
  (tbl, List.rev !order)

let compare_files a b =
  let ta, order = load_runs a and tb, _ = load_runs b in
  let regressed = ref false in
  Printf.printf "%-18s %-30s %-6s %-38s %-38s %s\n" "workload" "metric" "unit" "A median [q1, q3] (n)"
    "B median [q1, q3] (n)" "verdict";
  List.iter
    (fun ((w, metric) as key) ->
      match (Hashtbl.find_opt ta key, Hashtbl.find_opt tb key, Spec.find metric) with
      | Some xs, Some ys, Some m ->
          let v = Stats.verdict ~better:m.Spec.better ?bound:m.Spec.bound xs ys in
          if m.Spec.bound <> None && (v = Stats.Worse || v = Stats.Unresolved) then regressed := true;
          let side vs =
            let q1, q2, q3 = Stats.quartiles vs in
            Printf.sprintf "%.6g [%.6g, %.6g] (%d)" q2 q1 q3 (List.length vs)
          in
          Printf.printf "%-18s %-30s %-6s %-38s %-38s %s\n" w metric m.Spec.unit_ (side xs) (side ys)
            (Stats.verdict_name v)
      | _ -> ())
    order;
  if !regressed then exit 1

(* --- command line ------------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out_dir = ref None and compare = ref false and files = ref [] in
  let spec =
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N seed of every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of each measurement (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
      ("--out-dir", Arg.String (fun d -> out_dir := Some d), "DIR write Chrome traces here");
      ("--compare", Arg.Set compare, " compare two result files given as arguments");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun f -> files := f :: !files) usage with
  | Arg.Bad msg -> fail_usage (List.hd (String.split_on_char '\n' msg))
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !compare then
    match List.rev !files with
    | [ a; b ] -> (
        try compare_files a b
        with Sys_error e | Jsonx.Parse_error e ->
          prerr_endline ("chetbench: " ^ e);
          exit 2)
    | _ -> fail_usage "--compare needs two files"
  else begin
    if !files <> [] then fail_usage ("unexpected argument " ^ List.hd !files);
    if !trace <> 0 && !trace <> 1 then fail_usage "--trace takes 0 or 1";
    if not (!seconds > 0.0) then fail_usage "--seconds must be positive";
    let ctx = { Work.seed = !seed; seconds = !seconds; trace = !trace = 1; out_dir = !out_dir } in
    match !workload with
    | None -> run_all ~ctx
    | Some w ->
        if not (List.exists (fun (x : Spec.workload) -> x.Spec.w_name = w) Spec.workloads) then
          fail_usage ("unknown workload " ^ w);
        run_one ~workload:w ~ctx
  end

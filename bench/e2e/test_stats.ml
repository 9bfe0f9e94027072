(* chetbench's statistics on fixed inputs: order statistics against the values
   Python's statistics module gives, the answer oracle, failure accounting
   and the --compare verdict; and BENCHMARK.json against the metric table. *)

module Jsonx = Chet_obs.Jsonx

let close = Alcotest.float 1e-12
let ten = List.init 10 (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median []))

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles ten in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, q2, q3 = Stats.quartiles [ 2.0; 1.0 ] in
  Alcotest.check close "two q1" 0.75 q1;
  Alcotest.check close "two q2" 1.5 q2;
  Alcotest.check close "two q3" 2.25 q3;
  let q1, _, q3 = Stats.quartiles [ 7.0 ] in
  Alcotest.check close "one sample has no spread" 0.0 (q3 -. q1)

let test_spread () =
  Alcotest.check close "iqr over median" 1.0 (Stats.spread ten);
  Alcotest.check close "constant" 0.0 (Stats.spread [ 4.0; 4.0; 4.0; 4.0 ]);
  Alcotest.check close "all zero" 0.0 (Stats.spread [ 0.0; 0.0 ])

let test_check () =
  let expected = [| 0.1; 0.9; 0.2 |] in
  let right = Stats.check ~tolerance:0.05 ~expected ~got:[| 0.12; 0.88; 0.2 |] in
  Alcotest.(check bool) "close answer is right" true right.Stats.ok;
  Alcotest.check (Alcotest.float 1e-9) "max error" 0.02 right.Stats.max_err;
  let tie = Stats.check ~tolerance:0.05 ~expected:[| 0.5; 0.52; 0.1 |] ~got:[| 0.53; 0.51; 0.1 |] in
  Alcotest.(check bool) "a near-tie resolved the other way is right" true tie.Stats.ok;
  Alcotest.(check int) "class got" 0 tie.Stats.class_got;
  Alcotest.(check int) "class expected" 1 tie.Stats.class_expected;
  let wrong_class = Stats.check ~tolerance:0.05 ~expected ~got:[| 0.95; 0.9; 0.2 |] in
  Alcotest.(check bool) "other class far off is wrong" false wrong_class.Stats.ok;
  let imprecise = Stats.check ~tolerance:0.05 ~expected ~got:[| 0.1; 0.9; 0.3 |] in
  Alcotest.(check bool) "right class beyond tolerance is wrong" false imprecise.Stats.ok;
  let nan = Stats.check ~tolerance:0.05 ~expected ~got:[| 0.1; Float.nan; 0.2 |] in
  Alcotest.(check bool) "nan is wrong" false nan.Stats.ok;
  Alcotest.check close "nan error is infinite" infinity nan.Stats.max_err;
  Alcotest.check close "bits" 3.0 (Stats.precision_bits 0.125);
  Alcotest.check close "exact answer is capped" 52.0 (Stats.precision_bits 0.0)

let test_tally () =
  let t = Stats.tally () in
  List.iter (Stats.record t)
    Stats.
      [ None; None; Some Wrong_answer; Some Typed_error; Some Deadline_miss; Some Shed;
        Some Degraded; None ];
  Alcotest.(check int) "attempted" 8 t.Stats.attempted;
  Alcotest.(check int) "failed" 5 (Stats.failed t);
  Alcotest.check close "share" 0.625 (Stats.failed_share t);
  Alcotest.check close "nothing attempted counts as failed" 1.0 (Stats.failed_share (Stats.tally ()))

let verdict =
  Alcotest.testable (fun f v -> Format.pp_print_string f (Stats.verdict_name v)) ( = )

let test_verdict () =
  let base = [ 10.0; 10.1; 9.9; 10.0; 10.05 ] in
  let shift k = List.map (fun x -> x *. k) base in
  let v ?bound better a b = Stats.verdict ~better ?bound a b in
  Alcotest.check verdict "same runs" Stats.Unchanged (v ~bound:0.1 Stats.Lower base base);
  Alcotest.check verdict "within bound" Stats.Unchanged (v ~bound:0.1 Stats.Lower base (shift 1.05));
  Alcotest.check verdict "slower" Stats.Worse (v ~bound:0.1 Stats.Lower base (shift 1.2));
  Alcotest.check verdict "faster" Stats.Better (v ~bound:0.1 Stats.Lower base (shift 0.8));
  Alcotest.check verdict "higher is better" Stats.Worse (v ~bound:0.1 Stats.Higher base (shift 0.8));
  let noisy = [ 5.0; 10.0; 15.0; 20.0 ] in
  Alcotest.check verdict "spread over bound" Stats.Unresolved (v ~bound:0.1 Stats.Lower base noisy);
  Alcotest.check verdict "separated despite spread" Stats.Better
    (v ~bound:0.1 Stats.Lower noisy [ 1.0; 2.0 ]);
  Alcotest.check verdict "no bound, overlapping" Stats.Unchanged (v Stats.Lower base (shift 1.005));
  Alcotest.check verdict "no bound, separated" Stats.Worse (v Stats.Lower base (shift 2.0));
  Alcotest.check verdict "no runs" Stats.Unresolved (v ~bound:0.1 Stats.Lower [] base)

(* BENCHMARK.json, at the repository root, must list what chetbench reports. *)
let test_benchmark_json () =
  let doc = Jsonx.of_file "../../BENCHMARK.json" in
  let entries key = Option.value ~default:[] (Option.bind (Jsonx.member key doc) Jsonx.to_arr) in
  let str key e = Option.value ~default:"" (Jsonx.str_member key e) in
  let better (m : Spec.metric) =
    match m.Spec.better with Stats.Lower -> "lower" | Stats.Higher -> "higher"
  in
  let metric with_bound (m : Spec.metric) =
    [ m.Spec.name; m.Spec.unit_; better m ]
    @ if with_bound then [ Printf.sprintf "%g" (Option.get m.Spec.bound) ] else []
  in
  let listed with_bound key =
    List.map
      (fun e ->
        [ str "name" e; str "unit" e; str "better" e ]
        @
        if with_bound then
          [ Printf.sprintf "%g" (Option.value ~default:nan (Jsonx.num_member "bound" e)) ]
        else [])
      (entries key)
  in
  let rows = Alcotest.(list (list string)) in
  Alcotest.check rows "workloads"
    (List.map (fun (w : Spec.workload) -> [ w.Spec.w_name; w.Spec.w_why ]) Spec.workloads)
    (List.map (fun e -> [ str "name" e; str "why" e ]) (entries "workloads"));
  Alcotest.check rows "end_to_end" (List.map (metric true) Spec.end_to_end) (listed true "end_to_end");
  Alcotest.check rows "per_layer" (List.map (metric false) Spec.per_layer) (listed false "per_layer")

let () =
  Alcotest.run "chetbench stats"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match statistics.quantiles" `Quick test_quartiles;
          Alcotest.test_case "spread" `Quick test_spread;
          Alcotest.test_case "answer oracle" `Quick test_check;
          Alcotest.test_case "failure accounting" `Quick test_tally;
          Alcotest.test_case "compare verdict" `Quick test_verdict;
          Alcotest.test_case "BENCHMARK.json mirrors the metric table" `Quick test_benchmark_json;
        ] );
    ]

(* Observability subsystem (DESIGN.md §10): the hand-rolled JSON layer, the
   span tracer and its Chrome export, the metrics registry (including under
   concurrent domains), the timed HISA interceptor, and the cost-model
   calibrate -> persist -> predict loop. *)

module Jsonx = Chet_obs.Jsonx
module Tracer = Chet_obs.Tracer
module Metrics = Chet_obs.Metrics
module Hisa = Chet_hisa.Hisa
module Clear = Chet_hisa.Clear_backend
module Sim = Chet_hisa.Sim_backend
module Instrument = Chet_hisa.Instrument
module Timed = Chet_hisa.Timed_backend
module Cost_model = Chet.Cost_model
module Compiler = Chet.Compiler
module Layout = Chet_runtime.Layout
module Models = Chet_nn.Models

let chain = [| 1073741789; 1073741783; 1073741741 |]

let clear () =
  Clear.make
    { Clear.slots = 16; scheme = Hisa.Rns_chain chain; strict_modulus = true; encode_noise = false }

(* ------------------------------------------------------------------ *)
(* Jsonx                                                                *)
(* ------------------------------------------------------------------ *)

let test_jsonx_roundtrip () =
  let v =
    Jsonx.Obj
      [
        ("s", Jsonx.Str "a\"b\\c\n\t\x01é");
        ("i", Jsonx.Num 42.0);
        ("f", Jsonx.Num 6.02214076e23);
        ("neg", Jsonx.Num (-1.5e-8));
        ("b", Jsonx.Bool true);
        ("null", Jsonx.Null);
        ("arr", Jsonx.Arr [ Jsonx.Num 1.0; Jsonx.Str "x"; Jsonx.Bool false; Jsonx.Null ]);
        ("nested", Jsonx.Obj [ ("empty_arr", Jsonx.Arr []); ("empty_obj", Jsonx.Obj []) ]);
      ]
  in
  let v' = Jsonx.of_string (Jsonx.to_string v) in
  Alcotest.(check bool) "round trip" true (v = v');
  (* non-finite floats must degrade to null, not emit invalid JSON *)
  let inf = Jsonx.of_string (Jsonx.to_string (Jsonx.Arr [ Jsonx.Num Float.infinity; Jsonx.Num Float.nan ])) in
  Alcotest.(check bool) "non-finite -> null" true (inf = Jsonx.Arr [ Jsonx.Null; Jsonx.Null ])

let test_jsonx_parse_errors () =
  let bad s =
    match Jsonx.of_string s with
    | exception Jsonx.Parse_error _ -> true
    | _ -> false
  in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "rejects %S" s) true (bad s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "tru"; "1 2"; "{\"a\" 1}"; "[1, 2,,]" ]

let test_jsonx_accessors () =
  let j = Jsonx.of_string {|{"name":"chet","n":4096,"ok":true,"xs":[1,2,3]}|} in
  Alcotest.(check (option string)) "str member" (Some "chet") (Jsonx.str_member "name" j);
  Alcotest.(check (option (float 0.0))) "num member" (Some 4096.0) (Jsonx.num_member "n" j);
  Alcotest.(check (option string)) "missing" None (Jsonx.str_member "absent" j);
  match Jsonx.member "xs" j with
  | Some (Jsonx.Arr l) -> Alcotest.(check int) "array len" 3 (List.length l)
  | _ -> Alcotest.fail "xs should be an array"

(* ------------------------------------------------------------------ *)
(* Tracer                                                               *)
(* ------------------------------------------------------------------ *)

let with_tracer ?capacity f =
  let t = Tracer.create ?capacity () in
  Tracer.set_global (Some t);
  Fun.protect ~finally:(fun () -> Tracer.set_global None) (fun () -> f t)

let test_span_nesting () =
  with_tracer (fun t ->
      let r =
        Tracer.with_span "outer" ~attrs:[ ("k", Tracer.Str "v") ] (fun () ->
            Tracer.with_span "inner" (fun () ->
                Tracer.annotate "ops" (Tracer.Int 7);
                42))
      in
      Alcotest.(check int) "value through spans" 42 r;
      match Tracer.events t with
      | [ a; b ] ->
          let outer, inner = if a.Tracer.ev_name = "outer" then (a, b) else (b, a) in
          Alcotest.(check string) "outer name" "outer" outer.Tracer.ev_name;
          Alcotest.(check string) "inner name" "inner" inner.Tracer.ev_name;
          (* containment: inner starts no earlier and ends no later *)
          Alcotest.(check bool) "inner starts inside" true
            (inner.Tracer.ev_ts_ns >= outer.Tracer.ev_ts_ns);
          Alcotest.(check bool) "inner ends inside" true
            (Int64.add inner.Tracer.ev_ts_ns inner.Tracer.ev_dur_ns
            <= Int64.add outer.Tracer.ev_ts_ns outer.Tracer.ev_dur_ns);
          Alcotest.(check bool) "annotation landed on inner" true
            (List.mem_assoc "ops" inner.Tracer.ev_attrs);
          Alcotest.(check bool) "static attr on outer" true
            (List.mem_assoc "k" outer.Tracer.ev_attrs)
      | evs -> Alcotest.failf "expected exactly outer+inner, got %d events" (List.length evs))

let test_span_disabled_is_transparent () =
  Tracer.set_global None;
  Alcotest.(check bool) "disabled" false (Tracer.enabled ());
  Alcotest.(check int) "plain call" 5 (Tracer.with_span "ghost" (fun () -> 5))

let test_ring_overflow () =
  with_tracer ~capacity:4 (fun t ->
      for i = 1 to 10 do
        Tracer.with_span (Printf.sprintf "s%d" i) (fun () -> ())
      done;
      Alcotest.(check int) "ring keeps capacity" 4 (List.length (Tracer.events t));
      Alcotest.(check int) "dropped counted" 6 (Tracer.dropped t);
      (* survivors are the newest *)
      let names = List.map (fun e -> e.Tracer.ev_name) (Tracer.events t) in
      Alcotest.(check bool) "newest survive" true (List.mem "s10" names))

let test_chrome_export () =
  let path = Filename.temp_file "chet_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_tracer (fun t ->
          Tracer.with_span "a" ~attrs:[ ("node_id", Tracer.Int 3) ] (fun () ->
              Tracer.with_span "b" (fun () -> ()));
          Tracer.instant "marker";
          Tracer.export_chrome t path);
      (* the exported file must parse back with our own parser and be a
         structurally valid Chrome trace *)
      let j = Jsonx.of_file path in
      match Jsonx.member "traceEvents" j with
      | Some (Jsonx.Arr evs) ->
          Alcotest.(check int) "three events" 3 (List.length evs);
          List.iter
            (fun e ->
              Alcotest.(check bool) "has ph" true (Jsonx.str_member "ph" e <> None);
              Alcotest.(check bool) "has name" true (Jsonx.str_member "name" e <> None);
              Alcotest.(check bool) "has ts" true (Jsonx.num_member "ts" e <> None);
              Alcotest.(check bool) "has pid" true (Jsonx.num_member "pid" e <> None);
              Alcotest.(check bool) "has tid" true (Jsonx.num_member "tid" e <> None))
            evs;
          let a =
            List.find
              (fun e -> Jsonx.str_member "name" e = Some "a")
              evs
          in
          (match Jsonx.member "args" a with
          | Some args ->
              Alcotest.(check (option (float 0.0))) "attr exported" (Some 3.0)
                (Jsonx.num_member "node_id" args)
          | None -> Alcotest.fail "span a should carry args")
      | _ -> Alcotest.fail "no traceEvents array")

(* every plan step should emit one span carrying node id, layer and op
   count when tracing is enabled — the --trace contract of the CLI *)
let test_executor_spans () =
  let spec = Models.micro in
  let circuit = spec.Models.build () in
  let opts = Compiler.default_options ~target:Compiler.Seal () in
  let compiled = Compiler.compile opts circuit in
  let n = Compiler.params_n compiled.Compiler.params in
  let backend =
    Clear.make
      {
        Clear.slots = n / 2;
        scheme = Compiler.scheme_of_params opts compiled.Compiler.params;
        strict_modulus = false;
        encode_noise = false;
      }
  in
  let timer = Timed.create () in
  with_tracer (fun t ->
      let module H = (val Timed.wrap timer backend : Hisa.S) in
      let module E = Chet_plan.Plan_exec.Make (H) in
      ignore
        (E.eval opts.Compiler.scales circuit ~policy:compiled.Compiler.policy
           (Models.input_for spec ~seed:3));
      let node_spans =
        List.filter (fun e -> e.Tracer.ev_cat = "plan") (Tracer.events t)
      in
      let plan = Chet_plan.Plan.build ~slots:(n / 2) ~policy:compiled.Compiler.policy circuit in
      let steps = Array.length plan.Chet_plan.Plan.p_steps in
      Alcotest.(check bool) "every circuit node is a step" true
        (steps >= List.length (Chet_nn.Circuit.topo_order circuit));
      Alcotest.(check int) "one span per plan step" steps (List.length node_spans);
      List.iter
        (fun e ->
          Alcotest.(check bool) "span has node_id" true (List.mem_assoc "node_id" e.Tracer.ev_attrs);
          Alcotest.(check bool) "span has layer" true (List.mem_assoc "layer" e.Tracer.ev_attrs);
          Alcotest.(check bool) "span has ops" true (List.mem_assoc "ops" e.Tracer.ev_attrs))
        node_spans;
      (* the per-span op counts must sum to the interceptor's total minus the
         client-side boundary ops (encrypt_tensor / decrypt_tensor run before
         and after the step loop, outside any plan span) *)
      let sum =
        List.fold_left
          (fun acc e ->
            match List.assoc "ops" e.Tracer.ev_attrs with Tracer.Int n -> acc + n | _ -> acc)
          0 node_spans
      in
      let count op0 =
        List.fold_left
          (fun acc (op, _, n, _) -> if String.equal op op0 then acc + n else acc)
          0 (Timed.cells timer)
      in
      (* each encrypt comes with one encode, each decrypt with one decode;
         encode alone also appears in-circuit (plaintext operands), so it is
         not client-only *)
      let client = (2 * count "encrypt") + (2 * count "decrypt") in
      Alcotest.(check int) "span op counts sum to in-circuit timed ops"
        (Timed.total_ops timer - client)
        sum)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "requests_total" ~labels:[ ("rung", "primary") ] in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  (* get-or-create: same handle cell *)
  let c' = Metrics.counter reg "requests_total" ~labels:[ ("rung", "primary") ] in
  Metrics.incr c';
  Alcotest.(check int) "idempotent get_or_create" 6 (Metrics.counter_value c);
  let g = Metrics.gauge reg "depth" in
  Metrics.set_gauge g 3.5;
  Alcotest.(check (float 0.0)) "gauge" 3.5 (Metrics.gauge_value g);
  (* kind mismatch on the same (name, labels) must be rejected *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: depth re-registered with a different kind") (fun () ->
      ignore (Metrics.counter reg "depth"))

let test_histogram_quantiles () =
  let reg = Metrics.create () in
  (* tight growth so the interpolated quantile is sharp *)
  let h = Metrics.histogram reg "lat" ~lo:1e-3 ~growth:1.25 ~buckets:60 in
  (* uniform 1..1000 ms *)
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i /. 1000.0)
  done;
  Alcotest.(check int) "count exact" 1000 (Metrics.hist_count h);
  Alcotest.(check (float 1e-6)) "sum exact" 500.5 (Metrics.hist_sum h);
  let check_q q expected =
    let got = Metrics.quantile h q in
    let rel = Float.abs (got -. expected) /. expected in
    if rel > 0.13 then
      Alcotest.failf "p%.0f = %.4f, expected %.4f (+/-13%%)" (q *. 100.0) got expected
  in
  check_q 0.5 0.5;
  check_q 0.95 0.95;
  check_q 0.99 0.99;
  Alcotest.(check bool) "empty histogram quantile is nan" true
    (Float.is_nan (Metrics.quantile (Metrics.histogram reg "empty") 0.5))

let test_metrics_concurrent_domains () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "hits" in
  let h = Metrics.histogram reg "obs" in
  let per_domain = 10_000 in
  let work () =
    for _ = 1 to per_domain do
      Metrics.incr c;
      Metrics.observe h 1.0
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no torn counter increments" (4 * per_domain) (Metrics.counter_value c);
  Alcotest.(check int) "no torn histogram counts" (4 * per_domain) (Metrics.hist_count h);
  Alcotest.(check (float 1e-6)) "no torn float sums" (float_of_int (4 * per_domain))
    (Metrics.hist_sum h)

let test_expose_format () =
  let reg = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter reg "z_total" ~help:"the z" ~labels:[ ("k", "v") ]);
  Metrics.set_gauge (Metrics.gauge reg "a_gauge") 1.5;
  let text = Metrics.expose reg in
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "TYPE line" true (has "# TYPE z_total counter");
  Alcotest.(check bool) "HELP line" true (has "# HELP z_total the z");
  Alcotest.(check bool) "labelled sample" true (has "z_total{k=\"v\"} 3");
  Alcotest.(check bool) "gauge sample" true (has "a_gauge 1.5");
  (* deterministic ordering: gauge 'a_gauge' renders before counter 'z_total' *)
  let idx needle =
    let n = String.length needle in
    let rec go i = if String.sub text i n = needle then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "sorted by name" true (idx "a_gauge" < idx "z_total")

(* Prometheus exposition-format escaping: label values containing the three
   characters the spec escapes — backslash, double quote, newline — must
   render as backslash-backslash, backslash-quote and backslash-n (and
   nothing else may be altered). *)
let test_expose_label_escaping () =
  let reg = Metrics.create () in
  Metrics.incr
    (Metrics.counter reg "esc_total" ~labels:[ ("path", "a\\b\"c\nd") ]);
  let text = Metrics.expose reg in
  let expected = "esc_total{path=\"a\\\\b\\\"c\\nd\"} 1" in
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped label value" true (has expected);
  (* no raw newline may survive inside the sample line *)
  Alcotest.(check bool) "no raw newline in value" false (has "c\nd")

(* Golden-file pin of the full exposition (ISSUE 6 satellite): cumulative
   histogram buckets, the +Inf overflow bucket, _sum/_count companions,
   quoted le labels, and the spec's spellings of non-finite sample values
   (+Inf / -Inf / NaN — %g's "inf"/"nan" are rejected by conformant
   scrapers). Frozen byte-for-byte so a formatting regression shows up as a
   readable diff instead of a production scrape failure. *)
let test_expose_golden () =
  let reg = Metrics.create () in
  Metrics.incr ~by:5
    (Metrics.counter reg "req_total" ~help:"requests served" ~labels:[ ("shard", "0") ]);
  Metrics.set_gauge (Metrics.gauge reg "headroom_gauge" ~help:"worst-case headroom") Float.infinity;
  Metrics.set_gauge (Metrics.gauge reg "debt_gauge") Float.neg_infinity;
  Metrics.set_gauge (Metrics.gauge reg "ratio_gauge") Float.nan;
  let h =
    Metrics.histogram reg "lat_seconds" ~help:"latency" ~lo:0.001 ~growth:10.0 ~buckets:4
  in
  Metrics.observe h 0.0005;
  Metrics.observe h 0.05;
  Metrics.observe h 2.0;
  let actual = Metrics.expose reg in
  let golden =
    In_channel.with_open_bin "data/metrics_exposition.golden" In_channel.input_all
  in
  if actual <> golden then
    Alcotest.failf "exposition drifted from golden:\n--- actual ---\n%s--- golden ---\n%s" actual
      golden

(* ------------------------------------------------------------------ *)
(* Timed interceptor + Instrument satellite                             *)
(* ------------------------------------------------------------------ *)

let test_timed_backend_cells () =
  let timer = Timed.create () in
  let module H = (val Timed.wrap timer (clear ()) : Hisa.S) in
  let a = H.encrypt (H.encode [| 1.0; 2.0 |] ~scale:1024) in
  let b = H.encrypt (H.encode [| 3.0; 4.0 |] ~scale:1024) in
  ignore (H.add a b);
  ignore (H.add a b);
  ignore (H.mul a b);
  ignore (H.rot_left a 1);
  let cells = Timed.cells timer in
  let count op =
    List.fold_left (fun acc (o, _, n, _) -> if o = op then acc + n else acc) 0 cells
  in
  Alcotest.(check int) "adds timed" 2 (count "add");
  Alcotest.(check int) "mul timed" 1 (count "mul");
  Alcotest.(check int) "rotation timed" 1 (count "rot_left");
  Alcotest.(check int) "encodes timed" 2 (count "encode");
  List.iter
    (fun (op, _, n, mean) ->
      Alcotest.(check bool) (op ^ " count positive") true (n > 0);
      Alcotest.(check bool) (op ^ " mean non-negative") true (mean >= 0.0))
    cells;
  Alcotest.(check int) "total ops" (2 + 2 + 2 + 1 + 1) (Timed.total_ops timer)

let test_instrument_decode_and_reset () =
  let backend, c = Instrument.wrap (clear ()) in
  let module H = (val backend : Hisa.S) in
  let ct = H.encrypt (H.encode [| 1.0 |] ~scale:1024) in
  ignore (H.decode (H.decrypt ct));
  Alcotest.(check int) "decode counted" 1 c.Instrument.decodes;
  Alcotest.(check int) "decrypt counted" 1 c.Instrument.decrypts;
  ignore (H.rot_left ct 5);
  ignore (H.rot_left ct 2);
  ignore (H.rot_right ct 1);
  (* sorted ascending, right-rotation normalised to a left amount *)
  Alcotest.(check (list int)) "distinct rotations sorted" [ 2; 5; 15 ]
    (Instrument.distinct_rotations c);
  Instrument.reset c;
  Alcotest.(check int) "reset decodes" 0 c.Instrument.decodes;
  Alcotest.(check int) "reset encodes" 0 c.Instrument.encodes;
  Alcotest.(check int) "reset rotations" 0 (Instrument.total_rotations c);
  Alcotest.(check (list int)) "reset distinct" [] (Instrument.distinct_rotations c)

(* ------------------------------------------------------------------ *)
(* Cost-model calibration                                               *)
(* ------------------------------------------------------------------ *)

(* Synthetic cells generated from known ground-truth constants must be
   recovered exactly (the fit is least squares on noiseless data). *)
let test_calibrate_roundtrip () =
  let truth =
    {
      Cost_model.k_add = 3.0e-8;
      k_scalar_mul = 1.1e-8;
      k_plain_mul = 2.2e-8;
      k_cipher_mul = 4.4e-8;
      k_rotate = 5.5e-8;
      k_rot_hoisted = 2.5e-8;
      k_rescale = 1.7e-8;
    }
  in
  let envs =
    [
      { Hisa.env_n = 4096; env_r = 4; env_log_q = 0 };
      { Hisa.env_n = 4096; env_r = 2; env_log_q = 0 };
      { Hisa.env_n = 8192; env_r = 6; env_log_q = 0 };
    ]
  in
  let k_of = function
    | Cost_model.Add -> truth.Cost_model.k_add
    | Cost_model.Scalar_mul -> truth.Cost_model.k_scalar_mul
    | Cost_model.Plain_mul -> truth.Cost_model.k_plain_mul
    | Cost_model.Cipher_mul -> truth.Cost_model.k_cipher_mul
    | Cost_model.Rotate -> truth.Cost_model.k_rotate
    | Cost_model.Rot_hoisted -> truth.Cost_model.k_rot_hoisted
    | Cost_model.Rescale -> truth.Cost_model.k_rescale
  in
  let cells =
    List.concat_map
      (fun op ->
        match Cost_model.class_of_op op with
        | None -> []
        | Some cls ->
            List.mapi
              (fun i env ->
                (op, env, 5 + i, k_of cls *. Cost_model.term_of `Seal cls env))
              envs)
      [ "add"; "sub"; "add_plain"; "add_scalar"; "mul_scalar"; "mul_plain"; "mul"; "rot_left";
        "rot_many"; "rescale"; "encode" (* must be ignored *) ]
  in
  let fitted = Cost_model.calibrate_from ~scheme:`Seal cells in
  let close name got want =
    let rel = Float.abs (got -. want) /. want in
    if rel > 1e-9 then Alcotest.failf "%s: fitted %.6g, truth %.6g" name got want
  in
  close "k_add" fitted.Cost_model.k_add truth.Cost_model.k_add;
  close "k_scalar_mul" fitted.Cost_model.k_scalar_mul truth.Cost_model.k_scalar_mul;
  close "k_plain_mul" fitted.Cost_model.k_plain_mul truth.Cost_model.k_plain_mul;
  close "k_cipher_mul" fitted.Cost_model.k_cipher_mul truth.Cost_model.k_cipher_mul;
  close "k_rotate" fitted.Cost_model.k_rotate truth.Cost_model.k_rotate;
  close "k_rot_hoisted" fitted.Cost_model.k_rot_hoisted truth.Cost_model.k_rot_hoisted;
  close "k_rescale" fitted.Cost_model.k_rescale truth.Cost_model.k_rescale;
  (* classes with no samples keep defaults *)
  let partial = Cost_model.calibrate_from ~scheme:`Heaan [] in
  Alcotest.(check (float 0.0)) "empty profile keeps defaults"
    Cost_model.heaan_defaults.Cost_model.k_add partial.Cost_model.k_add

let test_calibration_persistence () =
  let cal =
    {
      Cost_model.seal_c = { Cost_model.seal_defaults with Cost_model.k_add = 7.25e-8 };
      heaan_c = { Cost_model.heaan_defaults with Cost_model.k_rotate = 1.0e-7 };
    }
  in
  let path = Filename.temp_file "chet_calib" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cost_model.save_calibration path cal;
      let cal' = Cost_model.load_calibration path in
      Alcotest.(check bool) "exact float round trip" true (cal = cal'));
  (* structurally wrong files fail loudly *)
  let bad = Filename.temp_file "chet_calib_bad" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      let oc = open_out bad in
      output_string oc "{\"constants\":{}}";
      close_out oc;
      match Cost_model.load_calibration bad with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "missing version must be rejected")

(* calibrate -> predict: a model rebuilt from profiled constants must rank
   two layouts the same way the measured (simulated) latencies do *)
let test_calibrated_model_orders_layouts () =
  let spec = Models.micro in
  let circuit = spec.Models.build () in
  let opts = Compiler.default_options ~target:Compiler.Seal () in
  let compiled = Compiler.compile opts circuit in
  let params = compiled.Compiler.params in
  let latency_under costs policy =
    let backend, clock =
      Sim.make
        {
          Sim.n = Compiler.params_n params;
          scheme = Compiler.scheme_of_params opts params;
          costs;
        }
    in
    let module H = (val backend : Hisa.S) in
    let module E = Chet_plan.Plan_exec.Make (H) in
    ignore (E.eval opts.Compiler.scales circuit ~policy (Models.input_for spec ~seed:1));
    clock.Sim.elapsed
  in
  (* "measured": the shipped calibrated clock. "predicted": constants
     recovered from synthetic cells generated by those same constants, via
     the full calibrate_from -> model_for loop. *)
  let envs =
    [
      { Hisa.env_n = 2048; env_r = 2; env_log_q = 0 };
      { Hisa.env_n = 4096; env_r = 4; env_log_q = 0 };
      { Hisa.env_n = 8192; env_r = 5; env_log_q = 0 };
    ]
  in
  let d = Cost_model.seal_defaults in
  let k_of = function
    | Cost_model.Add -> d.Cost_model.k_add
    | Cost_model.Scalar_mul -> d.Cost_model.k_scalar_mul
    | Cost_model.Plain_mul -> d.Cost_model.k_plain_mul
    | Cost_model.Cipher_mul -> d.Cost_model.k_cipher_mul
    | Cost_model.Rotate -> d.Cost_model.k_rotate
    | Cost_model.Rot_hoisted -> d.Cost_model.k_rot_hoisted
    | Cost_model.Rescale -> d.Cost_model.k_rescale
  in
  let cells =
    List.concat_map
      (fun op ->
        match Cost_model.class_of_op op with
        | None -> []
        | Some cls ->
            List.map (fun env -> (op, env, 8, k_of cls *. Cost_model.term_of `Seal cls env)) envs)
      [ "add"; "mul_scalar"; "mul_plain"; "mul"; "rot_left"; "rot_many"; "rescale" ]
  in
  let fitted = Cost_model.calibrate_from ~scheme:`Seal cells in
  let cal = { Cost_model.seal_c = fitted; heaan_c = Cost_model.heaan_defaults } in
  let predicted = Cost_model.model_for `Seal cal in
  let p1 = Layout.All_hw and p2 = Layout.All_chw in
  let measured_order =
    compare (latency_under (Cost_model.seal ()) p1) (latency_under (Cost_model.seal ()) p2)
  in
  let predicted_order = compare (latency_under predicted p1) (latency_under predicted p2) in
  Alcotest.(check int) "calibrated model preserves layout ordering" measured_order predicted_order

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "jsonx round trip" `Quick test_jsonx_roundtrip;
        Alcotest.test_case "jsonx parse errors" `Quick test_jsonx_parse_errors;
        Alcotest.test_case "jsonx accessors" `Quick test_jsonx_accessors;
        Alcotest.test_case "span nesting + annotate" `Quick test_span_nesting;
        Alcotest.test_case "disabled tracing is transparent" `Quick test_span_disabled_is_transparent;
        Alcotest.test_case "ring overflow drops oldest" `Quick test_ring_overflow;
        Alcotest.test_case "chrome export well-formed" `Quick test_chrome_export;
        Alcotest.test_case "executor emits one span per node" `Quick test_executor_spans;
        Alcotest.test_case "counters and gauges" `Quick test_counter_gauge;
        Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
        Alcotest.test_case "metrics exact under 4 domains" `Quick test_metrics_concurrent_domains;
        Alcotest.test_case "prometheus exposition" `Quick test_expose_format;
        Alcotest.test_case "prometheus label escaping" `Quick test_expose_label_escaping;
        Alcotest.test_case "prometheus exposition golden file" `Quick test_expose_golden;
        Alcotest.test_case "timed backend cells" `Quick test_timed_backend_cells;
        Alcotest.test_case "instrument decode + reset" `Quick test_instrument_decode_and_reset;
        Alcotest.test_case "calibrate round trip" `Quick test_calibrate_roundtrip;
        Alcotest.test_case "calibration persistence" `Quick test_calibration_persistence;
        Alcotest.test_case "calibrated model orders layouts" `Quick test_calibrated_model_orders_layouts;
      ] );
  ]

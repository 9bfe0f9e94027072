(* The two chetbench workloads. Each one sets its deployment up several
   times (setup_s is the median), measures for the requested number of
   seconds, checks every answer against the unencrypted reference, and
   returns what it saw. Layers are timed from outside, around calls into
   their public entry points; the traced run adds the spans lib/plan and
   lib/runtime already emit and a Timed_backend around the lenet backend. *)

module C = Chet.Compiler
module T = Chet_tensor.Tensor
module M = Chet_nn.Models
module Reference = Chet_nn.Reference
module Service = Chet_serve.Service
module Herr = Chet_hisa.Herr
module Timed = Chet_hisa.Timed_backend
module Tracer = Chet_obs.Tracer
module Plan = Chet_plan.Plan

let now = Chet_obs.Clock.now_s

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Ring dimension of every real-backend deployment. The 128-bit table puts
   these circuits at N = 16384-32768, where one LeNet-5-small inference takes
   about 100 s on two cores; at 2048 the same modulus chain and layout policy
   run in 3-5 s, so a run sees about ten inferences. *)
let ring_n = 2048

(* LeNet-5-small's scales. The default mask scale 2^14 leaves the real
   backend's answer far from the reference (max error about 0.6, wrong
   class); Pm = 2^16 with Pw = Pu = 2^14 keeps Pw * Pm = Pc. *)
let lenet_scales =
  { Chet_runtime.Kernels.pc = 1 lsl 30; pw = 1 lsl 14; pu = 1 lsl 14; pm = 1 lsl 16 }

let tolerance = Chet.Integrity.default_tolerance
let nproc = Domain.recommended_domain_count ()
let pool_domains = 2

type ctx = { seed : int; seconds : float; trace : bool; out_dir : string option }

type result = {
  tally : Stats.tally;
  latencies : float list;  (** seconds per unit of work *)
  setups : float list;  (** seconds per setup repetition *)
  precision : float list;  (** bits kept by each answer of a fixed, seed-drawn set *)
  wrong : Stats.check list;  (** the wrong answers, as found *)
  flips : int;  (** right answers whose class differs from the reference's (ties) *)
  layer : (string * float) list;  (** per-layer values measured by this workload *)
  kpool : int;
  pool : int;
}

(* Independent seeded streams, so adding a draw to one input kind does not
   shift another. *)
let stream ctx salt = Random.State.make [| ctx.seed; salt |]
let images ctx = stream ctx 1
let key_seed ctx = Random.State.bits (stream ctx 2)
let request_seeds ctx = stream ctx 3
let warmup_images ctx = stream ctx 5
let draw st = Random.State.bits st

(* Keep the compiled modulus chain, policy and plan but move the deployment
   to [ring_n]; rotation keys are selected again for the smaller slot count. *)
let pin_ring (compiled : C.compiled) =
  match compiled.C.params with
  | C.Rns_params p when p.n > ring_n ->
      let params = C.Rns_params { p with n = ring_n } in
      let rotations, op_counters =
        C.select_rotations compiled.C.opts compiled.C.circuit ~policy:compiled.C.policy ~params
      in
      { compiled with C.params; rotations; op_counters }
  | _ -> compiled

(* Run [setup] [reps] times, dropping each deployment before the next so peak
   memory holds one; the last is the one measured. *)
let repeat_setup reps setup =
  let rec go k times =
    Gc.full_major ();
    let d, t = timed setup in
    if k = 1 then (d, List.rev (t :: times)) else go (k - 1) (t :: times)
  in
  go reps []

let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          let line = input_line ic in
          if String.starts_with ~prefix:"VmHWM:" line then
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          else find ()
        in
        find ())
  in
  try from_proc ()
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6

(* --- answer bookkeeping ---------------------------------------------- *)

type book = {
  lock : Mutex.t;
  tally : Stats.tally;
  mutable latencies : float list;
  mutable precision : (int * float) list;  (** answer index, bits *)
  mutable wrong : Stats.check list;
  mutable flips : int;
}

let book () =
  { lock = Mutex.create (); tally = Stats.tally (); latencies = []; precision = []; wrong = [];
    flips = 0 }

let locked b f = Mutex.protect b.lock f
let flat (t : T.t) = (T.flatten t).T.data

(* Check one decrypted answer against the reference and count it. [index]
   orders answers by input draw, so a seed fixes which answers the precision
   metric reads however many a run completes. *)
let judge b ~index ~expected ~got =
  let c = Stats.check ~tolerance ~expected:(flat expected) ~got:(flat got) in
  b.precision <- (index, Stats.precision_bits c.max_err) :: b.precision;
  if not c.ok then b.wrong <- c :: b.wrong
  else if c.class_got <> c.class_expected then b.flips <- b.flips + 1;
  Stats.record b.tally (if c.ok then None else Some Stats.Wrong_answer)

(* Count one serving outcome: typed errors, deadline misses, sheds and
   degraded answers all fail. *)
let judge_outcome b ~index ~latency ~expected (o : Service.outcome) =
  locked b (fun () ->
      b.latencies <- latency :: b.latencies;
      match o.Service.out_result with
      | Error (Herr.Deadline_exceeded _, _) -> Stats.record b.tally (Some Stats.Deadline_miss)
      | Error (Herr.Overloaded _, _) -> Stats.record b.tally (Some Stats.Shed)
      | Error _ -> Stats.record b.tally (Some Stats.Typed_error)
      | Ok _ when o.Service.out_degraded -> Stats.record b.tally (Some Stats.Degraded)
      | Ok got -> judge b ~index ~expected ~got)

(* [first]: the precision metric reads the answers to the first inputs a
   seed draws, as many as every run completes, so a seed fixes its value. *)
let finish b ~first ~setups ~layer ~pool =
  {
    tally = b.tally;
    latencies = List.rev b.latencies;
    setups;
    precision = List.filter_map (fun (i, bits) -> if i < first then Some bits else None) b.precision;
    wrong = List.rev b.wrong;
    flips = b.flips;
    layer;
    kpool = Chet_crypto.Kpool.domain_count ();
    pool;
  }

(* --- traced-run helpers ---------------------------------------------- *)

let layer_class name =
  let word =
    match String.index_opt name ' ' with Some i -> String.sub name 0 i | None -> name
  in
  match word with
  | "conv2d" -> "conv2d"
  | "matmul" -> "matmul"
  | "poly_act" | "square" -> "act"
  | "avg_pool" | "global_avg_pool" -> "pool"
  | _ -> "other"

(* Time in plan-step and executor-node spans, summed per layer class and
   divided by [per] (the traced inferences or requests). Those spans do not
   nest, so each is its layer's self time. *)
let layer_times tracer ~per =
  let sums = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if e.Tracer.ev_cat = "plan" || e.Tracer.ev_cat = "executor" then begin
        let c = layer_class e.Tracer.ev_name in
        let s = Int64.to_float e.Tracer.ev_dur_ns /. 1e9 in
        Hashtbl.replace sums c (s +. Option.value ~default:0.0 (Hashtbl.find_opt sums c))
      end)
    (Tracer.events tracer);
  List.map
    (fun c ->
      ( "layer_s." ^ c,
        if per = 0 then 0.0
        else Option.value ~default:0.0 (Hashtbl.find_opt sums c) /. float_of_int per ))
    Spec.layer_classes

let op_class = function
  | "rot_left" | "rot_right" | "fma_rot" -> Some "rotate"
  | "mul" -> Some "mul"
  | "mul_plain" | "fma_plain" | "mul_scalar" | "fma_scalar" -> Some "mul_plain"
  | "rescale" -> Some "rescale"
  | "add" | "sub" | "add_plain" | "sub_plain" | "add_scalar" | "sub_scalar" -> Some "add"
  | "encode" -> Some "encode"
  | "encrypt" -> Some "encrypt"
  | "decrypt" | "decode" -> Some "decrypt"
  | _ -> None

(* (ops, busy seconds) per op class over every cell the timer holds. *)
let op_totals timer =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (op, _env, count, mean_s) ->
      match op_class op with
      | None -> ()
      | Some c ->
          let n, s = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl c) in
          Hashtbl.replace tbl c (n + count, s +. (float_of_int count *. mean_s)))
    (Timed.cells timer);
  fun c -> Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl c)

let export_trace ctx tracer name =
  Option.iter
    (fun dir -> Tracer.export_chrome tracer (Filename.concat dir (name ^ ".trace.json")))
    ctx.out_dir

let median_or_zero = function [] -> 0.0 | xs -> Stats.median xs

let plan_counts (p : Plan.t) =
  [
    ("plan.steps", float_of_int (Array.length p.Plan.p_steps));
    ("plan.arena", float_of_int p.Plan.p_arena);
    ("plan.fused_rot_acc", float_of_int p.Plan.p_stats.Plan.fused_rot_acc);
    ("plan.fused_mul_acc", float_of_int p.Plan.p_stats.Plan.fused_mul_acc);
    ("plan.fused_mul_rescale", float_of_int p.Plan.p_stats.Plan.fused_mul_rescale);
  ]

(* --- lenet5-small-plan ------------------------------------------------ *)

type lenet_deployment = {
  ld_circuit : Chet_nn.Circuit.t;
  ld_compiled : C.compiled;
  ld_plan : Plan.t;
  ld_infer : T.t -> T.t * float * float * float;  (** answer, encrypt, evaluate, decrypt seconds *)
  ld_warm : T.t;  (** the answer to the warm-up image *)
  ld_parts : (string * float) list;
}

let lenet_deploy ctx ~timer ~warm_image () =
  let circuit = M.lenet5_small.M.build () in
  let opts = { (C.default_options ()) with C.scales = lenet_scales } in
  let compiled, t_compile = timed (fun () -> C.compile opts circuit) in
  let compiled = pin_ring compiled in
  let backend, t_keygen =
    timed (fun () -> C.instantiate compiled ~seed:(key_seed ctx) ~with_secret:true ())
  in
  let plan, t_build = timed (fun () -> C.plan compiled) in
  let backend = match timer with Some tm -> Timed.wrap tm backend | None -> backend in
  let module H = (val backend) in
  let module PE = Chet_plan.Plan_exec.Make (H) in
  let scales = compiled.C.opts.C.scales in
  let prepared, t_prepare = timed (fun () -> PE.prepare scales plan) in
  let infer image =
    let t0 = now () in
    let enc = PE.K.encrypt_tensor scales plan.Plan.p_input_meta image in
    let t1 = now () in
    let out = PE.run_encrypted prepared enc in
    let t2 = now () in
    let got = PE.K.decrypt_tensor out in
    (got, t1 -. t0, t2 -. t1, now () -. t2)
  in
  (* the backend encodes staged plaintexts on first use, so the deployment
     is ready to serve only after one inference *)
  let (warm, _, _, _), t_warm = timed (fun () -> infer warm_image) in
  {
    ld_circuit = circuit;
    ld_compiled = compiled;
    ld_plan = plan;
    ld_infer = infer;
    ld_warm = warm;
    ld_parts =
      [
        ("core.compile_s", t_compile);
        ("crypto.keygen_s", t_keygen);
        ("plan.build_s", t_build);
        ("plan.prepare_s", t_prepare);
        ("plan.warmup_s", t_warm);
      ];
  }

(* Each set-up costs about two inferences, so three is what a run affords. *)
let lenet_setups = 3

let lenet ctx =
  Chet_crypto.Kpool.configure ~domains:nproc;
  let timer = if ctx.trace then Some (Timed.create ()) else None in
  (* setup components are medians over the repetitions, like setup_s *)
  let parts = ref [] and warmups = ref [] in
  let warm = warmup_images ctx in
  let dep, setups =
    repeat_setup lenet_setups (fun () ->
        let warm_image = M.input_for M.lenet5_small ~seed:(draw warm) in
        let d = lenet_deploy ctx ~timer ~warm_image () in
        parts := d.ld_parts :: !parts;
        warmups := (warm_image, d.ld_warm) :: !warmups;
        d)
  in
  let part name = Stats.median (List.map (List.assoc name) !parts) in
  let b = book () in
  (* warm-up answers are answers too: check them, without a latency *)
  List.iteri
    (fun index (image, got) -> judge b ~index ~expected:(Reference.eval dep.ld_circuit image) ~got)
    (List.rev !warmups);
  let tracer = Tracer.create () in
  let ops0 = Option.map op_totals timer in
  let imgs = images ctx in
  let stages = ref [] and traced = ref [] and untraced = ref [] and alloc = ref [] in
  let deadline = now () +. ctx.seconds in
  let i = ref 0 in
  (* at least two inferences, so the traced run has one of each kind *)
  while !i < 2 || now () < deadline do
    let image = M.input_for M.lenet5_small ~seed:(draw imgs) in
    let expected = Reference.eval dep.ld_circuit image in
    let tracing = ctx.trace && !i mod 2 = 1 in
    Tracer.set_global (if tracing then Some tracer else None);
    let a0 = Gc.allocated_bytes () in
    let (got, enc, eval, dec), latency =
      Fun.protect
        ~finally:(fun () -> Tracer.set_global None)
        (fun () -> timed (fun () -> dep.ld_infer image))
    in
    alloc := ((Gc.allocated_bytes () -. a0) /. 8e6) :: !alloc;
    stages := (enc, eval, dec) :: !stages;
    (if tracing then traced := latency :: !traced else untraced := latency :: !untraced);
    b.latencies <- latency :: b.latencies;
    judge b ~index:(lenet_setups + !i) ~expected ~got;
    incr i
  done;
  let n_traced = List.length !traced in
  let measured = Stats.median (List.map (fun (_, e, _) -> e) !stages) in
  let layer =
    [
      ("core.compile_s", part "core.compile_s");
      ("crypto.keygen_s", part "crypto.keygen_s");
      ("plan.build_s", part "plan.build_s");
      ("plan.prepare_s", part "plan.prepare_s");
      ("plan.warmup_s", part "plan.warmup_s");
      ("crypto.rotation_keys", float_of_int (List.length dep.ld_compiled.C.rotations));
      ("plan.evaluate_s", measured);
      ("runtime.encrypt_s", Stats.median (List.map (fun (e, _, _) -> e) !stages));
      ("runtime.decrypt_s", Stats.median (List.map (fun (_, _, d) -> d) !stages));
      ("runtime.alloc_mwords", Stats.median !alloc);
    ]
    @ plan_counts dep.ld_plan
  in
  let traced_layer =
    if not ctx.trace then []
    else begin
      export_trace ctx tracer "lenet5-small-plan";
      let c = dep.ld_compiled in
      let predicted = C.estimate_cost c.C.opts c.C.circuit ~policy:c.C.policy ~params:c.C.params in
      let per_inference =
        match (timer, ops0) with
        | Some tm, Some before ->
            let after = op_totals tm in
            let k = float_of_int !i in
            List.concat_map
              (fun cl ->
                let n1, s1 = after cl and n0, s0 = before cl in
                [
                  ("hisa.ops." ^ cl, float_of_int (n1 - n0) /. k);
                  ("hisa.busy_s." ^ cl, (s1 -. s0) /. k);
                ])
              Spec.op_classes
        | _ -> []
      in
      [
        ("core.predicted_over_measured", predicted /. measured);
        ("obs.trace_overhead", (median_or_zero !traced /. median_or_zero !untraced) -. 1.0);
      ]
      @ per_inference
      @ layer_times tracer ~per:n_traced
    end
  in
  finish b ~first:(lenet_setups + 2) ~setups ~layer:(layer @ traced_layer) ~pool:0

(* --- serve-verified --------------------------------------------------- *)

(* One request per worker, so lazily built per-worker state (plaintext
   encodings) exists before timing starts. *)
let warm_up ctx svc =
  let imgs = warmup_images ctx in
  List.init pool_domains (fun _ -> Service.submit svc (M.input_for M.micro ~seed:(draw imgs)))
  |> List.iter (fun t -> ignore (Service.await svc t))

(* A set-up takes under a second, so five cost little and steady the median. *)
let serve_setups = 5

(* serve-verified: two closed-loop clients, each sending its next request
   when the previous answer arrives, through a single sentinel-verified rung. *)
let serve_verified ctx =
  Chet_crypto.Kpool.configure ~domains:1;
  let parts = ref [] and previous = ref None in
  let deploy () =
    (* each repetition shuts the previous one's workers down first *)
    Option.iter Service.shutdown !previous;
    let opts = { (C.default_options ()) with C.sentinel = true } in
    let compiled, t_compile = timed (fun () -> C.compile opts (M.micro.M.build ())) in
    let compiled = pin_ring compiled in
    let circuit = compiled.C.circuit in
    let sentinel = Chet.Integrity.spec_for circuit in
    let ladder, t_ladder =
      timed (fun () ->
          Service.ladder_of_compiled compiled ~seed:(key_seed ctx) ~reduced_rungs:0
            ~clear_fallback:false ~sentinel ~with_secret:true ())
    in
    let svc = Service.create (Service.default_config ~domains:pool_domains ()) ~circuit ~ladder in
    warm_up ctx svc;
    previous := Some svc;
    parts := [ ("core.compile_s", t_compile); ("serve.ladder_s", t_ladder) ] :: !parts;
    (compiled, svc)
  in
  let (compiled, svc), setups = repeat_setup serve_setups deploy in
  let circuit = compiled.C.circuit in
  let b = book () in
  let outs = ref [] and margins = ref [] in
  let imgs = images ctx and reqs = request_seeds ctx in
  let drawn = ref 0 in
  let next () =
    locked b (fun () ->
        let image = M.input_for M.micro ~seed:(draw imgs) in
        incr drawn;
        (!drawn - 1, image, Reference.eval circuit image, draw reqs))
  in
  let tracer = Tracer.create () in
  if ctx.trace then Tracer.set_global (Some tracer);
  let t_start = now () in
  let deadline = t_start +. ctx.seconds in
  let client () =
    while now () < deadline do
      let index, image, expected, seed = next () in
      let o, latency = timed (fun () -> Service.infer svc ~seed image) in
      judge_outcome b ~index ~latency ~expected o;
      locked b (fun () ->
          outs := o :: !outs;
          if not (Float.is_nan o.Service.out_margin_bits) then
            margins := o.Service.out_margin_bits :: !margins)
    done
  in
  List.iter Thread.join (List.init pool_domains (fun _ -> Thread.create client ()));
  let window_s = now () -. t_start in
  Tracer.set_global None;
  let st = Service.stats svc in
  let part name = Stats.median (List.map (List.assoc name) !parts) in
  let queue = List.map (fun o -> o.Service.out_queue_ms) !outs in
  let service = List.map (fun o -> o.Service.out_total_ms -. o.Service.out_queue_ms) !outs in
  let layer =
    [
      ("core.compile_s", part "core.compile_s");
      ("serve.ladder_s", part "serve.ladder_s");
      ("crypto.rotation_keys", float_of_int (List.length compiled.C.rotations));
      ("serve.retries", float_of_int st.Service.s_retries);
      ("serve.shed", float_of_int st.Service.s_shed);
      ("serve.deadline_misses", float_of_int st.Service.s_deadline);
      ("serve.integrity_failures", float_of_int st.Service.s_integrity_failures);
      ("serve.degraded", float_of_int st.Service.s_degraded);
      ("serve.queue_ms_p50", median_or_zero queue);
      ("serve.service_ms_p50", median_or_zero service);
      (* the share of worker time spent serving *)
      ( "serve.busy_share",
        List.fold_left ( +. ) 0.0 service /. 1000.0 /. (float_of_int pool_domains *. window_s) );
      ( "integrity.margin_bits_min",
        match !margins with [] -> 0.0 | m :: ms -> List.fold_left Float.min m ms );
    ]
    @
    if not ctx.trace then []
    else begin
      export_trace ctx tracer "serve-verified";
      layer_times tracer ~per:(List.length !outs)
    end
  in
  Service.shutdown svc;
  finish b ~first:8 ~setups ~layer ~pool:pool_domains

let run ctx = function
  | "lenet5-small-plan" -> lenet ctx
  | "serve-verified" -> serve_verified ctx
  | w -> invalid_arg ("unknown workload " ^ w)

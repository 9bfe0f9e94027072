(* What chetbench measures: the workloads and the metric table. BENCHMARK.json
   at the repository root mirrors these lists; --compare takes its bounds and
   directions from here. *)

type metric = { name : string; unit_ : string; better : Stats.better; bound : float option }

let m ?bound name unit_ better = { name; unit_; better; bound }

(* Reported by every workload on an untraced run. [bound] is the share of the
   base median by which the metric may worsen before --compare calls it a
   regression; it is also the run-to-run spread the metric must stay under. *)
let end_to_end =
  Stats.
    [
      m "latency_s_p25" "s" Lower ~bound:0.25;
      m "setup_s" "s" Lower ~bound:0.25;
      m "precision_bits_p50" "bits" Higher ~bound:0.25;
      m "peak_rss_mb" "MB" Lower ~bound:0.15;
    ]

(* HISA op classes of the traced lenet run, in the order the report lists them. *)
let op_classes = [ "rotate"; "mul"; "mul_plain"; "rescale"; "add"; "encode"; "encrypt"; "decrypt" ]

(* Layer classes that per-step (plan) and per-node (executor) spans fold into. *)
let layer_classes = [ "conv2d"; "matmul"; "act"; "pool"; "other" ]

(* Reported by every workload on a traced run; 0 where the workload does not
   exercise the layer (README.md lists which workload moves which metric). *)
let per_layer =
  Stats.(
    [
      m "core.compile_s" "s" Lower;
      m "core.predicted_over_measured" "ratio" Lower;
      m "crypto.keygen_s" "s" Lower;
      m "crypto.rotation_keys" "count" Lower;
      m "plan.build_s" "s" Lower;
      m "plan.prepare_s" "s" Lower;
      m "plan.warmup_s" "s" Lower;
      m "plan.evaluate_s" "s" Lower;
      m "plan.steps" "count" Lower;
      m "plan.arena" "count" Lower;
      m "plan.fused_rot_acc" "count" Higher;
      m "plan.fused_mul_acc" "count" Higher;
      m "plan.fused_mul_rescale" "count" Higher;
      m "runtime.encrypt_s" "s" Lower;
      m "runtime.decrypt_s" "s" Lower;
      m "runtime.alloc_mwords" "Mwords" Lower;
      m "serve.ladder_s" "s" Lower;
      m "serve.queue_ms_p50" "ms" Lower;
      m "serve.service_ms_p50" "ms" Lower;
      m "serve.busy_share" "ratio" Lower;
      m "serve.retries" "count" Lower;
      m "serve.shed" "count" Lower;
      m "serve.deadline_misses" "count" Lower;
      m "serve.integrity_failures" "count" Lower;
      m "serve.degraded" "count" Lower;
      m "integrity.margin_bits_min" "bits" Higher;
      m "oracle.failed_share" "ratio" Lower;
      m "obs.trace_overhead" "ratio" Lower;
    ]
    @ List.map (fun c -> m ("hisa.ops." ^ c) "count" Lower) op_classes
    @ List.map (fun c -> m ("hisa.busy_s." ^ c) "s" Lower) op_classes
    @ List.map (fun c -> m ("layer_s." ^ c) "s" Lower) layer_classes)

let find name = List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)

type workload = { w_name : string; w_why : string }

let workloads =
  [
    {
      w_name = "lenet5-small-plan";
      w_why =
        "smallest paper network on the real RNS-CKKS backend through the compiled plan: key \
         switching in its fused rotate-accumulates takes most of the time, so ring and plan \
         changes show";
    };
    {
      w_name = "serve-verified";
      w_why =
        "closed-loop serving with every answer checked through its sentinel lane, which runs the \
         interpretive executor and Integrity, not the plan, so a plan-only change must leave it \
         unchanged";
    };
  ]

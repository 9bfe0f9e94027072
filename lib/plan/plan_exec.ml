(* Executes a [Plan.t] against a HISA backend (DESIGN.md §14) — the one
   executor: deployments run it over real scheme backends, the compiler's
   analyses over the shape/simulation/instrumented backends (§5.1).

   [prepare] is the expensive, per-deployment half: it walks the schedule
   once, building a staged closure per step through the prepare-once kernels
   of {!Chet_runtime.Kernels.Make} — weight and mask plaintexts encoded up
   front (under a plaintext budget), geometry and shape checks done,
   accumulation dispatched through the fused HISA ops. [run] replays the
   closures over a fixed ciphertext arena; released slots are dropped
   immediately, so live ciphertext memory is bounded by the arena high-water
   mark instead of the circuit size. *)

module Hisa = Chet_hisa.Hisa
module Herr = Chet_hisa.Herr
module Cancel = Chet_hisa.Cancel
module Circuit = Chet_nn.Circuit
module Tensor = Chet_tensor.Tensor
module Layout = Chet_runtime.Layout
module Kernels = Chet_runtime.Kernels
module Tracer = Chet_obs.Tracer
module Metrics = Chet_obs.Metrics

let err ~op e = Herr.raise_err ~backend:"plan" ~op e

(* arena gauges: size of the last prepared plan's arena, and the live-slot
   high-water mark of the last plan execution *)
let arena_slots_gauge =
  lazy (Metrics.gauge Metrics.default ~help:"ciphertext arena size of the active plan" "chet_plan_arena_slots")

let arena_live_gauge =
  lazy
    (Metrics.gauge Metrics.default ~help:"live arena slots, high-water mark of the last run"
       "chet_plan_arena_live_hwm")

(* Sentinel threading (DESIGN.md §16): [sn_probe] is the known input packed
   into the twin slots at encrypt time; [sn_verify] receives the decrypted
   twin tensor after the run and raises a typed [Herr.Integrity_violation]
   if it strays from the clear-reference prediction. The executor stays
   policy-free: what "too far" means belongs to the caller (lib/core's
   Integrity module). *)
type sentinel = {
  sn_probe : Tensor.t;
  sn_verify : Tensor.t -> unit;
}

type runner = ?cancel:Cancel.t -> ?sentinel:sentinel -> Tensor.t -> Tensor.t

module Make (H : Hisa.S) = struct
  module K = Kernels.Make (H)

  type prepared = {
    pr_plan : Plan.t;
    pr_cfg : Kernels.scales;
    pr_execs : (K.ct_tensor option array -> K.ct_tensor -> K.ct_tensor) array;
        (** per step: (arena, external input) -> result *)
  }

  let plan prepared = prepared.pr_plan

  let prepare ?(pt_budget = 2048) cfg (plan : Plan.t) =
    if H.slots <> plan.Plan.p_slots then
      err ~op:"prepare"
        (Herr.Invalid_op
           {
             reason =
               Printf.sprintf "plan compiled for %d slots but backend has %d" plan.Plan.p_slots
                 H.slots;
           });
    (match Plan.validate plan with
    | Ok () -> ()
    | Error reason -> err ~op:"prepare" (Herr.Invalid_op { reason = "invalid plan: " ^ reason }));
    let budget = ref pt_budget in
    let mul_rescale = ref 0 and rot_acc = ref 0 and mul_acc = ref 0 in
    let slot_meta : Layout.meta option array = Array.make plan.Plan.p_arena None in
    let src_meta (st : Plan.step) i =
      match slot_meta.(st.Plan.st_srcs.(i)) with
      | Some m -> m
      | None -> assert false (* validate: every read slot is live *)
    in
    let get (arena : K.ct_tensor option array) s =
      match arena.(s) with
      | Some v -> v
      | None ->
          err ~op:"exec"
            (Herr.Invalid_op { reason = Printf.sprintf "read of released arena slot %d" s })
    in
    let of_staged (st : Plan.step) (sg : K.op) =
      mul_rescale := !mul_rescale + sg.K.sg_mul_rescale;
      rot_acc := !rot_acc + sg.K.sg_rot_acc;
      mul_acc := !mul_acc + sg.K.sg_mul_acc;
      let s0 = if Array.length st.Plan.st_srcs > 0 then st.Plan.st_srcs.(0) else -1 in
      fun arena _input -> sg.K.sg_run (get arena s0)
    in
    let execs =
      Array.map
        (fun (st : Plan.step) ->
          let exec =
            Herr.with_node ~node_id:st.Plan.st_node.Circuit.id
              ~layer:(Layout.op_name st.Plan.st_node)
              (fun () ->
                match st.Plan.st_op with
                | Plan.Op_convert k ->
                    of_staged st (K.convert cfg ~meta:(src_meta st 0) ~budget ~to_kind:k)
                | Plan.Op_node -> begin
                    match st.Plan.st_node.Circuit.op with
                    | Circuit.Input _ ->
                        let expected = st.Plan.st_meta in
                        fun _arena input ->
                          if input.K.meta <> expected then
                            err ~op:"exec"
                              (Herr.Invalid_op
                                 { reason = "input encrypted at a layout other than the plan's" });
                          input
                    | Circuit.Conv2d { weights; bias; stride; padding; _ } ->
                        of_staged st
                          (K.conv2d cfg ~meta:(src_meta st 0) ~budget ~weights ~bias ~stride
                             ~padding)
                    | Circuit.MatMul { weights; bias; _ } ->
                        of_staged st
                          (K.matmul cfg ~meta:(src_meta st 0) ~budget ~weights ~bias
                             ~last:st.Plan.st_last)
                    | Circuit.AvgPool { ksize; stride; _ } ->
                        of_staged st (K.avg_pool cfg ~meta:(src_meta st 0) ~budget ~ksize ~stride)
                    | Circuit.GlobalAvgPool _ ->
                        of_staged st (K.global_avg_pool cfg ~meta:(src_meta st 0) ~budget)
                    | Circuit.PolyAct { a; b; _ } -> of_staged st (K.poly_act cfg ~a ~b)
                    | Circuit.Square _ -> of_staged st (K.square cfg)
                    | Circuit.BatchNorm { scale; shift; _ } ->
                        of_staged st (K.batch_norm cfg ~meta:(src_meta st 0) ~budget ~scale ~shift)
                    | Circuit.Flatten _ -> of_staged st K.flatten
                  end)
          in
          slot_meta.(st.Plan.st_dst) <- Some st.Plan.st_meta;
          exec)
        plan.Plan.p_steps
    in
    (* fusion counts are static per plan, so overwriting (rather than
       accumulating) keeps repeated prepares — one per worker — idempotent *)
    plan.Plan.p_stats.Plan.fused_mul_rescale <- !mul_rescale;
    plan.Plan.p_stats.Plan.fused_rot_acc <- !rot_acc;
    plan.Plan.p_stats.Plan.fused_mul_acc <- !mul_acc;
    Metrics.set_gauge (Lazy.force arena_slots_gauge) (float_of_int plan.Plan.p_arena);
    { pr_plan = plan; pr_cfg = cfg; pr_execs = execs }

  (* [cancel] is polled at every step boundary — the same granularity the
     per-step spans hook — so a tripped token frees the worker within one
     step instead of one full inference (DESIGN.md §13). The poll raises the
     typed [Herr.Cancelled] carrying the node at which it fired. *)
  let run_encrypted ?cancel prepared (input : K.ct_tensor) =
    let plan = prepared.pr_plan in
    let arena : K.ct_tensor option array = Array.make plan.Plan.p_arena None in
    let live = ref 0 and hwm = ref 0 in
    Array.iteri
      (fun i (st : Plan.step) ->
        (match cancel with
        | Some tok ->
            Cancel.check tok ~node_id:st.Plan.st_node.Circuit.id
              ~layer:(Layout.op_name st.Plan.st_node)
        | None -> ());
        let compute () =
          Herr.with_node ~node_id:st.Plan.st_node.Circuit.id
            ~layer:(Layout.op_name st.Plan.st_node)
            (fun () -> prepared.pr_execs.(i) arena input)
        in
        let result =
          (* one span per plan step when tracing is on: step, node, layer,
             layout, arena slot and — annotated after the step ran — the
             HISA op count attributable to it plus the result's scale and
             remaining modulus level. Disabled tracing costs one atomic load
             per step. *)
          if not (Tracer.enabled ()) then compute ()
          else
            Tracer.with_span ~cat:"plan"
              ~attrs:
                [
                  ("step", Tracer.Int st.Plan.st_id);
                  ("node_id", Tracer.Int st.Plan.st_node.Circuit.id);
                  ("layer", Tracer.Str (Layout.op_name st.Plan.st_node));
                  ("layout", Tracer.Str (match st.Plan.st_kind with Layout.HW -> "HW" | Layout.CHW -> "CHW"));
                  ("slot", Tracer.Int st.Plan.st_dst);
                ]
              (match st.Plan.st_op with
              | Plan.Op_convert Layout.HW -> "convert->HW"
              | Plan.Op_convert Layout.CHW -> "convert->CHW"
              | Plan.Op_node -> Layout.op_name st.Plan.st_node)
              (fun () ->
                let ops0 = Tracer.op_count () in
                let r = compute () in
                Tracer.annotate "ops" (Tracer.Int (Tracer.op_count () - ops0));
                if Array.length r.K.cts > 0 then begin
                  Tracer.annotate "scale" (Tracer.Float (H.scale_of r.K.cts.(0)));
                  let env = H.env_of r.K.cts.(0) in
                  Tracer.annotate "level"
                    (Tracer.Int
                       (if env.Hisa.env_r > 0 then env.Hisa.env_r else env.Hisa.env_log_q))
                end;
                r)
        in
        arena.(st.Plan.st_dst) <- Some result;
        incr live;
        if !live > !hwm then hwm := !live;
        Array.iter
          (fun s ->
            arena.(s) <- None;
            decr live)
          st.Plan.st_release)
      plan.Plan.p_steps;
    Metrics.set_gauge (Lazy.force arena_live_gauge) (float_of_int !hwm);
    match arena.(plan.Plan.p_output) with
    | Some v -> v
    | None ->
        err ~op:"run" (Herr.Invalid_op { reason = "plan output slot empty after the last step" })

  (* Full client–server roundtrip on a cleartext image: encrypt at the
     plan's input layout (with the sentinel probe in the twin slots), run,
     decrypt, and verify the sentinel lane before the answer is released. *)
  let run ?cancel ?sentinel prepared image =
    let probe = Option.map (fun s -> s.sn_probe) sentinel in
    let encrypted =
      K.encrypt_tensor ?probe prepared.pr_cfg prepared.pr_plan.Plan.p_input_meta image
    in
    let out = run_encrypted ?cancel prepared encrypted in
    match sentinel with
    | None -> K.decrypt_tensor out
    | Some s ->
        let primary, twin_out = K.decrypt_parts out in
        (match twin_out with
        | Some t -> s.sn_verify t
        | None ->
            err ~op:"sentinel"
              (Herr.Invalid_op { reason = "output layout lost its twin slots" }));
        primary

  (* Build, prepare and run in one call, for one-off inferences; a sentinel
     selects the twin layout. A budget of 0 encodes each plaintext where it
     is used, so a single run holds no more plaintexts than it needs at
     once. *)
  let eval ?sentinel cfg circuit ~policy image =
    let plan = Plan.build ~twin:(sentinel <> None) ~slots:H.slots ~policy circuit in
    run ?sentinel (prepare ~pt_budget:0 cfg plan) image
end

let prepare_runner ?pt_budget (backend : Hisa.t) cfg plan : runner =
  let module H = (val backend) in
  let module PE = Make (H) in
  let prepared = PE.prepare ?pt_budget cfg plan in
  fun ?cancel ?sentinel image -> PE.run ?cancel ?sentinel prepared image

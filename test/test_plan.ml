(* Compiled execution plans (DESIGN.md §14): arena-liveness invariants on
   built plans, slot-reuse behaviour, and the validation that refuses a
   mangled schedule before any ciphertext touches it. *)

module Plan = Chet_plan.Plan
module Plan_exec = Chet_plan.Plan_exec
module Hisa = Chet_hisa.Hisa
module Clear = Chet_hisa.Clear_backend
module Kernels = Chet_runtime.Kernels
module Layout = Chet_runtime.Layout
module Circuit = Chet_nn.Circuit
module Models = Chet_nn.Models
module T = Chet_tensor.Tensor
module Dataset = Chet_tensor.Dataset

let slots = 2048

let plan_of ?(policy = Layout.Hw_conv_chw_rest) circuit = Plan.build ~slots ~policy circuit

let micro_plan () = plan_of (Models.micro.Models.build ())

(* --- liveness / arena invariants --------------------------------------- *)

(* Replay the schedule by hand (independently of [Plan.validate]) and check
   the invariant the arena executor relies on: a slot is never read after
   being released, until some later step rewrites it. *)
let check_no_read_after_release (p : Plan.t) =
  let live = Array.make p.Plan.p_arena false in
  Array.iter
    (fun (st : Plan.step) ->
      Array.iter
        (fun s ->
          if not live.(s) then
            Alcotest.failf "step %d reads slot %d after release" st.Plan.st_id s)
        st.Plan.st_srcs;
      if live.(st.Plan.st_dst) then
        Alcotest.failf "step %d overwrites live slot %d" st.Plan.st_id st.Plan.st_dst;
      live.(st.Plan.st_dst) <- true;
      Array.iter
        (fun s ->
          if s = st.Plan.st_dst then
            Alcotest.failf "step %d releases its own destination" st.Plan.st_id;
          live.(s) <- false)
        st.Plan.st_release)
    p.Plan.p_steps;
  Alcotest.(check bool) "output live" true live.(p.Plan.p_output)

let test_liveness_invariants () =
  List.iter
    (fun (spec : Models.spec) ->
      let circuit = spec.Models.build () in
      List.iter
        (fun policy ->
          List.iter
            (fun twin ->
              let p = Plan.build ~twin ~slots ~policy circuit in
              (match Plan.validate p with
              | Ok () -> ()
              | Error r ->
                  Alcotest.failf "%s, %s, twin=%b: invalid plan: %s" spec.Models.model_name
                    (Layout.policy_name policy) twin r);
              check_no_read_after_release p)
            [ false; true ])
        Layout.all_policies)
    (* the models whose twin layout fits 2048 slots *)
    [ Models.micro; Models.lenet5_small; Models.lenet5_medium ]

let test_arena_reuse () =
  (* a deep elementwise chain keeps exactly one value alive at a time: the
     arena must stay tiny no matter how long the chain gets *)
  let b = Circuit.builder () in
  let x = ref (Circuit.input b ~name:"x" [| 1; 8; 8 |]) in
  for _ = 1 to 12 do
    x := Circuit.square b !x
  done;
  let circuit = Circuit.finish b ~name:"chain" ~output:!x in
  let p = plan_of circuit in
  Alcotest.(check bool) "steps cover the chain" true (Array.length p.Plan.p_steps >= 13);
  if p.Plan.p_arena > 2 then
    Alcotest.failf "square chain needs %d arena slots (expected <= 2)" p.Plan.p_arena;
  check_no_read_after_release p

let test_validate_rejects_mangled () =
  let p = micro_plan () in
  let with_steps steps = { p with Plan.p_steps = steps } in
  let expect_error what p' =
    match Plan.validate p' with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "validate accepted %s" what
  in
  (* read of a slot that was never written *)
  let steps = Array.map Fun.id p.Plan.p_steps in
  steps.(0) <- { steps.(0) with Plan.st_srcs = [| p.Plan.p_arena - 1 |] };
  expect_error "a read of a dead slot" (with_steps steps);
  (* a step releasing its own destination *)
  let steps = Array.map Fun.id p.Plan.p_steps in
  steps.(1) <- { steps.(1) with Plan.st_release = [| steps.(1).Plan.st_dst |] };
  expect_error "a step releasing its own destination" (with_steps steps);
  (* an out-of-range destination *)
  let steps = Array.map Fun.id p.Plan.p_steps in
  steps.(0) <- { steps.(0) with Plan.st_dst = p.Plan.p_arena };
  expect_error "an out-of-range destination" (with_steps steps);
  (* a released output: any slot other than the real output is dead after the
     last step (the schedule frees everything it no longer needs) *)
  expect_error "a dead output slot"
    { p with Plan.p_output = (p.Plan.p_output + 1) mod p.Plan.p_arena }

(* The executor's own guard: a hand-mangled plan that reads a released slot
   must be refused at prepare time (validate runs there), not crash mid-run. *)
let test_prepare_rejects_invalid () =
  let p = micro_plan () in
  let steps = Array.map Fun.id p.Plan.p_steps in
  let last = Array.length steps - 1 in
  steps.(last) <- { steps.(last) with Plan.st_srcs = [| p.Plan.p_arena - 1 |] } ;
  let mangled = { p with Plan.p_steps = steps } in
  let module H =
    (val Clear.make
           {
             Clear.slots;
             scheme = Hisa.Rns_chain (Array.make 64 ((1 lsl 30) - 35));
             strict_modulus = false;
             encode_noise = false;
           })
  in
  let module PE = Plan_exec.Make (H) in
  match PE.prepare Kernels.default_scales mangled with
  | _ -> Alcotest.fail "prepare accepted an invalid plan"
  | exception Chet_hisa.Herr.Fhe_error (Chet_hisa.Herr.Invalid_op _, _) -> ()

let suite =
  [
    ( "plan",
      [
        Alcotest.test_case "liveness invariants on built plans" `Quick test_liveness_invariants;
        Alcotest.test_case "arena reuse bounds a deep chain" `Quick test_arena_reuse;
        Alcotest.test_case "validate rejects mangled schedules" `Quick test_validate_rejects_mangled;
        Alcotest.test_case "prepare refuses an invalid plan" `Quick test_prepare_rejects_invalid;
      ] );
  ]

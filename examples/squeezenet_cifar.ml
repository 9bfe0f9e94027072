(* SqueezeNet-CIFAR — the deepest network the paper evaluates ("to the best
   of our knowledge, the deepest neural network to be homomorphically
   evaluated", §6). This example shows the full compile → simulate pipeline
   at that scale: per-layout parameter/cost exploration, the chosen
   configuration, and a simulated encrypted inference with latency and HISA
   operation statistics.

   Run with: dune exec examples/squeezenet_cifar.exe *)

module Compiler = Chet.Compiler
module Executor = Chet_runtime.Executor
module Models = Chet_nn.Models
module Reference = Chet_nn.Reference
module Circuit = Chet_nn.Circuit
module Opcount = Chet_nn.Opcount
module Sim = Chet_hisa.Sim_backend
module Instrument = Chet_hisa.Instrument
module Hisa = Chet_hisa.Hisa
module T = Chet_tensor.Tensor

let () =
  let spec = Models.squeezenet_cifar in
  let circuit = spec.Models.build () in
  let conv, fc, act = Circuit.layer_counts circuit in
  Printf.printf "Network: %s (%d conv, %d fc, %d act layers; %d FP ops; depth %d)\n\n"
    spec.Models.model_name conv fc act (Opcount.count circuit).Opcount.total
    (Circuit.multiplicative_depth circuit);

  let opts = Compiler.default_options ~target:Compiler.Seal () in
  let compiled = Compiler.compile opts circuit in
  Format.printf "%a@." Compiler.pp_compiled compiled;

  (* simulated encrypted inference with instrumented HISA stream *)
  let sim, clock =
    Sim.make_with_values
      {
        Sim.n = Compiler.params_n compiled.Compiler.params;
        scheme = Compiler.scheme_of_params opts compiled.Compiler.params;
        costs = Chet.Cost_model.seal ();
      }
  in
  let backend, counters = Instrument.wrap sim in
  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let image = Models.input_for spec ~seed:99 in
  let got = E.eval opts.Compiler.scales circuit ~policy:compiled.Compiler.policy image in
  let expected = Reference.eval circuit image in
  Printf.printf "simulated latency: %.1f s\n" clock.Sim.elapsed;
  Printf.printf "HISA ops: %d rotations (%d distinct), %d ct-muls, %d plain-muls, %d scalar-muls, %d adds\n"
    (Instrument.total_rotations counters)
    (List.length (Instrument.distinct_rotations counters))
    counters.Instrument.ct_muls counters.Instrument.plain_muls counters.Instrument.scalar_muls
    counters.Instrument.adds;
  Printf.printf "class (encrypted sim) = %d, (cleartext) = %d, max |err| = %.5f\n" (T.argmax got)
    (T.argmax expected)
    (T.max_abs_diff (T.flatten expected) (T.flatten got))

(* Compile and simulate a circuit written in the textual format — the
   workflow of Figure 2 with the circuit coming from a file instead of the
   OCaml builder API.

   Run with: dune exec examples/dsl_circuit.exe [-- path/to/circuit.chet] *)

module Parser = Chet_dsl.Parser
module Compiler = Chet.Compiler
module Executor = Chet_runtime.Executor
module Reference = Chet_nn.Reference
module Circuit = Chet_nn.Circuit
module Dataset = Chet_tensor.Dataset
module Sim = Chet_hisa.Sim_backend
module Hisa = Chet_hisa.Hisa
module T = Chet_tensor.Tensor

let default_path = "examples/circuits/mnist_cnn.chet"

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else default_path in
  let path = if Sys.file_exists path then path else Filename.concat (Sys.getcwd ()) path in
  let circuit =
    try Parser.parse_file path
    with Parser.Parse_error (msg, line, col) ->
      Printf.eprintf "%s:%d:%d: %s\n" path line col msg;
      exit 1
  in
  Printf.printf "parsed %s (%d nodes)\n" circuit.Circuit.name circuit.Circuit.node_count;
  let opts = Compiler.default_options ~target:Compiler.Seal () in
  let compiled = Compiler.compile opts circuit in
  Format.printf "%a@." Compiler.pp_compiled compiled;
  let backend, clock =
    Sim.make_with_values
      {
        Sim.n = Compiler.params_n compiled.Compiler.params;
        scheme = Compiler.scheme_of_params opts compiled.Compiler.params;
        costs = Chet.Cost_model.seal ();
      }
  in
  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let shape = circuit.Circuit.input.Circuit.shape in
  let image = Dataset.image ~seed:5 ~channels:shape.(0) ~height:shape.(1) ~width:shape.(2) in
  let got = E.eval opts.Compiler.scales circuit ~policy:compiled.Compiler.policy image in
  let expected = Reference.eval circuit image in
  Printf.printf "simulated latency %.1f s; class=%d (clear %d); max |err|=%.5f\n" clock.Sim.elapsed
    (T.argmax got) (T.argmax expected)
    (T.max_abs_diff (T.flatten expected) (T.flatten got))

(* LeNet-5 on encrypted MNIST-shaped images — the paper's introductory
   workload. Compiles LeNet-5-small for both targets, prints the compiler's
   choices per layout (the §6 exploration), then runs an encrypted inference
   on the real RNS-CKKS backend and checks fidelity against cleartext.

   Run with: dune exec examples/lenet_inference.exe [-- --real] *)

module Compiler = Chet.Compiler
module Executor = Chet_runtime.Executor
module Models = Chet_nn.Models
module Reference = Chet_nn.Reference
module Opcount = Chet_nn.Opcount
module T = Chet_tensor.Tensor
module Hisa = Chet_hisa.Hisa

let () =
  let run_real = Array.exists (( = ) "--real") Sys.argv in
  let spec = Models.lenet5_small in
  let circuit = spec.Models.build () in
  let ops = Opcount.count circuit in
  Printf.printf "Network: %s — %s\n" spec.Models.model_name spec.Models.description;
  Printf.printf "FP operations: %d (%d multiplies, %d additions)\n\n" ops.Opcount.total
    ops.Opcount.multiplies ops.Opcount.additions;
  List.iter
    (fun target ->
      let opts = Compiler.default_options ~target () in
      let compiled = Compiler.compile opts circuit in
      Format.printf "%a@." Compiler.pp_compiled compiled)
    [ Compiler.Seal; Compiler.Heaan ];
  if run_real then begin
    print_endline "Running one encrypted inference on the real RNS-CKKS backend…";
    let opts = Compiler.default_options ~target:Compiler.Seal () in
    let compiled = Compiler.compile opts circuit in
    let backend = Compiler.instantiate compiled ~seed:11 ~with_secret:true () in
    let module H = (val backend : Hisa.S) in
    let module E = Chet_plan.Plan_exec.Make (H) in
    let image = Models.input_for spec ~seed:3 in
    let t0 = Unix.gettimeofday () in
    let got = E.eval opts.Compiler.scales circuit ~policy:compiled.Compiler.policy image in
    Printf.printf "latency: %.1f s; max |err| = %.5f; class enc=%d clear=%d\n"
      (Unix.gettimeofday () -. t0)
      (T.max_abs_diff (T.flatten (Reference.eval circuit image)) (T.flatten got))
      (T.argmax got)
      (T.argmax (Reference.eval circuit image))
  end
  else print_endline "(pass --real to also run a full encrypted inference — takes minutes)"

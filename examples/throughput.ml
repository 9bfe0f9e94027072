(* Throughput vs latency (§3.2): CHET optimises single-image latency, but
   compilation and key generation amortise over many images — compile once,
   generate keys once, then stream encrypted inferences. This example runs a
   small batch through the real RNS-CKKS backend and reports the amortised
   cost breakdown.

   Run with: dune exec examples/throughput.exe *)

module Compiler = Chet.Compiler
module Executor = Chet_runtime.Executor
module Models = Chet_nn.Models
module Reference = Chet_nn.Reference
module Hisa = Chet_hisa.Hisa
module Herr = Chet_hisa.Herr
module T = Chet_tensor.Tensor

let () =
  let spec = Models.micro in
  let circuit = spec.Models.build () in
  let opts = Compiler.default_options ~target:Compiler.Seal () in

  let t0 = Unix.gettimeofday () in
  let compiled = Compiler.compile opts circuit in
  let t_compile = Unix.gettimeofday () -. t0 in

  let t0 = Unix.gettimeofday () in
  let backend = Compiler.instantiate compiled ~seed:3 ~with_secret:true () in
  let t_keygen = Unix.gettimeofday () -. t0 in

  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let batch = 3 in
  let correct = ref 0 in
  let failed = ref 0 in
  let t0 = Unix.gettimeofday () in
  (* per-image failure isolation — the serving layer's semantics in
     miniature: one corrupt or over-budget inference is a typed, countable
     event in the batch report, never an abort of the whole stream *)
  for i = 1 to batch do
    let image = Models.input_for spec ~seed:(100 + i) in
    match E.eval opts.Compiler.scales circuit ~policy:compiled.Compiler.policy image with
    | got -> if T.argmax got = T.argmax (Reference.eval circuit image) then incr correct
    | exception Herr.Fhe_error (e, c) ->
        incr failed;
        Printf.eprintf "image %d failed: %s\n%!" i (Herr.to_string (e, c))
  done;
  let t_infer = Unix.gettimeofday () -. t0 in
  let ok = batch - !failed in
  Printf.printf
    "compile: %.1f s (once)\n\
     keygen:  %.1f s (once)\n\
     inference: %.1f s / image over %d images (%d ok, %d failed; %d/%d classes match cleartext)\n"
    t_compile t_keygen
    (t_infer /. float_of_int (Stdlib.max 1 ok))
    batch ok !failed !correct ok

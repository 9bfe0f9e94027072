(* The paper's motivating scenario (§1, §6): a hospital offloads inference on
   privacy-sensitive scans to an untrusted cloud. This example plays both
   sides of Figure 3 explicitly:

   - the CLIENT compiles the circuit, generates keys, encrypts a scan, and
     later decrypts the prediction;
   - the SERVER holds only public material (no secret key — calling
     [decrypt] there fails) and evaluates the Industrial network
     homomorphically under the simulation backend, which also reports the
     latency the cost-calibrated clock predicts.

   Run with: dune exec examples/medical_imaging.exe
   (the simulated evaluation carries real values at N=32768, so expect a few
   minutes of wall-clock for the full Industrial network) *)

module Compiler = Chet.Compiler
module Kernels = Chet_runtime.Kernels
module Models = Chet_nn.Models
module Reference = Chet_nn.Reference
module Sim = Chet_hisa.Sim_backend
module Hisa = Chet_hisa.Hisa
module T = Chet_tensor.Tensor

let () =
  let spec = Models.industrial in
  let circuit = spec.Models.build () in
  Printf.printf "Network: %s — %s\n\n" spec.Models.model_name spec.Models.description;

  (* client side: compile against the SEAL-style target *)
  let opts = Compiler.default_options ~target:Compiler.Seal () in
  let compiled = Compiler.compile opts circuit in
  Format.printf "%a@." Compiler.pp_compiled compiled;

  (* server side: simulated evaluation with the calibrated clock *)
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
  let scan = Models.input_for spec ~seed:2024 in
  let prediction = E.eval opts.Compiler.scales circuit ~policy:compiled.Compiler.policy scan in
  let reference = Reference.eval circuit scan in
  Printf.printf "simulated server latency: %.1f s over %d HISA ops\n" clock.Sim.elapsed
    clock.Sim.op_count;
  Printf.printf "diagnosis scores (encrypted): [%.4f; %.4f]  (cleartext: [%.4f; %.4f])\n"
    prediction.T.data.(0) prediction.T.data.(1) reference.T.data.(0) reference.T.data.(1);
  Printf.printf "max |err| = %.6f\n" (T.max_abs_diff (T.flatten reference) (T.flatten prediction));

  (* demonstrate that the server genuinely cannot decrypt: a backend built
     without the secret key refuses *)
  let server_only = Compiler.instantiate compiled ~seed:1 ~with_secret:false () in
  let module S = (val server_only : Hisa.S) in
  let ct = S.encrypt (S.encode [| 1.0 |] ~scale:opts.Compiler.scales.Kernels.pc) in
  (try
     ignore (S.decrypt ct);
     print_endline "BUG: server decrypted!"
   with Failure msg -> Printf.printf "server decrypt attempt: refused (%s)\n" msg)

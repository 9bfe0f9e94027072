(* Quickstart: the smallest useful tour of the library.

   1. Drive the HISA directly over real RNS-CKKS: encrypt a vector, rotate,
      multiply, decrypt (the Figure 1 flavour of SIMD FHE programming).
   2. Let the CHET compiler handle a real (tiny) network end-to-end:
      parameter selection, layout selection, rotation keys, encrypted
      inference — and compare against the cleartext reference.

   Run with: dune exec examples/quickstart.exe *)

module C = Chet_crypto.Rns_ckks
module Sampling = Chet_crypto.Sampling
module Hisa = Chet_hisa.Hisa
module Compiler = Chet.Compiler
module Executor = Chet_runtime.Executor
module Models = Chet_nn.Models
module Reference = Chet_nn.Reference
module T = Chet_tensor.Tensor

let part1_hisa () =
  print_endline "== Part 1: the HISA over real RNS-CKKS ==";
  let params = C.default_params ~n:2048 ~bits:30 ~num_coeff_primes:4 () in
  let ctx = C.make_context params in
  let rng = Sampling.create ~seed:42 in
  let sk, keys = C.keygen ctx rng in
  C.add_rotation_key ctx rng sk keys 1;
  let backend =
    Chet_hisa.Seal_backend.make { Chet_hisa.Seal_backend.ctx; rng; keys; secret = Some sk }
  in
  let module H = (val backend : Hisa.S) in
  (* a, b live in the first 4 slots of a 1024-wide SIMD vector *)
  let a = H.encrypt (H.encode [| 1.0; 2.0; 3.0; 4.0 |] ~scale:(1 lsl 30)) in
  let b = H.encrypt (H.encode [| 10.0; 20.0; 30.0; 40.0 |] ~scale:(1 lsl 30)) in
  let product = H.mul a b in
  let rotated = H.rot_left product 1 in
  let result = H.decode (H.decrypt rotated) in
  Printf.printf "   (a*b) <<1  = [%.2f; %.2f; %.2f; ...] (expect [40; 90; 160])\n" result.(0)
    result.(1) result.(2)

let part2_compiler () =
  print_endline "== Part 2: compiling and running a network homomorphically ==";
  let spec = Models.micro in
  let circuit = spec.Models.build () in
  let opts = Compiler.default_options ~target:Compiler.Seal () in
  let compiled = Compiler.compile opts circuit in
  Format.printf "%a@." Compiler.pp_compiled compiled;
  let backend = Compiler.instantiate compiled ~seed:7 ~with_secret:true () in
  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  let image = Models.input_for spec ~seed:1 in
  let t0 = Unix.gettimeofday () in
  let encrypted_result = E.eval opts.Compiler.scales circuit ~policy:compiled.Compiler.policy image in
  let dt = Unix.gettimeofday () -. t0 in
  let reference = Reference.eval circuit image in
  Printf.printf "   encrypted inference: %.2f s, max |err| vs cleartext = %.6f\n" dt
    (T.max_abs_diff (T.flatten reference) (T.flatten encrypted_result));
  Printf.printf "   predicted class (encrypted) = %d, (cleartext) = %d\n"
    (T.argmax encrypted_result) (T.argmax reference)

let () =
  part1_hisa ();
  part2_compiler ()

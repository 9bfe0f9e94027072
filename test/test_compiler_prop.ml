(* Property-style tests of compiler invariants: parameter selection must be
   monotone in circuit depth and scale sizes, always security-table
   compliant, and rotation-key selection must be sound (every rotation the
   runtime performs has a selected key) and minimal (no unused keys). *)

module Compiler = Chet.Compiler
module Layout = Chet_runtime.Layout
module Kernels = Chet_runtime.Kernels
module Models = Chet_nn.Models
module Circuit = Chet_nn.Circuit
module Security = Chet_crypto.Security
module Instrument = Chet_hisa.Instrument

let seal = Compiler.default_options ~target:Compiler.Seal ()
let heaan = Compiler.default_options ~target:Compiler.Heaan ()

let chain_circuit depth =
  let b = Circuit.builder () in
  let x = ref (Circuit.input b ~name:"x" [| 1; 8; 8 |]) in
  for _ = 1 to depth do
    x := Circuit.square b !x
  done;
  Circuit.finish b ~name:(Printf.sprintf "chain-%d" depth) ~output:!x

let test_params_monotone_in_depth () =
  List.iter
    (fun opts ->
      let prev = ref 0 in
      List.iter
        (fun depth ->
          let p = Compiler.select_params opts (chain_circuit depth) ~policy:Layout.All_hw in
          let logq = Compiler.params_log_q p in
          if logq < !prev then
            Alcotest.failf "logQ decreased with depth (%d -> %d at depth %d)" !prev logq depth;
          prev := logq)
        [ 1; 2; 4; 6; 8 ])
    [ seal; heaan ]

let test_params_monotone_in_scales () =
  (* doubling the working scale cannot shrink the selected modulus *)
  let circuit = chain_circuit 4 in
  let logq_at pc =
    let scales = { Kernels.default_scales with Kernels.pc } in
    Compiler.params_log_q
      (Compiler.select_params { seal with Compiler.scales } circuit ~policy:Layout.All_hw)
  in
  Alcotest.(check bool) "2^34 >= 2^30" true (logq_at (1 lsl 34) >= logq_at (1 lsl 30))

let test_security_invariant () =
  (* whatever the compiler selects must satisfy the security table it was
     asked to respect *)
  List.iter
    (fun spec ->
      let p =
        Compiler.select_params seal (spec.Models.build ()) ~policy:Layout.All_chw
      in
      let n = Compiler.params_n p and logq = Compiler.params_log_q p in
      Alcotest.(check bool)
        (spec.Models.model_name ^ " secure")
        true
        (logq <= Security.max_log_q Security.Bits128 n))
    [ Models.micro; Models.lenet5_small; Models.cryptonets ]

let test_rotation_keys_sound_and_minimal () =
  (* run the circuit and compare the rotations actually performed against the
     selected key set: equal as sets *)
  let circuit = Models.lenet5_small.Models.build () in
  List.iter
    (fun policy ->
      let params = Compiler.select_params seal circuit ~policy in
      let rotations, counters = Compiler.select_rotations seal circuit ~policy ~params in
      let selected = List.map fst rotations in
      let used = Instrument.distinct_rotations counters in
      let sort = List.sort compare in
      Alcotest.(check (list int))
        (Layout.policy_name policy)
        (sort used) (sort selected))
    Layout.all_policies

let test_rotation_keys_count_logarithmic () =
  (* §5.4: the selected keys are "a constant factor of log(N) in every
     case" — assert they stay well below the default 2·log2(N/2) x constant *)
  List.iter
    (fun spec ->
      let circuit = spec.Models.build () in
      let params = Compiler.select_params seal circuit ~policy:Layout.All_chw in
      let rotations, _ = Compiler.select_rotations seal circuit ~policy:Layout.All_chw ~params in
      let n = Compiler.params_n params in
      let log_n = int_of_float (Float.round (log (float_of_int n) /. log 2.0)) in
      let bound = 8 * log_n in
      if List.length rotations > bound then
        Alcotest.failf "%s: %d keys > %d (8 log N)" spec.Models.model_name
          (List.length rotations) bound)
    [ Models.micro; Models.lenet5_small; Models.cryptonets ]

let test_estimated_cost_monotone_in_n () =
  (* same circuit, larger ring: strictly more expensive *)
  let circuit = Models.micro.Models.build () in
  let params n =
    Compiler.Rns_params { n; prime_bits = 30; num_primes = 8; log_q = 270 }
  in
  let c1 = Compiler.estimate_cost seal circuit ~policy:Layout.All_hw ~params:(params 8192) in
  let c2 = Compiler.estimate_cost seal circuit ~policy:Layout.All_hw ~params:(params 16384) in
  Alcotest.(check bool) "monotone" true (c2 > c1)

let test_compilation_failure_reported () =
  (* an impossibly deep circuit must fail with the dedicated exception, not
     an obscure crash *)
  let circuit = chain_circuit 80 in
  Alcotest.(check bool) "raises Compilation_failure" true
    (try
       ignore (Compiler.compile seal circuit);
       false
     with Compiler.Compilation_failure _ -> true)

let test_cryptonets_compiles () =
  let compiled = Compiler.compile seal (Models.cryptonets.Models.build ()) in
  Alcotest.(check bool) "reasonable params" true
    (Compiler.params_n compiled.Compiler.params <= 32768)

let suite =
  [
    ( "compiler:props",
      [
        Alcotest.test_case "logQ monotone in depth" `Slow test_params_monotone_in_depth;
        Alcotest.test_case "logQ monotone in scales" `Quick test_params_monotone_in_scales;
        Alcotest.test_case "security invariant" `Slow test_security_invariant;
        Alcotest.test_case "rotation keys = used rotations" `Slow test_rotation_keys_sound_and_minimal;
        Alcotest.test_case "rotation keys O(log N)" `Slow test_rotation_keys_count_logarithmic;
        Alcotest.test_case "cost monotone in N" `Quick test_estimated_cost_monotone_in_n;
        Alcotest.test_case "compilation failure reported" `Quick test_compilation_failure_reported;
        Alcotest.test_case "CryptoNets compiles" `Slow test_cryptonets_compiles;
      ] );
  ]

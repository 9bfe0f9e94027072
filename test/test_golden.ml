(* Golden-output regression (DESIGN.md §14). The files under data/ were
   recorded from an independent executor before the compiled plan became
   the only one, and pin its answers bit for bit:

   - outputs.golden: exact float bits (%h) of micro, CryptoNets and
     LeNet-5-small under all four layout policies on the cleartext backend,
     and of micro on real RNS-CKKS at N = 2048 with a fixed key seed, with
     and without the sentinel lane (whose twin output is recorded too);
   - compiler.golden: what [Compiler.compile] chooses — policy, parameters,
     rotation keys, HISA op counts and every policy's estimated cost — for
     micro, CryptoNets and the five paper models, sentinel off and on, at
     the SEAL target, and for micro and LeNet-5-small at the HEAAN target
     (rows of model "<name>/heaan"). Costs
     may differ in the last bits (the fused kernels sum the simulated clock
     in a different order), so they compare to 1e-9 relative; plaintext
     encodes may only fall;
     Its [keyswitch] rows pin the rotations and relinearisations one
     inference of micro and LeNet-5-small performs at N = 2048, and its
     [keybytes] rows the bytes of their deployment's key-switching keys;
   - timed_cells.golden: the (op, env, count) cells the Timed interceptor
     records over one cleartext run of micro and of LeNet-5-small at their
     compiled parameters — which ops it times and at which modulus status.

   The three largest paper models take minutes to compile; they are checked
   only when CHET_GOLDEN_FULL is set. *)

module C = Chet.Compiler
module Layout = Chet_runtime.Layout
module Plan = Chet_plan.Plan
module Plan_exec = Chet_plan.Plan_exec
module M = Chet_nn.Models
module T = Chet_tensor.Tensor
module Clear = Chet_hisa.Clear_backend
module I = Chet.Integrity
module Ins = Chet_hisa.Instrument
module Hisa = Chet_hisa.Hisa
module Timed = Chet_hisa.Timed_backend

let lines_of file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let floats a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))

let params_str = function
  | C.Rns_params { n; prime_bits; num_primes; log_q } ->
      Printf.sprintf "rns:%d:%d:%d:%d" n prime_bits num_primes log_q
  | C.Pow2_params { n; log_fresh; log_special } -> Printf.sprintf "pow2:%d:%d:%d" n log_fresh log_special

(* --- outputs ----------------------------------------------------------- *)

let clear_lines (spec : M.spec) =
  let circuit = spec.M.build () in
  let compiled = C.compile (C.default_options ()) circuit in
  let image = M.input_for spec ~seed:1 in
  List.map
    (fun policy ->
      let params = (List.find (fun r -> r.C.pr_policy = policy) compiled.C.reports).C.pr_params in
      let slots = C.params_n params / 2 in
      let scheme = C.scheme_of_params compiled.C.opts params in
      let module H =
        (val Clear.make { Clear.slots; scheme; strict_modulus = false; encode_noise = false })
      in
      let module PE = Plan_exec.Make (H) in
      let out = PE.eval compiled.C.opts.C.scales circuit ~policy image in
      Printf.sprintf "clear %s %d %d %s" spec.M.model_name (C.policy_tag policy) slots
        (floats out.T.data))
    Layout.all_policies

(* the benchmark's ring pinning: same chain and policy at N = 2048, rotation
   keys selected again for the smaller slot count *)
let pin (compiled : C.compiled) =
  match compiled.C.params with
  | C.Rns_params p when p.n > 2048 ->
      let params = C.Rns_params { p with n = 2048 } in
      let rotations, op_counters =
        C.select_rotations compiled.C.opts compiled.C.circuit ~policy:compiled.C.policy ~params
      in
      { compiled with C.params; rotations; op_counters }
  | _ -> compiled

let real_lines sentinel =
  let circuit = M.micro.M.build () in
  let compiled = pin (C.compile { (C.default_options ()) with C.sentinel } circuit) in
  let backend = C.instantiate compiled ~seed:11 ~with_secret:true () in
  let module H = (val backend) in
  let module PE = Plan_exec.Make (H) in
  let image = M.input_for M.micro ~seed:1 in
  let twin = ref [||] in
  let s =
    if sentinel then Some (I.sentinel ~observe:(fun t -> twin := t.T.data) (I.spec_for circuit))
    else None
  in
  let out = PE.eval ?sentinel:s compiled.C.opts.C.scales circuit ~policy:compiled.C.policy image in
  Printf.sprintf "real micro %d %s" (if sentinel then 1 else 0) (floats out.T.data)
  :: (if sentinel then [ Printf.sprintf "real-twin micro 1 %s" (floats !twin) ] else [])

let check_lines what ~golden ~got =
  Alcotest.(check int) (what ^ ": line count") (List.length golden) (List.length got);
  List.iter2
    (fun g a ->
      if g <> a then
        Alcotest.failf "%s drifted from golden:\n  golden: %s\n  got:    %s" what
          (String.sub g 0 (Stdlib.min 160 (String.length g)))
          (String.sub a 0 (Stdlib.min 160 (String.length a))))
    golden got

let test_clear_outputs () =
  let golden =
    List.filter (fun l -> String.starts_with ~prefix:"clear " l) (lines_of "data/outputs.golden")
  in
  check_lines "clear outputs" ~golden
    ~got:(List.concat_map clear_lines [ M.micro; M.cryptonets; M.lenet5_small ])

let test_real_outputs () =
  let golden =
    List.filter (fun l -> String.starts_with ~prefix:"real" l) (lines_of "data/outputs.golden")
  in
  check_lines "real RNS-CKKS outputs" ~golden ~got:(real_lines false @ real_lines true)

(* --- compiler choices ---------------------------------------------------- *)

let full = Sys.getenv_opt "CHET_GOLDEN_FULL" <> None

let big = [ M.lenet5_large.M.model_name; M.industrial.M.model_name; M.squeezenet_cifar.M.model_name ]

let counters_of (k : Ins.counters) =
  Ins.
    [
      k.encodes; k.decodes; k.encrypts; k.decrypts; k.adds; k.plain_adds; k.scalar_adds; k.ct_muls;
      k.plain_muls; k.scalar_muls; k.rescales;
    ]

let check_compiled ?(target = C.Seal) (spec : M.spec) sentinel golden =
  let name = spec.M.model_name ^ (match target with C.Seal -> "" | C.Heaan -> "/heaan") in
  let s = if sentinel then "1" else "0" in
  let mine = function
    | kind :: model :: s' :: rest when model = name && s' = s -> Some (kind, rest)
    | _ -> None
  in
  let rows = List.filter_map (fun l -> mine (String.split_on_char ' ' l)) golden in
  let row kind = List.filter_map (fun (k, r) -> if k = kind then Some r else None) rows in
  let what = Printf.sprintf "%s (sentinel %s)" name s in
  let c = C.compile { (C.default_options ~target ()) with C.sentinel } (spec.M.build ()) in
  (match row "compile" with
  | [ [ policy; params; rotations ] ] ->
      Alcotest.(check string) (what ^ ": policy") policy (string_of_int (C.policy_tag c.C.policy));
      Alcotest.(check string) (what ^ ": params") params (params_str c.C.params);
      Alcotest.(check string)
        (what ^ ": rotation keys") rotations
        (String.concat "," (List.map (fun (a, u) -> Printf.sprintf "%d:%d" a u) c.C.rotations))
  | _ -> Alcotest.failf "%s: no compile row in the golden file" what);
  (match row "counters" with
  | [ golden_counts ] ->
      let golden_counts = List.map int_of_string golden_counts in
      let got = counters_of c.C.op_counters in
      if List.hd got > List.hd golden_counts then
        Alcotest.failf "%s: %d encodes, golden %d" what (List.hd got) (List.hd golden_counts);
      Alcotest.(check (list int)) (what ^ ": op counters") (List.tl golden_counts) (List.tl got)
  | _ -> Alcotest.failf "%s: no counters row in the golden file" what);
  let reports = row "report" in
  Alcotest.(check int) (what ^ ": reports") (List.length reports) (List.length c.C.reports);
  List.iter2
    (fun golden_row (r : C.policy_report) ->
      match golden_row with
      | [ policy; params; cost ] ->
          Alcotest.(check string) (what ^ ": report policy") policy
            (string_of_int (C.policy_tag r.C.pr_policy));
          Alcotest.(check string) (what ^ ": report params") params (params_str r.C.pr_params);
          let cost = float_of_string cost in
          if Float.abs (r.C.pr_cost -. cost) > 1e-9 *. Float.abs cost then
            Alcotest.failf "%s: estimated cost %h, golden %h" what r.C.pr_cost cost
      | _ -> Alcotest.failf "%s: malformed report row" what)
    reports c.C.reports

let test_compiler_choices () =
  let golden = lines_of "data/compiler.golden" in
  List.iter
    (fun (spec : M.spec) ->
      if full || not (List.mem spec.M.model_name big) then begin
        check_compiled spec false golden;
        check_compiled spec true golden
      end)
    (M.micro :: M.cryptonets :: M.all)

(* The power-of-two target: the HEAAN rows (model "name/heaan") pin the
   pow2 rescale rule as the parameter, cost and rotation passes run it. *)
let test_heaan_compiler_choices () =
  let golden = lines_of "data/compiler.golden" in
  List.iter
    (fun spec ->
      check_compiled ~target:C.Heaan spec false golden;
      check_compiled ~target:C.Heaan spec true golden)
    [ M.micro; M.lenet5_small ]

(* --- pinned key-switch counts ---------------------------------------------- *)

(* Rotations and relinearisations of one inference at the benchmark's pinned
   N = 2048, counted by Instrument over the cleartext backend — a rotation
   regression fails here deterministically, whatever the timing noise. *)
let keyswitch_line (spec : M.spec) =
  let circuit = spec.M.build () in
  let compiled = pin (C.compile (C.default_options ()) circuit) in
  let n = C.params_n compiled.C.params in
  let scheme = C.scheme_of_params compiled.C.opts compiled.C.params in
  let counted, k =
    Ins.wrap (Clear.make { Clear.slots = n / 2; scheme; strict_modulus = false; encode_noise = false })
  in
  let module H = (val counted) in
  let module PE = Plan_exec.Make (H) in
  let plan = Plan.build ~slots:(n / 2) ~policy:compiled.C.policy circuit in
  let prepared = PE.prepare compiled.C.opts.C.scales plan in
  Ins.reset k;
  ignore (PE.run prepared (M.input_for spec ~seed:1));
  Printf.sprintf "keyswitch %s %d %d %d" spec.M.model_name n (Ins.total_rotations k) k.Ins.ct_muls

let test_keyswitch_counts () =
  let golden =
    List.filter (fun l -> String.starts_with ~prefix:"keyswitch " l) (lines_of "data/compiler.golden")
  in
  check_lines "key switches per inference" ~golden
    ~got:(List.map keyswitch_line [ M.micro; M.lenet5_small ])

(* The key-switching material a deployment holds at the benchmark's pinned
   N = 2048: the key count (relinearisation + selected rotations) and the
   residue bytes of {!C.keyset}'s keys — a key-layout regression fails here
   deterministically, whatever the RSS noise. *)
let keybytes_line (spec : M.spec) =
  let compiled = pin (C.compile (C.default_options ()) (spec.M.build ())) in
  let ks = C.keyset compiled ~seed:42 ~with_secret:false () in
  Printf.sprintf "keybytes %s %d %d %d" spec.M.model_name (C.params_n compiled.C.params)
    (1 + List.length compiled.C.rotations)
    ks.C.ks_key_bytes

let test_key_bytes () =
  let golden =
    List.filter (fun l -> String.starts_with ~prefix:"keybytes " l) (lines_of "data/compiler.golden")
  in
  check_lines "key-switching key bytes" ~golden ~got:(List.map keybytes_line [ M.micro; M.lenet5_small ])

(* --- Timed interceptor cells ---------------------------------------------- *)

let timed_lines (spec : M.spec) =
  let circuit = spec.M.build () in
  let compiled = C.compile (C.default_options ()) circuit in
  let params = compiled.C.params in
  let slots = C.params_n params / 2 in
  let scheme = C.scheme_of_params compiled.C.opts params in
  let timer = Timed.create () in
  let clear = Clear.make { Clear.slots; scheme; strict_modulus = false; encode_noise = false } in
  let module H = (val Timed.wrap timer clear) in
  let module PE = Plan_exec.Make (H) in
  ignore (PE.eval compiled.C.opts.C.scales circuit ~policy:compiled.C.policy (M.input_for spec ~seed:1));
  List.map
    (fun (op, (e : Hisa.op_env), count, _) ->
      Printf.sprintf "timed %s %s %d %d %d %d" spec.M.model_name op e.Hisa.env_n e.Hisa.env_r
        e.Hisa.env_log_q count)
    (Timed.cells timer)

let test_timed_cells () =
  check_lines "timed cells" ~golden:(lines_of "data/timed_cells.golden")
    ~got:(List.concat_map timed_lines [ M.micro; M.lenet5_small ])

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "cleartext outputs, all policies" `Quick test_clear_outputs;
        Alcotest.test_case "real RNS-CKKS outputs, sentinel off and on" `Quick test_real_outputs;
        Alcotest.test_case "compiler choices" `Slow test_compiler_choices;
        Alcotest.test_case "compiler choices at target HEAAN" `Quick test_heaan_compiler_choices;
        Alcotest.test_case "key switches per inference at N=2048" `Quick test_keyswitch_counts;
        Alcotest.test_case "key-switching key bytes at N=2048" `Quick test_key_bytes;
        Alcotest.test_case "Timed interceptor cells" `Quick test_timed_cells;
      ] );
  ]

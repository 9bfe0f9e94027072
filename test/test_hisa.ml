(* Direct unit tests of the HISA backends: the cleartext reference's
   scale/modulus bookkeeping, the rescale rule and the scale algebra as one
   table over Shape, Clear, Checked and both real schemes, the simulator's
   cost clock, the instrumentation wrapper and the interception mechanism
   under both. *)

module Hisa = Chet_hisa.Hisa
module Herr = Chet_hisa.Herr
module Clear = Chet_hisa.Clear_backend
module Sim = Chet_hisa.Sim_backend
module Instrument = Chet_hisa.Instrument
module Cost_model = Chet.Cost_model

let chain = [| 1073741789; 1073741783; 1073741741 |]

let clear ?(encode_noise = false) ?(scheme = Hisa.Rns_chain chain) () =
  Clear.make { Clear.slots = 16; scheme; strict_modulus = true; encode_noise }

let test_clear_roundtrip_and_rotation () =
  let module H = (val clear () : Hisa.S) in
  let ct = H.encrypt (H.encode [| 1.0; 2.0; 3.0 |] ~scale:1024) in
  let out = H.decode (H.decrypt (H.rot_left ct 1)) in
  Alcotest.(check (float 1e-9)) "rotated" 2.0 out.(0);
  let back = H.decode (H.decrypt (H.rot_left (H.rot_left ct 5) (-5))) in
  Alcotest.(check (float 1e-9)) "inverse rotations" 1.0 back.(0)

(* hoisting is a no-op on the cleartext reference: rot_many is exactly the
   mapped rot_left *)
let test_clear_rot_many () =
  let module H = (val clear () : Hisa.S) in
  let ct = H.encrypt (H.encode (Array.init 16 float_of_int) ~scale:1024) in
  let amounts = [| 1; 5; 0; -3; 17; 15 |] in
  let dec c = H.decode (H.decrypt c) in
  Alcotest.(check (array (array (float 0.0))))
    "mapped rot_left" (Array.map (fun k -> dec (H.rot_left ct k)) amounts)
    (Array.map dec (H.rot_many ct amounts))

let test_clear_scale_tracking () =
  let module H = (val clear () : Hisa.S) in
  let a = H.encrypt (H.encode [| 2.0 |] ~scale:1024) in
  let b = H.mul_scalar a 3.0 ~scale:512 in
  Alcotest.(check (float 1e-9)) "scale multiplies" (1024.0 *. 512.0) (H.scale_of b);
  Alcotest.(check (float 1e-6)) "value" 6.0 (H.decode (H.decrypt b)).(0)

let test_clear_quantisation () =
  (* 1/3 is not representable at scale 4: the reference must quantise *)
  let module H = (val clear () : Hisa.S) in
  let p = H.encode [| 0.3333333 |] ~scale:4 in
  Alcotest.(check (float 1e-9)) "quantised to 1/4 grid" 0.25 (H.decode p).(0)

let test_clear_rns_rescale_semantics () =
  let module H = (val clear () : Hisa.S) in
  let a = H.encrypt (H.encode [| 1.0 |] ~scale:(1 lsl 40)) in
  let a2 = H.mul a a in
  (* next chain prime is ~2^30: an ub below it yields 1 *)
  Alcotest.(check int) "too small ub" 1 (H.max_rescale a2 (1 lsl 29));
  Alcotest.(check int) "one prime" chain.(2) (H.max_rescale a2 (1 lsl 31));
  let r = H.rescale a2 chain.(2) in
  Alcotest.(check (float 1.0)) "scale divided" ((2.0 ** 80.0) /. float_of_int chain.(2)) (H.scale_of r);
  (* non-chain divisor rejected *)
  Alcotest.(check bool) "bad divisor" true
    (try
       ignore (H.rescale a2 12345);
       false
     with Herr.Fhe_error (Herr.Illegal_rescale _, _) -> true)

let test_clear_pow2_rescale_semantics () =
  let module H = (val clear ~scheme:(Hisa.Pow2_modulus 100) () : Hisa.S) in
  let a = H.encrypt (H.encode [| 1.0 |] ~scale:(1 lsl 40)) in
  Alcotest.(check int) "largest pow2 <= ub" 4096 (H.max_rescale a 8191);
  let r = H.rescale a 4096 in
  Alcotest.(check (float 1e-6)) "scale divided" (2.0 ** 28.0) (H.scale_of r)

let test_clear_modulus_exhaustion () =
  (* strict mode: exhausting the pow2 modulus raises *)
  let module H = (val clear ~scheme:(Hisa.Pow2_modulus 20) () : Hisa.S) in
  let a = H.encrypt (H.encode [| 1.0 |] ~scale:(1 lsl 10)) in
  Alcotest.(check bool) "exhausted" true
    (try
       let r = H.rescale a (H.max_rescale a (1 lsl 10)) in
       (* 10 bits left; dropping 10 more would hit zero *)
       ignore (H.rescale r (1 lsl 10));
       false
     with Herr.Fhe_error (Herr.Modulus_exhausted _, _) -> true)

(* --- the rescale rule and the scale algebra, one table over every
   implementation ----------------------------------------------------------- *)

module Shape = Chet_hisa.Shape_backend
module Checked = Chet_hisa.Checked_backend
module Rns = Chet_crypto.Rns_ckks
module Big = Chet_crypto.Big_ckks

(* what one implementation answers; errors by constructor only, since each
   implementation raises under its own backend name *)
type seen = Int of int | Scale of float | Env of Hisa.op_env | Raised of string

let seen_equal a b =
  match (a, b) with
  (* RNS-CKKS divides by each dropped prime in turn, the interpretations by
     their product at once *)
  | Scale x, Scale y -> Float.abs (x -. y) <= 1e-12 *. Float.abs x
  | _ -> a = b

let show = function
  | Int i -> string_of_int i
  | Scale f -> Printf.sprintf "scale %h" f
  | Env e -> Printf.sprintf "env (%d, %d, %d)" e.Hisa.env_n e.Hisa.env_r e.Hisa.env_log_q
  | Raised name -> "raised " ^ name

let rule_n = 64
let rule_scale = 1 lsl 20
let rule_w = 1 lsl 10
let ubs = [ min_int; -1; 0; 1; 2; 3; 1 lsl 19; 1 lsl 29; 1 lsl 30; 1 lsl 31; 1 lsl 59; 1 lsl 61; max_int ]

(* Every answer of the rule on a fresh ciphertext: max_rescale over [ubs],
   each illegal divisor, then two chains of legal rescales (one prime or
   2^30 first; as much as max_int allows from fresh) with max_rescale,
   scale and env_of after every step, and exhaustion at the bottom. Then
   the scale algebra: the result scale and env of every multiplying and
   fused op, the meet of a fresh and a rescaled operand, and the error of
   an addition at mismatched scales. *)
let rule_trace (backend : Hisa.t) ~illegal ~exhausting =
  let module H = (val backend) in
  let out = ref [] in
  let note what v = out := (what, v) :: !out in
  let attempt what f =
    try note what (Int (f ())) with Herr.Fhe_error (e, _) -> note what (Raised (Herr.error_name e))
  in
  let sweep tag ct =
    List.iter
      (fun ub -> attempt (Printf.sprintf "%s: max_rescale %d" tag ub) (fun () -> H.max_rescale ct ub))
      ubs
  in
  let step tag ct d =
    let r = H.rescale ct d in
    note (tag ^ ": scale") (Scale (H.scale_of r));
    note (tag ^ ": env") (Env (H.env_of r));
    sweep tag r;
    r
  in
  let fresh = H.encrypt (H.encode [| 0.5 |] ~scale:rule_scale) in
  sweep "fresh" fresh;
  List.iter
    (fun d ->
      attempt (Printf.sprintf "rescale by %d" d) (fun () ->
          ignore (H.rescale fresh d);
          0))
    illegal;
  let one = step "one" fresh (H.max_rescale fresh (1 lsl 31)) in
  let bottom = step "one, rest" one (H.max_rescale one max_int) in
  let most = step "most" fresh (H.max_rescale fresh max_int) in
  List.iter
    (fun (tag, ct) ->
      let d = exhausting (H.env_of ct) in
      attempt (Printf.sprintf "%s: exhausting rescale" tag) (fun () ->
          ignore (H.rescale ct d);
          0))
    [ ("one, rest", bottom); ("most", most) ];
  let result tag f =
    match f () with
    | r ->
        note (tag ^ ": scale") (Scale (H.scale_of r));
        note (tag ^ ": env") (Env (H.env_of r))
    | exception Herr.Fhe_error (e, _) -> note tag (Raised (Herr.error_name e))
  in
  let p = H.encode [| 0.25 |] ~scale:rule_scale in
  result "mul" (fun () -> H.mul fresh fresh);
  result "mul_plain" (fun () -> H.mul_plain fresh p);
  result "mul_scalar" (fun () -> H.mul_scalar fresh 0.5 ~scale:rule_w);
  result "fma_plain" (fun () -> H.fma_plain (H.mul_plain fresh p) fresh p);
  result "fma_scalar" (fun () ->
      H.fma_scalar (H.mul_scalar fresh 0.5 ~scale:rule_w) fresh 0.5 ~scale:rule_w);
  result "fma_rot" (fun () -> H.fma_rot fresh fresh 1);
  (* back at the working scale one level down: multiplied by the divisor
     it is then rescaled by *)
  let d = H.max_rescale fresh (1 lsl 31) in
  let rescaled = H.rescale (H.mul_scalar fresh 1.0 ~scale:d) d in
  result "rescaled + fresh" (fun () -> H.add rescaled fresh);
  result "fresh + rescaled" (fun () -> H.add fresh rescaled);
  result "mismatched add" (fun () -> H.add fresh (H.mul_scalar fresh 0.5 ~scale:rule_w));
  result "mismatched add_plain" (fun () ->
      H.add_plain fresh (H.encode [| 0.25 |] ~scale:(rule_scale * rule_w)));
  result "mismatched fma_plain" (fun () -> H.fma_plain fresh fresh p);
  List.rev !out

(* Runs the trace on Shape, Clear, Checked(Clear) and the real scheme; all
   must agree with Shape, and Shape with [expect]. *)
let check_rule_table ~kind ~real ~illegal ~exhausting ~expect =
  let slots = rule_n / 2 in
  let clear () = Clear.make { Clear.slots; scheme = kind; strict_modulus = true; encode_noise = false } in
  let backends =
    [
      ("shape", Shape.make { Shape.slots; scheme = kind });
      ("clear", clear ());
      ("checked clear", Checked.wrap ~scheme:kind (clear ()));
      real;
    ]
  in
  let traces = List.map (fun (name, b) -> (name, rule_trace b ~illegal ~exhausting)) backends in
  let _, reference = List.hd traces in
  let illegal = List.map (fun d -> (Printf.sprintf "rescale by %d" d, Raised "illegal rescale")) illegal in
  let exhausted = Raised "modulus exhausted" and mismatch = Raised "scale mismatch" in
  let s = float_of_int rule_scale and w = float_of_int rule_w in
  List.iter
    (fun (what, want) -> Alcotest.(check string) what (show want) (show (List.assoc what reference)))
    (illegal
    @ [
        ("one, rest: exhausting rescale", exhausted);
        ("most: exhausting rescale", exhausted);
        ("mul: scale", Scale (s *. s));
        ("mul_plain: scale", Scale (s *. s));
        ("mul_scalar: scale", Scale (s *. w));
        ("fma_plain: scale", Scale (s *. s));
        ("fma_scalar: scale", Scale (s *. w));
        ("fma_rot: scale", Scale s);
        ("rescaled + fresh: scale", Scale s);
        ("mismatched add", mismatch);
        ("mismatched add_plain", mismatch);
        ("mismatched fma_plain", mismatch);
      ]
    @ expect);
  List.iter
    (fun (name, trace) ->
      Alcotest.(check int) (name ^ ": answers") (List.length reference) (List.length trace);
      List.iter2
        (fun (what, want) (what', got) ->
          Alcotest.(check string) (name ^ ": same question") what what';
          if not (seen_equal want got) then
            Alcotest.failf "%s, %s: shape says %s, %s says %s" name what (show want) name (show got))
        reference trace)
    traces

let test_rescale_rule_table () =
  (* RNS: the real RNS-CKKS chain (three ~30-bit primes) *)
  let ctx = Rns.make_context (Rns.default_params ~n:rule_n ~bits:30 ~num_coeff_primes:3 ()) in
  let rng = Chet_crypto.Sampling.create ~seed:5 in
  let sk, keys = Rns.keygen ctx rng in
  Rns.add_rotation_key ctx rng sk keys 1;
  let primes = Rns.coeff_primes ctx in
  let seal = Chet_hisa.Seal_backend.make { Chet_hisa.Seal_backend.ctx; rng; keys; secret = Some sk } in
  check_rule_table ~kind:(Hisa.Rns_chain primes) ~real:("seal", seal)
    ~illegal:[ 0; -1; 12345; primes.(1); 1 lsl 20 ]
    ~exhausting:(fun e ->
      (* every remaining prime, and the last one once more *)
      let p = ref primes.(0) in
      for i = 0 to e.Hisa.env_r - 1 do
        p := !p * primes.(i)
      done;
      !p)
    ~expect:
      [
        ("fresh: max_rescale 536870912", Int 1);
        ("fresh: max_rescale 2147483648", Int primes.(2));
        ("fresh: max_rescale " ^ string_of_int max_int, Int (primes.(2) * primes.(1)));
        ("one, rest: env", Env { Hisa.env_n = rule_n; env_r = 1; env_log_q = 0 });
        ("fma_rot: env", Env { Hisa.env_n = rule_n; env_r = 3; env_log_q = 0 });
        ("fresh + rescaled: env", Env { Hisa.env_n = rule_n; env_r = 2; env_log_q = 0 });
        ("most: scale", Scale (float_of_int rule_scale /. float_of_int (primes.(2) * primes.(1))));
      ];
  (* power of two: the real CKKS at logQ = 60 *)
  let log_fresh = 60 in
  let ctx = Big.make_context (Big.default_params ~n:rule_n ~log_fresh ()) in
  let rng = Chet_crypto.Sampling.create ~seed:6 in
  let sk, keys = Big.keygen ctx rng in
  Big.add_rotation_key ctx rng sk keys 1;
  let heaan = Chet_hisa.Heaan_backend.make { Chet_hisa.Heaan_backend.ctx; rng; keys; secret = Some sk } in
  check_rule_table ~kind:(Hisa.Pow2_modulus log_fresh) ~real:("heaan", heaan)
    ~illegal:[ 0; -1; 12345; 3 lsl 10 ]
    ~exhausting:(fun e -> 1 lsl e.Hisa.env_log_q)
    ~expect:
      [
        ("fresh: max_rescale 3", Int 2);
        ("fresh: max_rescale " ^ string_of_int max_int, Int (1 lsl 59));
        ("one: scale", Scale (2.0 ** -11.0));
        ("one, rest: env", Env { Hisa.env_n = rule_n; env_r = 0; env_log_q = 1 });
        ("fma_rot: env", Env { Hisa.env_n = rule_n; env_r = 0; env_log_q = log_fresh });
        ("fresh + rescaled: env", Env { Hisa.env_n = rule_n; env_r = 0; env_log_q = log_fresh - 31 });
      ]

let test_noise_model () =
  (* with encode_noise on, non-constant vectors are perturbed (deterministic
     per plaintext), constant vectors are not *)
  let module H = (val clear ~encode_noise:true () : Hisa.S) in
  let flat = H.decode (H.encode (Array.make 16 0.5) ~scale:4) in
  Array.iter (fun v -> Alcotest.(check (float 0.0)) "constant untouched" 0.5 v) flat;
  let bumpy = Array.init 16 (fun i -> if i mod 2 = 0 then 1.0 else 0.0) in
  let once = H.decode (H.encode bumpy ~scale:1024) in
  let twice = H.decode (H.encode bumpy ~scale:1024) in
  Alcotest.(check bool) "perturbed" true (once.(0) <> 1.0);
  Alcotest.(check bool) "deterministic" true (once = twice)

let test_sim_clock () =
  let unit_costs =
    {
      Hisa.cm_add = (fun _ -> 1.0);
      cm_scalar_mul = (fun _ -> 2.0);
      cm_plain_mul = (fun _ -> 3.0);
      cm_cipher_mul = (fun _ -> 5.0);
      cm_rotate = (fun _ -> 7.0);
      cm_rot_hoisted = (fun _ -> 3.5);
      cm_rescale = (fun _ -> 11.0);
    }
  in
  let backend, clock = Sim.make { Sim.n = 32; scheme = Hisa.Rns_chain chain; costs = unit_costs } in
  let module H = (val backend : Hisa.S) in
  let a = H.encrypt (H.encode [| 1.0 |] ~scale:1024) in
  let b = H.add a a in
  let c = H.mul a b in
  let _ = H.rot_left c 1 in
  Alcotest.(check (float 1e-9)) "elapsed" (1.0 +. 5.0 +. 7.0) clock.Sim.elapsed;
  Alcotest.(check int) "ops" 3 clock.Sim.op_count;
  Alcotest.(check (float 1e-9)) "rotate share" 7.0 clock.Sim.rotate_elapsed;
  Alcotest.(check int) "rotate count" 1 clock.Sim.rotate_count;
  (* a hoisted call is priced per rotating amount at the hoisted row *)
  let _ = H.rot_many c [| 1; 2; 0 |] in
  Alcotest.(check (float 1e-9)) "hoisted elapsed" (13.0 +. 7.0) clock.Sim.elapsed;
  Alcotest.(check int) "hoisted rotate count" 3 clock.Sim.rotate_count

let test_sim_env_dependent_cost () =
  (* cost must drop after rescaling (fewer active primes) *)
  let costs = Chet.Cost_model.seal () in
  let backend, clock = Sim.make { Sim.n = 64; scheme = Hisa.Rns_chain chain; costs } in
  let module H = (val backend : Hisa.S) in
  let a = H.encrypt (H.encode [| 1.0 |] ~scale:(1 lsl 31)) in
  let t0 = clock.Sim.elapsed in
  let _ = H.mul a a in
  let cost_mul_l3 = clock.Sim.elapsed -. t0 in
  let sq = H.rescale (H.mul a a) (H.max_rescale (H.mul a a) (1 lsl 31)) in
  let t1 = clock.Sim.elapsed in
  let _ = H.mul sq sq in
  let cost_mul_l2 = clock.Sim.elapsed -. t1 in
  Alcotest.(check bool) "cheaper at lower level" true (cost_mul_l2 < cost_mul_l3)

let test_instrument_counts () =
  let backend, counters = Instrument.wrap (clear ()) in
  let module H = (val backend : Hisa.S) in
  let p = H.encode [| 1.0 |] ~scale:1024 in
  let a = H.encrypt p in
  let _ = H.add a a in
  let _ = H.mul a a in
  let _ = H.mul_plain a p in
  let _ = H.mul_scalar a 2.0 ~scale:4 in
  let _ = H.rot_left a 3 in
  let _ = H.rot_left a 3 in
  let _ = H.rot_left a (-1) in
  let _ = H.rot_left a 0 in
  (* a hoisted call counts each amount it rotates by *)
  let _ = H.rot_many a [| 3; 0; 4 |] in
  Alcotest.(check int) "adds" 1 counters.Instrument.adds;
  Alcotest.(check int) "ct muls" 1 counters.Instrument.ct_muls;
  Alcotest.(check int) "plain muls" 1 counters.Instrument.plain_muls;
  Alcotest.(check int) "scalar muls" 1 counters.Instrument.scalar_muls;
  Alcotest.(check int) "encodes" 1 counters.Instrument.encodes;
  (* a right rotation by 1 records as left rotation slots-1 = 15; rot 0 not
     recorded *)
  Alcotest.(check int) "total rotations" 5 (Instrument.total_rotations counters);
  let distinct = List.sort compare (Instrument.distinct_rotations counters) in
  Alcotest.(check (list int)) "distinct" [ 3; 4; 15 ] distinct

(* Every intercepted call reaches the hook exactly once — a fused op as one
   call — with its rotation amount or divisor and its operand's env before
   the op; the pass-through ops never reach it. *)
let test_intercept_coverage () =
  let log = ref [] in
  let show (op : Hisa.op) =
    Hisa.op_name op
    ^
    match op with
    | Rot_left k | Fma_rot k | Rescale k -> " " ^ string_of_int k
    | Rot_many ks -> String.concat "" (Array.to_list (Array.map (Printf.sprintf " %d") ks))
    | _ -> ""
  in
  let around op env run =
    let r = try Some (env 0).Hisa.env_r with Invalid_argument _ -> None in
    log := (op, r) :: !log;
    run ()
  in
  let module H = (val Hisa.intercept { Hisa.around } (clear ()) : Hisa.S) in
  let seen = ref [] in
  let call ?level expected f =
    log := [];
    let v = f () in
    (match !log with
    | [ (op, r) ] ->
        Alcotest.(check string) "intercepted op" expected (show op);
        Alcotest.(check (option int)) (expected ^ ": operand env") level r;
        seen := op :: !seen
    | l -> Alcotest.failf "%s: %d hook calls, expected 1" expected (List.length l));
    v
  in
  let p = call "encode" (fun () -> H.encode [| 1.0; 2.0 |] ~scale:1024) in
  ignore (call "decode" (fun () -> H.decode p));
  let a = call "encrypt" (fun () -> H.encrypt p) in
  ignore (call ~level:3 "decrypt" (fun () -> H.decrypt a));
  ignore (call ~level:3 "rot_left 3" (fun () -> H.rot_left a 3));
  ignore (call ~level:3 "add" (fun () -> H.add a a));
  ignore (call ~level:3 "add_plain" (fun () -> H.add_plain a p));
  ignore (call ~level:3 "add_scalar" (fun () -> H.add_scalar a 1.0));
  let m = call ~level:3 "mul" (fun () -> H.mul a a) in
  ignore (call ~level:3 "mul_plain" (fun () -> H.mul_plain a p));
  ignore (call ~level:3 "mul_scalar" (fun () -> H.mul_scalar a 2.0 ~scale:4));
  ignore (call ~level:3 "fma_scalar" (fun () -> H.fma_scalar a a 2.0 ~scale:1));
  ignore (call ~level:3 "fma_plain" (fun () -> H.fma_plain m a p));
  ignore (call ~level:3 "fma_rot 7" (fun () -> H.fma_rot a a 7));
  ignore (call ~level:3 "rot_many 1 4" (fun () -> H.rot_many a [| 1; 4 |]));
  ignore (call ~level:3 "rescale 1" (fun () -> H.rescale m 1));
  let d = H.max_rescale m (1 lsl 31) in
  let r = call ~level:3 (Printf.sprintf "rescale %d" d) (fun () -> H.rescale m d) in
  Alcotest.(check int) "rescaled below the env the hook saw" 2 (H.env_of r).Hisa.env_r;
  (* pass-through ops: max_rescale above, scale_of, env_of *)
  log := [];
  ignore (H.scale_of a, H.env_of a);
  Alcotest.(check int) "pass-through ops not intercepted" 0 (List.length !log);
  let names = List.sort_uniq compare (List.map Hisa.op_name !seen) in
  Alcotest.(check int) "every intercepted op exercised" 16 (List.length names);
  (* the cost model classifies every op that computes on ciphertexts; only
     the client-side boundary ops are unpriced *)
  List.iter
    (fun name ->
      let boundary = List.mem name [ "encode"; "decode"; "encrypt"; "decrypt" ] in
      Alcotest.(check bool) (name ^ " classified") (not boundary)
        (Cost_model.class_of_op name <> None))
    names

let suite =
  [
    ( "hisa",
      [
        Alcotest.test_case "clear roundtrip/rotation" `Quick test_clear_roundtrip_and_rotation;
        Alcotest.test_case "clear rot_many = mapped rot_left" `Quick test_clear_rot_many;
        Alcotest.test_case "clear scale tracking" `Quick test_clear_scale_tracking;
        Alcotest.test_case "clear quantisation" `Quick test_clear_quantisation;
        Alcotest.test_case "clear RNS rescale semantics" `Quick test_clear_rns_rescale_semantics;
        Alcotest.test_case "clear pow2 rescale semantics" `Quick test_clear_pow2_rescale_semantics;
        Alcotest.test_case "modulus exhaustion raises" `Quick test_clear_modulus_exhaustion;
        Alcotest.test_case "rescale rule on every backend" `Quick test_rescale_rule_table;
        Alcotest.test_case "encoding noise model" `Quick test_noise_model;
        Alcotest.test_case "sim clock" `Quick test_sim_clock;
        Alcotest.test_case "sim env-dependent cost" `Quick test_sim_env_dependent_cost;
        Alcotest.test_case "instrument counters" `Quick test_instrument_counts;
        Alcotest.test_case "intercept: one hook call per op" `Quick test_intercept_coverage;
      ] );
  ]

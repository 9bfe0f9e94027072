(* End-to-end tests of the HEAAN-style CKKS scheme (power-of-two modulus). *)

open Chet_crypto
module C = Big_ckks

let n = 64
let scale = 1073741824.0 (* 2^30 *)
let log_fresh = 150
let params = C.default_params ~n ~log_fresh ()
let ctx = C.make_context params
(* the module-level generator serves keygen only: every encryption draws
   from its own generator, seeded by the test, so a test's ciphertexts do
   not depend on which tests ran before it *)
let rng = Sampling.create ~seed:777
let sk, keys = C.keygen ctx rng

let () =
  C.add_rotation_key ctx rng sk keys 1;
  C.add_power_of_two_rotation_keys ctx rng sk keys

let slots = C.slot_count ctx

let random_vec seed =
  let st = Random.State.make [| seed |] in
  Array.init slots (fun _ -> Random.State.float st 4.0 -. 2.0)

let encrypt_vec ~seed v =
  C.encrypt ctx (Sampling.create ~seed) keys.C.public (C.encode_real ctx ~logq:log_fresh ~scale v)
let decrypt_vec ct = C.decode ctx (C.decrypt ctx sk ct)

let check_close ?(tol = 5e-3) msg expected ct =
  let got = decrypt_vec ct in
  let diff = Complexv.max_abs_diff (Complexv.of_real expected) got in
  if diff > tol then
    Alcotest.failf "%s: max abs diff %.6f > %.6f (first expected %.4f got %.4f)" msg diff tol
      expected.(0) (Complexv.get_re got 0)

let test_roundtrip () =
  let v = random_vec 1 in
  check_close "roundtrip" v (encrypt_vec ~seed:1 v)

let test_add () =
  let a = random_vec 2 and b = random_vec 3 in
  check_close "add"
    (Array.init slots (fun i -> a.(i) +. b.(i)))
    (C.add ctx (encrypt_vec ~seed:2 a) (encrypt_vec ~seed:3 b))

let test_mul_relin () =
  let a = random_vec 4 and b = random_vec 5 in
  let prod = Array.init slots (fun i -> a.(i) *. b.(i)) in
  check_close ~tol:1e-2 "mul" prod
    (C.mul ctx keys (encrypt_vec ~seed:4 a) (encrypt_vec ~seed:5 b))

let test_mul_plain_scalar () =
  let a = random_vec 6 and b = random_vec 7 in
  let pt = C.encode_real ctx ~logq:log_fresh ~scale b in
  check_close ~tol:1e-2 "mul_plain"
    (Array.init slots (fun i -> a.(i) *. b.(i)))
    (C.mul_plain ctx (encrypt_vec ~seed:6 a) pt);
  check_close ~tol:1e-2 "mul_scalar" (Array.map (fun x -> x *. 0.5) a)
    (C.mul_scalar ctx (encrypt_vec ~seed:106 a) 0.5 ~scale);
  check_close "add_scalar" (Array.map (fun x -> x -. 0.25) a)
    (C.add_scalar ctx (encrypt_vec ~seed:206 a) (-0.25))

let test_rescale_powers_of_two () =
  let a = random_vec 8 and b = random_vec 9 in
  let ct = C.mul ctx keys (encrypt_vec ~seed:8 a) (encrypt_vec ~seed:9 b) in
  (* maxRescale semantics: largest power of two <= ub *)
  Alcotest.(check int) "pow2 cap" 1024 (C.max_rescale ctx ct 2047);
  Alcotest.(check int) "exact pow2" 2048 (C.max_rescale ctx ct 2048);
  Alcotest.(check int) "ub 1" 1 (C.max_rescale ctx ct 1);
  let d = C.max_rescale ctx ct (int_of_float scale) in
  Alcotest.(check int) "full scale" (int_of_float scale) d;
  let ct' = C.rescale ctx ct d in
  Alcotest.(check int) "logq consumed" (C.logq_of ct - 30) (C.logq_of ct');
  Alcotest.(check bool) "scale back" true (Float.abs (C.scale_of ct' -. scale) < 1.0);
  check_close ~tol:1e-2 "value" (Array.init slots (fun i -> a.(i) *. b.(i))) ct'

let test_depth_chain () =
  let v = Array.init slots (fun i -> 0.4 +. (0.01 *. float_of_int (i mod 5))) in
  let ct = ref (encrypt_vec ~seed:7 v) in
  let expected = ref (Array.copy v) in
  for _ = 1 to 3 do
    ct := C.mul ctx keys !ct !ct;
    ct := C.rescale ctx !ct (C.max_rescale ctx !ct (int_of_float scale));
    expected := Array.map (fun x -> x *. x) !expected
  done;
  check_close ~tol:5e-2 "depth-3 squaring" !expected !ct;
  Alcotest.(check int) "modulus consumed" (log_fresh - 90) (C.logq_of !ct)

let test_rotate () =
  let a = random_vec 10 in
  check_close ~tol:1e-2 "rot 1" (Array.init slots (fun i -> a.((i + 1) mod slots)))
    (C.rotate ctx keys (encrypt_vec ~seed:10 a) 1);
  (* composite rotation via power-of-two fallback *)
  check_close ~tol:1e-2 "rot 11" (Array.init slots (fun i -> a.((i + 11) mod slots)))
    (C.rotate ctx keys (encrypt_vec ~seed:110 a) 11);
  check_close ~tol:1e-2 "rot -2" (Array.init slots (fun i -> a.((i - 2 + slots) mod slots)))
    (C.rotate ctx keys (encrypt_vec ~seed:210 a) (-2))

let test_mod_down () =
  let a = random_vec 11 in
  let ct = C.mod_down ctx (encrypt_vec ~seed:11 a) ~logq:100 in
  Alcotest.(check int) "logq" 100 (C.logq_of ct);
  check_close "value preserved" a ct

let test_modulus_exhaustion_garbles () =
  (* Keep multiplying without enough modulus head-room: the coefficients
     overflow Q and the result is garbage — the failure mode CHET's
     parameter selection exists to prevent. *)
  let v = Array.make slots 1.9 in
  let ct = ref (encrypt_vec ~seed:13 v) in
  (* consume modulus down to barely above one scale's worth *)
  ct := C.mod_down ctx !ct ~logq:45;
  ct := C.mul ctx keys !ct !ct (* scale^2 = 2^60 > 2^45: overflow *);
  let got = decrypt_vec !ct in
  let expected = Complexv.of_real (Array.make slots (1.9 *. 1.9)) in
  Alcotest.(check bool) "overflowed result is wrong" true
    (Complexv.max_abs_diff expected got /. (C.scale_of !ct /. scale /. scale) > 0.0
    && Complexv.max_abs_diff expected got > 0.5)

let test_wrong_key () =
  let rng2 = Sampling.create ~seed:31337 in
  let sk2, _ = C.keygen ctx rng2 in
  let a = random_vec 12 in
  let got = C.decode ctx (C.decrypt ctx sk2 (encrypt_vec ~seed:12 a)) in
  Alcotest.(check bool) "garbage" true (Complexv.max_abs_diff (Complexv.of_real a) got > 1.0)

let suite =
  [
    ( "big_ckks",
      [
        Alcotest.test_case "encrypt/decrypt" `Quick test_roundtrip;
        Alcotest.test_case "add" `Quick test_add;
        Alcotest.test_case "mul (relinearised)" `Quick test_mul_relin;
        Alcotest.test_case "mul_plain / scalars" `Quick test_mul_plain_scalar;
        Alcotest.test_case "rescale by powers of two" `Quick test_rescale_powers_of_two;
        Alcotest.test_case "depth-3 squaring chain" `Quick test_depth_chain;
        Alcotest.test_case "rotate" `Quick test_rotate;
        Alcotest.test_case "mod_down" `Quick test_mod_down;
        Alcotest.test_case "modulus exhaustion garbles" `Quick test_modulus_exhaustion_garbles;
        Alcotest.test_case "wrong key garbles" `Quick test_wrong_key;
      ] );
  ]

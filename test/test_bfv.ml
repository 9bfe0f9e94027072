(* Tests of the BFV integer scheme — the "FV" target the paper says CHET can
   trivially support (§2.2). BFV has no rescaling, so fixed-point scales only
   grow; the tests exercise exactly the shallow-circuit regime that made
   CryptoNets-era systems choose it. *)

open Chet_crypto
module B = Bfv

let n = 256
let params = B.default_params ~n ~plain_bits:30 ~bits:30 ~num_coeff_primes:6 ()
let ctx = B.make_context params
let rng = Sampling.create ~seed:2024
let sk, keys = B.keygen ctx rng

let () = B.add_rotation_key ctx rng sk keys 1

let slots = B.slot_count ctx
let scale = 64.0

let random_vec seed =
  let st = Random.State.make [| seed |] in
  Array.init slots (fun _ -> float_of_int (Random.State.int st 41 - 20) /. 4.0)

let encrypt_vec v = B.encrypt ctx rng keys (B.encode ctx ~scale v)
let decrypt_vec ?(scale = scale) ct = B.decode ctx (B.decrypt ctx sk ct) ~scale

let check_close ?(tol = 1e-6) msg expected got =
  Array.iteri
    (fun i e ->
      if Float.abs (e -. got.(i)) > tol then
        Alcotest.failf "%s: slot %d: %f vs %f" msg i e got.(i))
    expected

let test_encode_decode () =
  let v = random_vec 1 in
  check_close "roundtrip (no encryption)" v (B.decode ctx (B.encode ctx ~scale v) ~scale)

let test_encrypt_decrypt () =
  (* BFV is exact: decryption recovers the fixed-point values precisely *)
  let v = random_vec 2 in
  check_close "exact roundtrip" v (decrypt_vec (encrypt_vec v))

let test_add_sub () =
  let a = random_vec 3 and b = random_vec 4 in
  check_close "add" (Array.init slots (fun i -> a.(i) +. b.(i)))
    (decrypt_vec (B.add ctx (encrypt_vec a) (encrypt_vec b)));
  check_close "sub" (Array.init slots (fun i -> a.(i) -. b.(i)))
    (decrypt_vec (B.sub ctx (encrypt_vec a) (encrypt_vec b)))

let test_mul_relin () =
  let a = random_vec 5 and b = random_vec 6 in
  let prod = Array.init slots (fun i -> a.(i) *. b.(i)) in
  let ct = B.mul ctx keys (encrypt_vec a) (encrypt_vec b) in
  (* product sits at scale^2; still exact *)
  check_close "mul" prod (decrypt_vec ~scale:(scale *. scale) ct)

let test_mul_plain () =
  let a = random_vec 7 and b = random_vec 8 in
  let pt = B.encode ctx ~scale b in
  let prod = Array.init slots (fun i -> a.(i) *. b.(i)) in
  check_close "mul_plain" prod (decrypt_vec ~scale:(scale *. scale) (B.mul_plain ctx (encrypt_vec a) pt))

let test_add_plain_and_scalar () =
  let a = random_vec 9 and b = random_vec 10 in
  check_close "add_plain"
    (Array.init slots (fun i -> a.(i) +. b.(i)))
    (decrypt_vec (B.add_plain ctx (encrypt_vec a) (B.encode ctx ~scale b)));
  check_close "mul_scalar (by 3)" (Array.map (fun x -> 3.0 *. x) a)
    (decrypt_vec (B.mul_scalar ctx (encrypt_vec a) 3))

let test_rotate () =
  let a = random_vec 11 in
  let rotated = Array.init slots (fun i -> a.((i + 1) mod slots)) in
  check_close "rot 1" rotated (decrypt_vec (B.rotate ctx keys (encrypt_vec a) 1))

let test_depth2 () =
  (* (a*b)*c — two multiplications without rescaling *)
  let a = random_vec 12 and b = random_vec 13 and c = random_vec 14 in
  let ab = B.mul ctx keys (encrypt_vec a) (encrypt_vec b) in
  let abc = B.mul ctx keys ab (encrypt_vec c) in
  let expected = Array.init slots (fun i -> a.(i) *. b.(i) *. c.(i)) in
  check_close "depth 2" expected (decrypt_vec ~scale:(scale ** 3.0) abc)

let test_plaintext_modulus_wrap () =
  (* values beyond t/(2*scale) must wrap — the failure CHET's scale analysis
     guards against in schemes without rescaling *)
  let t = float_of_int (B.plain_modulus ctx) in
  let big = t /. scale /. 2.0 *. 1.5 in
  let v = Array.make slots big in
  let got = decrypt_vec (encrypt_vec v) in
  Alcotest.(check bool) "wrapped" true (Float.abs (got.(0) -. big) > 1.0)

let test_wrong_key () =
  let sk2, _ = B.keygen ctx (Sampling.create ~seed:555) in
  let a = random_vec 15 in
  let got = B.decode ctx (B.decrypt ctx sk2 (encrypt_vec a)) ~scale in
  Alcotest.(check bool) "garbage" true
    (Array.exists2 (fun x y -> Float.abs (x -. y) > 0.5) a got)

let suite =
  [
    ( "bfv",
      [
        Alcotest.test_case "encode/decode" `Quick test_encode_decode;
        Alcotest.test_case "encrypt/decrypt exact" `Quick test_encrypt_decrypt;
        Alcotest.test_case "add/sub" `Quick test_add_sub;
        Alcotest.test_case "mul (relinearised)" `Quick test_mul_relin;
        Alcotest.test_case "mul_plain" `Quick test_mul_plain;
        Alcotest.test_case "add_plain / mul_scalar" `Quick test_add_plain_and_scalar;
        Alcotest.test_case "rotate" `Quick test_rotate;
        Alcotest.test_case "depth 2 without rescaling" `Quick test_depth2;
        Alcotest.test_case "plaintext modulus wrap" `Quick test_plaintext_modulus_wrap;
        Alcotest.test_case "wrong key garbles" `Quick test_wrong_key;
      ] );
  ]

(* --- the CHET kernels run unchanged over the BFV HISA backend --- *)

let test_kernels_over_bfv () =
  let module Hisa = Chet_hisa.Hisa in
  let module Kernels = Chet_runtime.Kernels in
  let module Layout = Chet_runtime.Layout in
  let module T = Chet_tensor.Tensor in
  let module Dataset = Chet_tensor.Dataset in
  let backend =
    Chet_hisa.Bfv_backend.make { Chet_hisa.Bfv_backend.ctx; rng; keys; secret = Some sk }
  in
  let module H = (val backend : Hisa.S) in
  let module K = Kernels.Make (H) in
  (* small fixed-point scales: BFV cannot rescale, so the budget is t *)
  let scales = { Kernels.pc = 1 lsl 8; pw = 1 lsl 6; pu = 1 lsl 6; pm = 1 lsl 2 } in
  let meta = Layout.create ~kind:Layout.HW ~slots:H.slots ~channels:1 ~height:6 ~width:6 ~margin:1 () in
  let image = Dataset.image ~seed:9 ~channels:1 ~height:6 ~width:6 in
  let st = Random.State.make [| 17 |] in
  let weights = Dataset.glorot st [| 2; 1; 3; 3 |] in
  (* keys for every tap rotation of a 3x3 Same conv on this layout *)
  List.iter
    (fun dy ->
      List.iter (fun dx -> B.add_rotation_key ctx rng sk keys ((dy * meta.Layout.row_stride) + dx))
        [ -1; 0; 1 ])
    [ -1; 0; 1 ];
  let enc = K.encrypt_tensor scales meta image in
  let conv = K.conv2d scales ~meta ~budget:(ref 0) ~weights ~bias:None ~stride:1 ~padding:T.Same in
  let out = conv.K.sg_run enc in
  let got = K.decrypt_tensor out in
  let expected = T.conv2d ~input:image ~weights ~stride:1 ~padding:T.Same () in
  let diff = T.max_abs_diff expected got in
  (* fixed-point quantisation at these small scales dominates the error *)
  if diff > 0.1 then Alcotest.failf "conv over BFV: diff %.4f" diff

let suite =
  match suite with
  | [ (name, cases) ] ->
      [ (name, cases @ [ Alcotest.test_case "CHET conv kernel over BFV" `Quick test_kernels_over_bfv ]) ]
  | other -> other

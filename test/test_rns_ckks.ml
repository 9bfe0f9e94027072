(* End-to-end tests of the RNS-CKKS scheme: every homomorphic operation is
   checked against the corresponding cleartext computation. *)

open Chet_crypto
module C = Rns_ckks
module Herr = Chet_herr.Herr

let n = 256
let scale = 1073741824.0 (* 2^30, matching the chain prime size as in SEAL *)
let params = C.default_params ~n ~bits:30 ~num_coeff_primes:4 ()
let ctx = C.make_context params
(* the module-level generator serves keygen only: every encryption draws
   from its own generator, seeded by the test, so a test's ciphertexts do
   not depend on which tests ran before it *)
let rng = Sampling.create ~seed:12345
let sk, keys = C.keygen ctx rng

let () =
  C.add_rotation_key ctx rng sk keys 1;
  C.add_rotation_key ctx rng sk keys 3;
  C.add_power_of_two_rotation_keys ctx rng sk keys

let slots = C.slot_count ctx

let random_vec seed =
  let st = Random.State.make [| seed |] in
  Array.init slots (fun _ -> Random.State.float st 4.0 -. 2.0)

let encrypt_vec ~seed v =
  C.encrypt ctx (Sampling.create ~seed) keys.C.public
    (C.encode_real ctx ~level:(C.max_level ctx) ~scale v)

let decrypt_vec ct = C.decode ctx (C.decrypt ctx sk ct)

let check_close ?(tol = 5e-3) msg expected ct =
  let got = decrypt_vec ct in
  let diff = Complexv.max_abs_diff (Complexv.of_real expected) got in
  if diff > tol then
    Alcotest.failf "%s: max abs diff %.6f > %.6f (first expected %.4f got %.4f)" msg diff tol
      expected.(0) (Complexv.get_re got 0)

let test_encrypt_decrypt () =
  let v = random_vec 1 in
  check_close "roundtrip" v (encrypt_vec ~seed:1 v)

let test_encrypt_is_randomized () =
  let v = random_vec 2 in
  let a = encrypt_vec ~seed:2 v and b = encrypt_vec ~seed:102 v in
  Alcotest.(check bool) "ciphertexts differ" false (C.c0 a = C.c0 b)

let test_add () =
  let a = random_vec 3 and b = random_vec 4 in
  let sum = Array.init slots (fun i -> a.(i) +. b.(i)) in
  check_close "add" sum (C.add ctx (encrypt_vec ~seed:3 a) (encrypt_vec ~seed:4 b))

let test_add_plain () =
  let a = random_vec 7 and b = random_vec 8 in
  let pt = C.encode_real ctx ~level:(C.max_level ctx) ~scale b in
  let sum = Array.init slots (fun i -> a.(i) +. b.(i)) in
  check_close "add_plain" sum (C.add_plain ctx (encrypt_vec ~seed:7 a) pt)

let test_mul () =
  let a = random_vec 9 and b = random_vec 10 in
  let prod = Array.init slots (fun i -> a.(i) *. b.(i)) in
  let ct = C.mul ctx keys (encrypt_vec ~seed:9 a) (encrypt_vec ~seed:10 b) in
  Alcotest.(check bool) "scale squared" true (Float.abs (C.scale_of ct -. (scale *. scale)) < 1.0);
  check_close ~tol:1e-2 "mul" prod ct

let test_mul_plain () =
  let a = random_vec 11 and b = random_vec 12 in
  let pt = C.encode_real ctx ~level:(C.max_level ctx) ~scale b in
  let prod = Array.init slots (fun i -> a.(i) *. b.(i)) in
  check_close ~tol:1e-2 "mul_plain" prod (C.mul_plain ctx (encrypt_vec ~seed:11 a) pt)

let test_mul_scalar () =
  let a = random_vec 13 in
  let ct = C.mul_scalar ctx (encrypt_vec ~seed:13 a) 1.5 ~scale in
  check_close ~tol:1e-2 "mul_scalar" (Array.map (fun x -> x *. 1.5) a) ct

let test_add_scalar () =
  let a = random_vec 14 in
  check_close "add_scalar" (Array.map (fun x -> x +. 0.75) a) (C.add_scalar ctx (encrypt_vec ~seed:14 a) 0.75)

let test_rescale () =
  let a = random_vec 15 and b = random_vec 16 in
  let ct = C.mul ctx keys (encrypt_vec ~seed:15 a) (encrypt_vec ~seed:16 b) in
  let ub = int_of_float scale in
  let d = C.max_rescale ctx ct ub in
  Alcotest.(check bool) "divisor > 1" true (d > 1);
  Alcotest.(check bool) "divisor <= ub" true (d <= ub);
  let ct' = C.rescale ctx ct d in
  Alcotest.(check int) "level dropped" (C.level_of ct - 1) (C.level_of ct');
  let prod = Array.init slots (fun i -> a.(i) *. b.(i)) in
  check_close ~tol:1e-2 "value preserved" prod ct'

let test_max_rescale_bounds () =
  let a = encrypt_vec ~seed:17 (random_vec 17) in
  Alcotest.(check int) "ub=1 -> 1" 1 (C.max_rescale ctx a 1);
  let one_prime = C.max_rescale ctx a ((1 lsl 30) - 1) in
  let primes = C.coeff_primes ctx in
  Alcotest.(check int) "one prime" primes.(Array.length primes - 1) one_prime;
  (* a huge ub consumes as many primes as fit in a native int (two 30-bit
     primes; a third would overflow), never dropping below level 1 *)
  let huge = C.max_rescale ctx a max_int in
  let rec count_factors x l acc =
    if l < 1 || x = 1 then acc
    else if x mod primes.(l - 1) = 0 then count_factors (x / primes.(l - 1)) (l - 1) (acc + 1)
    else acc
  in
  Alcotest.(check int) "two primes fit max_int" 2 (count_factors huge (C.max_level ctx) 0)

let test_depth_chain () =
  (* squaring chain: depth = num_coeff_primes - 1 with rescaling *)
  let v = Array.init slots (fun i -> 0.5 +. (0.001 *. float_of_int (i mod 7))) in
  let ct = ref (encrypt_vec ~seed:5 v) in
  let expected = ref (Array.copy v) in
  for _ = 1 to 2 do
    ct := C.mul ctx keys !ct !ct;
    let d = C.max_rescale ctx !ct (int_of_float scale) in
    ct := C.rescale ctx !ct d;
    expected := Array.map (fun x -> x *. x) !expected
  done;
  check_close ~tol:5e-2 "depth-2 squaring" !expected !ct

let test_rotate_exact_key () =
  let a = random_vec 18 in
  let rotated = Array.init slots (fun i -> a.((i + 1) mod slots)) in
  check_close ~tol:1e-2 "rot by 1" rotated (C.rotate ctx keys (encrypt_vec ~seed:18 a) 1);
  let rotated3 = Array.init slots (fun i -> a.((i + 3) mod slots)) in
  check_close ~tol:1e-2 "rot by 3" rotated3 (C.rotate ctx keys (encrypt_vec ~seed:118 a) 3)

let test_rotate_pow2_fallback () =
  (* 5 = 4 + 1 has no exact key here; must fall back to power-of-two keys *)
  let a = random_vec 19 in
  Alcotest.(check bool) "no exact key for 5" false (C.rotate_key_available keys ctx 5);
  let rotated = Array.init slots (fun i -> a.((i + 5) mod slots)) in
  check_close ~tol:1e-2 "rot by 5 via pow2" rotated (C.rotate ctx keys (encrypt_vec ~seed:19 a) 5)

let test_rotate_negative () =
  let a = random_vec 20 in
  let rotated = Array.init slots (fun i -> a.((i - 1 + slots) mod slots)) in
  check_close ~tol:1e-2 "rot right by 1" rotated (C.rotate ctx keys (encrypt_vec ~seed:20 a) (-1))

let test_rotate_zero () =
  let a = random_vec 21 in
  check_close "rot by 0" a (C.rotate ctx keys (encrypt_vec ~seed:21 a) 0)

(* the NTT-domain Galois permutation against the coefficient-domain
   automorphism, bit for bit, for every rotation amount and conjugation *)
let test_ntt_galois_permutation () =
  List.iter
    (fun n ->
      let ctx = C.make_context (C.default_params ~n ~bits:30 ~num_coeff_primes:2 ()) in
      let rq = C.rq_ctx ctx in
      let st = Random.State.make [| n |] in
      let coeffs = Array.init n (fun _ -> Random.State.int st 2001 - 1000) in
      let a = Rq_rns.of_centered_coeffs rq [| 0; 1; 2 |] coeffs in
      let a_ntt = Rq_rns.to_ntt rq a in
      let check g =
        let via_coeffs = Rq_rns.to_ntt rq (Ring_oracle.automorphism rq a ~g) in
        let perm = Encoding.ntt_automorphism_index ~n ~g in
        if not (Rq_rns.equal (Rq_rns.automorphism_ntt rq a_ntt ~perm) via_coeffs) then
          Alcotest.failf "n=%d g=%d: NTT-domain permutation differs" n g
      in
      for r = 1 to C.slot_count ctx - 1 do
        check (Encoding.galois_element (C.encoding ctx) r)
      done;
      check (Encoding.conj_element (C.encoding ctx)))
    [ 2048; 4096 ]

(* hoisted rotations decrypt to the rotated slots (exact keys, a
   power-of-two fallback, a right rotation and zero in one call) *)
let test_rotate_many () =
  let a = random_vec 17 in
  let amounts = [| 1; 3; 2; 5; -1; 0 |] in
  let outs = C.rotate_many ctx keys (encrypt_vec ~seed:17 a) amounts in
  Array.iteri
    (fun i r ->
      let rotated = Array.init slots (fun j -> a.((((j + r) mod slots) + slots) mod slots)) in
      check_close ~tol:1e-2 (Printf.sprintf "rot_many amount %d" r) rotated outs.(i))
    amounts

(* Key switching at every level 1..L (odd levels end in a one-prime digit).
   Each check compares against the decryption of the operand itself, so the
   fresh encryption noise cancels and only the key switch's error is left:
   - rotate and hoisted rotate_many: the decrypted input's slots, rotated;
     rotate_many's amounts come back unsettled and settle bit for bit to
     rotate's result;
   - relinearised mul: mul_plain by the decrypted second operand, which is
     the same product without the relinearisation. *)
let test_keyswitch_every_level () =
  let a = random_vec 31 and b = Array.map (fun x -> x /. 2.0) (random_vec 32) in
  let small = 16384.0 (* 2^14: the product's scale must fit level 1 *) in
  let enc ~seed s v =
    C.encrypt ctx (Sampling.create ~seed) keys.C.public
      (C.encode_real ctx ~level:(C.max_level ctx) ~scale:s v)
  in
  let top_a = enc ~seed:31 (2.0 ** 20.0) a in
  let top_x = enc ~seed:131 small (Array.map (fun x -> x /. 2.0) a)
  and top_y = enc ~seed:32 small b in
  (* complex slots: the fresh noise's imaginary part cancels too *)
  let slots_of ct = C.decode ctx (C.decrypt ctx sk ct) in
  let close what tol (expected : Complexv.t) ct =
    let diff = Complexv.max_abs_diff expected (slots_of ct) in
    if diff > tol then Alcotest.failf "%s: max abs diff %g > %g" what diff tol
  in
  for level = 1 to C.max_level ctx do
    let at ct = C.mod_switch_to_level ctx ct level in
    let ct = at top_a in
    let v = slots_of ct in
    let amounts = [| 1; 3; 2; -1 |] in
    let many = C.rotate_many ctx keys ct amounts in
    Array.iteri
      (fun i r ->
        let what = Printf.sprintf "level %d, rotate %d" level r in
        let one = C.rotate ctx keys ct r in
        let src j = (((j + r) mod slots) + slots) mod slots in
        let rotated =
          Complexv.of_complex
            (Array.init slots (fun j -> Complexv.get_re v (src j)))
            (Array.init slots (fun j -> Complexv.get_im v (src j)))
        in
        close what 5e-3 rotated one;
        if C.is_settled many.(i) then Alcotest.failf "%s: hoisted amount settled" what;
        if not (Rq_rns.equal (C.c0 one) (C.c0 many.(i)) && Rq_rns.equal (C.c1 one) (C.c1 many.(i)))
        then Alcotest.failf "%s: rotate_many differs from rotate" what)
      amounts;
    let x = at top_x and y = at top_y in
    let product = C.mul ctx keys x y in
    let reference = C.mul_plain ctx x (C.decrypt ctx sk y) in
    close (Printf.sprintf "level %d, relinearised mul" level) 1e-4 (slots_of reference) product
  done

(* The scheme's fused multiply-accumulates against the composition they
   stand for, bit for bit, at every level and for every mix of settled and
   unsettled (hoisted) operands: the same form, level, scale and settled
   components. *)
let test_fused_fma_every_level () =
  let same what a b =
    if
      not
        (C.is_settled a = C.is_settled b
        && C.level_of a = C.level_of b
        && C.scale_of a = C.scale_of b
        && Rq_rns.equal (C.c0 a) (C.c0 b)
        && Rq_rns.equal (C.c1 a) (C.c1 b))
    then Alcotest.failf "%s: fused differs from the composition" what
  in
  for level = 1 to C.max_level ctx do
    let at seed = C.mod_switch_to_level ctx (encrypt_vec ~seed (random_vec seed)) level in
    let base = at 41 and x = at 42 in
    let hoisted ct = C.rotate_many ctx keys ct [| 1; 2 |] in
    let base_u = (hoisted base).(0) and x_u = (hoisted x).(1) in
    let w = 0.37 and ws = 1024.0 in
    (* accumulators at the product's scale *)
    let acc = C.mul_scalar ctx base 0.8 ~scale:ws and acc_u = C.mul_scalar ctx base_u 0.8 ~scale:ws in
    List.iter
      (fun (tag, a, y) ->
        same
          (Printf.sprintf "level %d, fma_scalar %s" level tag)
          (C.fma_scalar ctx a y w ~scale:ws)
          (C.add ctx a (C.mul_scalar ctx y w ~scale:ws)))
      [
        ("settled + settled", acc, x);
        ("unsettled + settled", acc_u, x);
        ("settled + unsettled", acc, x_u);
        ("unsettled + unsettled", acc_u, x_u);
      ];
    let pt = C.encode_real ctx ~level ~scale (random_vec 43) in
    List.iter
      (fun (tag, a, y) ->
        same
          (Printf.sprintf "level %d, fma_plain %s" level tag)
          (C.fma_plain ctx a y pt)
          (C.add ctx a (C.mul_plain ctx y pt)))
      [
        ("settled + settled", C.mul_plain ctx base pt, x);
        ("settled + unsettled", C.mul_plain ctx base pt, x_u);
        ("unsettled + settled", C.mul_scalar ctx base_u 0.5 ~scale, x);
      ]
  done

(* Pending sums: [fma_scalar], [fma_plain] and [add] only collect terms,
   and the one-pass materialisation equals the chain of two-operand ops
   (each step materialised at once) bit for bit, at every level, for every
   mix of settled and unsettled accumulators, scalar, plaintext and added
   terms, and pending addends. *)
let same_ct what a b =
  if
    not
      (C.is_settled a = C.is_settled b
      && C.level_of a = C.level_of b
      && C.scale_of a = C.scale_of b
      && Rq_rns.equal (C.c0 a) (C.c0 b)
      && Rq_rns.equal (C.c1 a) (C.c1 b))
  then Alcotest.failf "%s: differs" what

let test_pending_sum_every_level () =
  let ws = 1024.0 in
  for level = 1 to C.max_level ctx do
    let at seed = C.mod_switch_to_level ctx (encrypt_vec ~seed (random_vec seed)) level in
    let hoisted ct = (C.rotate_many ctx keys ct [| 1; 3 |]).(0) in
    let base = at 61 and x = at 62 and y = at 63 in
    let x_u = hoisted x and y_u = hoisted y in
    let pt seed = C.encode_real ctx ~level ~scale:ws (random_vec seed) in
    let pt1 = pt 64 and pt2 = pt 65 in
    (* addends at the product's scale; the last one is itself pending *)
    let add_s = C.mul_scalar ctx y 0.3 ~scale:ws in
    let add_u = C.mul_scalar ctx y_u (-0.7) ~scale:ws in
    let terms =
      [
        ("scalar settled", fun acc -> C.fma_scalar ctx acc x 0.37 ~scale:ws);
        ("scalar unsettled", fun acc -> C.fma_scalar ctx acc x_u (-0.61) ~scale:ws);
        ("plain", fun acc -> C.fma_plain ctx acc y pt1);
        ("plain of unsettled", fun acc -> C.fma_plain ctx acc x_u pt2);
        ("add settled", fun acc -> C.add ctx acc add_s);
        ("add unsettled", fun acc -> C.add ctx acc add_u);
        ("add pending", fun acc -> C.add ctx acc (C.fma_plain ctx add_s x pt1));
      ]
    in
    let sequences =
      List.map (fun (tag, f) -> (tag ^ " x3", [ f; f; f ])) terms
      @ [ ("every kind", List.map snd terms); ("every kind, reversed", List.rev_map snd terms) ]
    in
    List.iter
      (fun (acc_tag, acc) ->
        List.iter
          (fun (tag, steps) ->
            let what = Printf.sprintf "level %d, %s accumulator, %s" level acc_tag tag in
            let chain = List.fold_left (fun a f -> C.materialise (f a)) acc steps in
            let sum = List.fold_left (fun a f -> f a) acc steps in
            if not (C.is_pending sum) then Alcotest.failf "%s: sum computed eagerly" what;
            same_ct what chain sum)
          sequences)
      [
        ("settled", C.mul_scalar ctx base 0.8 ~scale:ws);
        ("unsettled", C.mul_scalar ctx (hoisted base) 0.8 ~scale:ws);
      ]
  done

(* [sum ()] builds a fresh pending sum of the same terms, settled or
   unsettled, each time it is called *)
let pending_sum seed ~unsettled =
  let ws = 1024.0 in
  let ct = encrypt_vec ~seed (random_vec seed) in
  let x = if unsettled then (C.rotate_many ctx keys ct [| 1; 3 |]).(1) else ct in
  let pt = C.encode_real ctx ~level:(C.max_level ctx) ~scale:ws (random_vec (seed + 1)) in
  fun () ->
    C.fma_plain ctx (C.fma_scalar ctx (C.mul_scalar ctx ct 0.5 ~scale:ws) x 0.25 ~scale:ws) ct pt

(* materialising is done once: the same value, physically, on every call *)
let test_materialise_once () =
  List.iter
    (fun unsettled ->
      let s = pending_sum 71 ~unsettled () in
      Alcotest.(check bool) "pending" true (C.is_pending s);
      Alcotest.(check bool) "form known before" unsettled (not (C.is_settled s));
      let m = C.materialise s in
      Alcotest.(check bool) "materialised" false (C.is_pending m);
      Alcotest.(check bool) "materialising twice" true (C.materialise s == m);
      Alcotest.(check bool) "form kept" unsettled (not (C.is_settled m));
      Alcotest.(check bool) "settled once" true (C.settle s == C.settle m);
      Alcotest.(check bool) "components" true (C.c0 s == C.c0 m && C.c1 s == C.c1 m))
    [ false; true ]

(* every op that reads the polynomials takes a pending operand and gives
   what it gives on the materialised form, bit for bit *)
let test_materialising_ops () =
  let pt = C.encode_real ctx ~level:(C.max_level ctx) ~scale (random_vec 74) in
  let poly ct = (C.decrypt ctx sk ct).C.poly in
  List.iter
    (fun unsettled ->
      let sum = pending_sum 72 ~unsettled in
      let check what f =
        let from_pending = f (sum ()) in
        let from_value = f (C.materialise (sum ())) in
        Array.iteri
          (fun i (a, b) ->
            if not (Rq_rns.equal (poly a) (poly b)) then
              Alcotest.failf "%s (%s, result %d): pending operand differs" what
                (if unsettled then "unsettled" else "settled") i)
          (Array.combine from_pending from_value)
      in
      let one f x = [| f x |] in
      check "settle" (one C.settle);
      check "decrypt" (one Fun.id);
      check "mul_plain" (one (fun x -> C.mul_plain ctx x pt));
      let addend x =
        C.encode_real ctx ~level:(C.max_level ctx) ~scale:(C.scale_of x) (random_vec 75)
      in
      check "add_plain" (one (fun x -> C.add_plain ctx x (addend x)));
      check "add_scalar" (one (fun x -> C.add_scalar ctx x 0.75));
      check "mul_scalar" (one (fun x -> C.mul_scalar ctx x 0.5 ~scale:16.0));
      check "mul" (one (fun x -> C.mul ctx keys x x));
      check "rescale" (one (fun x -> C.rescale ctx x (C.max_rescale ctx x (1 lsl 30))));
      check "mod_switch_to_level"
        (one (fun x -> C.mod_switch_to_level ctx x (C.max_level ctx - 1)));
      check "rotate" (one (fun x -> C.rotate ctx keys x 1));
      check "rotate_many" (fun x -> C.rotate_many ctx keys x [| 1; 3; 5 |]);
      let c0 x = C.of_parts ~c0:(C.c0 x) ~c1:(C.c1 x) ~level:(C.level_of x) ~scale:(C.scale_of x) in
      check "c0/c1" (one c0))
    [ false; true ]

(* A weighted sum of 8 hoisted amounts, with settled terms mixed in, stays
   unsettled until it is used, decrypts to the cleartext sum, and differs
   from the same sum of settled rotations only by rounding. *)
let test_deferred_rotation_sum () =
  let a = random_vec 51 in
  let ct = encrypt_vec ~seed:51 a in
  let amounts = [| 1; 2; 3; 4; 8; 16; 32; 64 |] in
  let weights = Array.init 8 (fun i -> 0.25 +. (0.1 *. float_of_int i)) in
  let ws = 1024.0 in
  let sum rotations =
    let acc = ref (C.mul_scalar ctx rotations.(0) weights.(0) ~scale:ws) in
    for i = 1 to 7 do
      acc := C.fma_scalar ctx !acc rotations.(i) weights.(i) ~scale:ws;
      (* a settled term joins halfway *)
      if i = 4 then acc := C.fma_scalar ctx !acc ct 0.5 ~scale:ws
    done;
    C.add ctx !acc (C.mul_scalar ctx ct (-0.25) ~scale:ws)
  in
  let hoisted = C.rotate_many ctx keys ct amounts in
  Array.iter (fun r -> Alcotest.(check bool) "hoisted amount unsettled" false (C.is_settled r)) hoisted;
  let deferred = sum hoisted in
  Alcotest.(check bool) "sum unsettled" false (C.is_settled deferred);
  let settled_each = sum (Array.map C.settle hoisted) in
  Alcotest.(check bool) "sum of settled rotations settled" true (C.is_settled settled_each);
  let expected =
    Array.init slots (fun j ->
        let acc = ref (0.25 *. a.(j)) in
        Array.iteri (fun i r -> acc := !acc +. (weights.(i) *. a.((j + r) mod slots))) amounts;
        !acc)
  in
  check_close ~tol:5e-3 "deferred sum" expected deferred;
  let diff = Complexv.max_abs_diff (decrypt_vec deferred) (decrypt_vec settled_each) in
  if diff > 1e-4 then Alcotest.failf "deferred vs settled-each sum: %g > 1e-4" diff

(* settling is memoised: the same value, physically, on every call *)
let test_settle_memoised () =
  let ct = encrypt_vec ~seed:52 (random_vec 52) in
  Alcotest.(check bool) "a settled ciphertext settles to itself" true (C.settle ct == ct);
  let r = (C.rotate_many ctx keys ct [| 1; 3 |]).(0) in
  let s = C.settle r in
  Alcotest.(check bool) "settled" true (C.is_settled s);
  Alcotest.(check bool) "settling twice" true (C.settle r == s);
  Alcotest.(check bool) "components" true (C.c0 r == C.c0 s && C.c1 r == C.c1 s);
  Alcotest.(check bool) "a settled form settles to itself" true (C.settle s == s)

(* every op that needs the chain basis takes an unsettled operand and
   decrypts exactly as when given its settled form *)
let test_settling_ops () =
  let ct = encrypt_vec ~seed:53 (random_vec 53) in
  let u = (C.rotate_many ctx keys ct [| 1; 3 |]).(0) in
  let s = C.settle u in
  let pt = C.encode_real ctx ~level:(C.max_level ctx) ~scale (random_vec 54) in
  let poly ct = (C.decrypt ctx sk ct).C.poly in
  let check what f =
    let from_u = f u and from_s = f s in
    Array.iteri
      (fun i (a, b) ->
        if not (Rq_rns.equal (poly a) (poly b)) then
          Alcotest.failf "%s (result %d): unsettled operand decrypts differently" what i)
      (Array.combine from_u from_s)
  in
  let one f x = [| f x |] in
  check "mul_plain" (one (fun x -> C.mul_plain ctx x pt));
  check "add_plain" (one (fun x -> C.add_plain ctx x pt));
  check "add_scalar" (one (fun x -> C.add_scalar ctx x 0.75));
  check "mul" (one (fun x -> C.mul ctx keys x x));
  check "rescale" (one (fun x -> C.rescale ctx x (C.max_rescale ctx x (1 lsl 30))));
  check "mod_switch_to_level" (one (fun x -> C.mod_switch_to_level ctx x (C.max_level ctx - 1)));
  check "rotate" (one (fun x -> C.rotate ctx keys x 1));
  check "rotate_many" (fun x -> C.rotate_many ctx keys x [| 1; 3; 5 |]);
  check "decrypt" (one Fun.id)

(* Centered digits over a two-prime special modulus: one rotation adds less
   than the fresh encryption error. A digit lifted into [0, q) instead has
   mean q/2, a structured term that multiplies the slot error several-fold.
   Max slot error over inputs uniform in [-1, 1]. *)
let test_rotation_error_vs_fresh () =
  let n = 2048 in
  let ctx = C.make_context (C.default_params ~n ~bits:30 ~num_coeff_primes:6 ()) in
  let slots = C.slot_count ctx in
  List.iter
    (fun seed ->
      let rng = Sampling.create ~seed in
      let sk, keys = C.keygen ctx rng in
      C.add_rotation_key ctx rng sk keys 1;
      let st = Random.State.make [| seed |] in
      let v = Array.init slots (fun _ -> Random.State.float st 2.0 -. 1.0) in
      List.iter
        (fun bits ->
          let scale = 2.0 ** float_of_int bits in
          let ct =
            C.encrypt ctx rng keys.C.public (C.encode_real ctx ~level:(C.max_level ctx) ~scale v)
          in
          let err expected ct =
            Complexv.max_abs_diff (Complexv.of_real expected) (C.decode ctx (C.decrypt ctx sk ct))
          in
          let fresh = err v ct in
          let rotated = err (Array.init slots (fun i -> v.((i + 1) mod slots))) (C.rotate ctx keys ct 1) in
          if rotated > 2.0 *. fresh then
            Alcotest.failf "seed %d, scale 2^%d: rotation error %g > 2 x fresh %g" seed bits rotated
              fresh)
        [ 20; 30 ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_wrong_key_fails () =
  (* decrypting with a fresh secret key must not recover the message *)
  let rng2 = Sampling.create ~seed:999 in
  let sk2, _ = C.keygen ctx rng2 in
  let a = random_vec 22 in
  let got = C.decode ctx (C.decrypt ctx sk2 (encrypt_vec ~seed:22 a)) in
  let diff = Complexv.max_abs_diff (Complexv.of_real a) got in
  Alcotest.(check bool) "garbage without the key" true (diff > 1.0)

let test_level_mismatch_rejected () =
  let a = encrypt_vec ~seed:23 (random_vec 23) and b = encrypt_vec ~seed:24 (random_vec 24) in
  let b' = C.rescale ctx (C.mul ctx keys b b) (C.max_rescale ctx b (int_of_float scale)) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (C.add ctx a b');
       false
     with Herr.Fhe_error (Herr.Level_mismatch _, _) -> true)

let test_scale_mismatch_rejected () =
  let a = encrypt_vec ~seed:25 (random_vec 25) in
  let b = C.mul_scalar ctx (encrypt_vec ~seed:26 (random_vec 26)) 1.0 ~scale:2.0 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (C.add ctx a b);
       false
     with Herr.Fhe_error (Herr.Scale_mismatch _, _) -> true)

let test_security_params () =
  Alcotest.(check bool) "modulus bits counted" true (C.total_modulus_bits ctx > 0);
  Alcotest.(check int) "slot count" (n / 2) (C.slot_count ctx);
  let specials = C.special_primes ctx in
  Alcotest.(check int) "two special primes" 2 (Array.length specials);
  let top = Array.fold_left Stdlib.max 0 (C.coeff_primes ctx) in
  Array.iter
    (fun p -> Alcotest.(check bool) (Printf.sprintf "special %d > every chain prime" p) true (p > top))
    specials;
  Alcotest.(check int) "one key pair per two-prime digit" ((C.max_level ctx + 1) / 2)
    (Array.length (C.kswitch_pairs keys.C.relin))

let suite =
  [
    ( "rns_ckks",
      [
        Alcotest.test_case "encrypt/decrypt" `Quick test_encrypt_decrypt;
        Alcotest.test_case "encryption randomized" `Quick test_encrypt_is_randomized;
        Alcotest.test_case "add" `Quick test_add;
        Alcotest.test_case "add_plain" `Quick test_add_plain;
        Alcotest.test_case "mul (relinearised)" `Quick test_mul;
        Alcotest.test_case "mul_plain" `Quick test_mul_plain;
        Alcotest.test_case "mul_scalar" `Quick test_mul_scalar;
        Alcotest.test_case "add_scalar" `Quick test_add_scalar;
        Alcotest.test_case "rescale" `Quick test_rescale;
        Alcotest.test_case "max_rescale bounds" `Quick test_max_rescale_bounds;
        Alcotest.test_case "depth-2 squaring chain" `Quick test_depth_chain;
        Alcotest.test_case "rotate with exact key" `Quick test_rotate_exact_key;
        Alcotest.test_case "rotate pow2 fallback" `Quick test_rotate_pow2_fallback;
        Alcotest.test_case "rotate negative" `Quick test_rotate_negative;
        Alcotest.test_case "rotate zero" `Quick test_rotate_zero;
        Alcotest.test_case "NTT-domain Galois permutation" `Quick test_ntt_galois_permutation;
        Alcotest.test_case "hoisted rotate_many" `Quick test_rotate_many;
        Alcotest.test_case "key switching at every level" `Quick test_keyswitch_every_level;
        Alcotest.test_case "fused fma = composition at every level" `Quick
          test_fused_fma_every_level;
        Alcotest.test_case "deferred sum of hoisted rotations" `Quick test_deferred_rotation_sum;
        Alcotest.test_case "settling is memoised" `Quick test_settle_memoised;
        Alcotest.test_case "settling ops accept unsettled operands" `Quick test_settling_ops;
        Alcotest.test_case "pending sum = two-operand chain at every level" `Quick
          test_pending_sum_every_level;
        Alcotest.test_case "a pending sum materialises once" `Quick test_materialise_once;
        Alcotest.test_case "materialising ops accept pending operands" `Quick
          test_materialising_ops;
        Alcotest.test_case "one rotation's error within 2x fresh" `Quick test_rotation_error_vs_fresh;
        Alcotest.test_case "wrong key garbles" `Quick test_wrong_key_fails;
        Alcotest.test_case "level mismatch rejected" `Quick test_level_mismatch_rejected;
        Alcotest.test_case "scale mismatch rejected" `Quick test_scale_mismatch_rejected;
        Alcotest.test_case "context parameters" `Quick test_security_params;
      ] );
  ]

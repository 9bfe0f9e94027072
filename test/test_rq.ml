(* Unit and property tests for the polynomial-ring layers underneath the two
   CKKS schemes: RNS double-CRT polynomials and big-integer negacyclic
   polynomials. *)

open Chet_crypto
module B = Chet_bigint.Bigint

(* ------------------------------------------------------------------ *)
(* Rq_rns                                                              *)
(* ------------------------------------------------------------------ *)

let n = 32
let primes = Modarith.gen_ntt_primes ~bits:30 ~modulus_of:(2 * n) ~count:4
let ctx = Rq_rns.make_ctx ~n ~primes
let full = [| 0; 1; 2; 3 |]

let poly_of_ints ints = Rq_rns.of_centered_coeffs ctx full ints

let random_ints seed bound =
  let st = Random.State.make [| seed |] in
  Array.init n (fun _ -> Random.State.full_int st (2 * bound) - bound)

let test_rns_roundtrip () =
  let ints = random_ints 1 1000 in
  let p = poly_of_ints ints in
  let back = Rq_rns.to_centered_bigint_coeffs ctx p in
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "coeff %d" i) c (B.to_int back.(i)))
    ints

let test_rns_ntt_roundtrip () =
  let p = poly_of_ints (random_ints 2 1000) in
  let q = Rq_rns.from_ntt ctx (Rq_rns.to_ntt ctx p) in
  Alcotest.(check bool) "roundtrip" true (Rq_rns.equal p q)

let test_rns_mul_matches_bigint () =
  (* multiply in RNS, check against schoolbook negacyclic multiplication over
     the integers (coefficients small enough not to wrap Q) *)
  let a = random_ints 3 50 and b = random_ints 4 50 in
  let pa = poly_of_ints a and pb = poly_of_ints b in
  let prod = Rq_rns.from_ntt ctx (Rq_rns.mul ctx pa pb) in
  let got = Rq_rns.to_centered_bigint_coeffs ctx prod in
  let expected = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let p = a.(i) * b.(j) in
      let k = i + j in
      if k < n then expected.(k) <- expected.(k) + p else expected.(k - n) <- expected.(k - n) - p
    done
  done;
  Array.iteri (fun i e -> Alcotest.(check int) (Printf.sprintf "c%d" i) e (B.to_int got.(i))) expected

let test_rns_drop_last_rounded_divides () =
  (* rescale semantics: dropping the last prime with rounding divides
     centered values by q_last with bounded rounding error *)
  let big = 1 lsl 40 in
  let ints = random_ints 5 big in
  let p = Rq_rns.to_ntt ctx (poly_of_ints ints) in
  let dropped = Rq_rns.div_round_ntt ctx p ~drop:1 in
  let got = Rq_rns.to_centered_bigint_coeffs ctx dropped in
  let q_last = float_of_int primes.(3) in
  Array.iteri
    (fun i c ->
      let expected = float_of_int c /. q_last in
      let diff = Float.abs (B.to_float got.(i) -. expected) in
      if diff > 1.0 then Alcotest.failf "coeff %d: %f vs %f" i (B.to_float got.(i)) expected)
    ints

let test_rns_drop_last_unrounded_is_projection () =
  let ints = random_ints 6 1000 in
  let p = poly_of_ints ints in
  let dropped = Rq_rns.truncate p 3 in
  Alcotest.(check bool) "same as subset" true
    (Rq_rns.equal dropped (Rq_rns.subset p [| 0; 1; 2 |]))

let test_rns_subset_and_basis () =
  let p = poly_of_ints (random_ints 7 100) in
  let s = Rq_rns.subset p [| 1; 3 |] in
  Alcotest.(check (array int)) "basis" [| 1; 3 |] (Rq_rns.basis s);
  Alcotest.(check (array int)) "component preserved" (Rq_rns.component p ~basis_index:3)
    (Rq_rns.component s ~basis_index:3);
  Alcotest.(check bool) "missing index rejected" true
    (try
       ignore (Rq_rns.subset s [| 0 |]);
       false
     with Invalid_argument _ -> true)

let test_rns_automorphism_composition () =
  (* φ_g1 ∘ φ_g2 = φ_(g1·g2 mod 2n) *)
  let p = poly_of_ints (random_ints 8 100) in
  let g1 = 5 and g2 = 9 in
  let lhs = Rq_rns.automorphism ctx (Rq_rns.automorphism ctx p ~g:g2) ~g:g1 in
  let rhs = Rq_rns.automorphism ctx p ~g:(g1 * g2 mod (2 * n)) in
  Alcotest.(check bool) "composition" true (Rq_rns.equal lhs rhs)

let test_rns_mismatched_basis_rejected () =
  let p = poly_of_ints (random_ints 9 10) in
  let s = Rq_rns.subset p [| 0; 1 |] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Rq_rns.add ctx p s);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Rq_big                                                              *)
(* ------------------------------------------------------------------ *)

let bctx = Rq_big.make_ctx ~n ~max_product_bits:200
let logq = 90

let test_big_mul_matches_schoolbook () =
  let a = random_ints 10 1000 and b = random_ints 11 1000 in
  let pa = Rq_big.of_centered_coeffs bctx logq a and pb = Rq_big.of_centered_coeffs bctx logq b in
  let got = Rq_big.to_centered_bigint_coeffs bctx (Rq_big.mul bctx pa pb) in
  let expected = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let p = a.(i) * b.(j) in
      let k = i + j in
      if k < n then expected.(k) <- expected.(k) + p else expected.(k - n) <- expected.(k - n) - p
    done
  done;
  Array.iteri (fun i e -> Alcotest.(check int) (Printf.sprintf "c%d" i) e (B.to_int got.(i))) expected

let test_big_rescale_pow2 () =
  let a = [| 1 lsl 20; -(1 lsl 21); 3 lsl 19; 0 |] in
  let padded = Array.append a (Array.make (n - 4) 0) in
  let p = Rq_big.of_centered_coeffs bctx logq padded in
  let r = Rq_big.to_centered_bigint_coeffs bctx (Rq_big.div_round_pow2 bctx p ~k:10) in
  Alcotest.(check int) "c0" (1 lsl 10) (B.to_int r.(0));
  Alcotest.(check int) "c1" (-(1 lsl 11)) (B.to_int r.(1));
  Alcotest.(check int) "c2" (3 lsl 9) (B.to_int r.(2));
  Alcotest.(check int) "c3" 0 (B.to_int r.(3))

let test_big_mod_down_preserves_small () =
  let ints = random_ints 12 1000 in
  let p = Rq_big.of_centered_coeffs bctx logq ints in
  let down = Rq_big.to_centered_bigint_coeffs bctx (Rq_big.mod_down bctx p 40) in
  Array.iteri (fun i c -> Alcotest.(check int) "preserved" c (B.to_int down.(i))) ints

let test_big_automorphism_matches_rns () =
  let ints = random_ints 13 500 in
  let g = 5 in
  let via_big =
    Rq_big.to_centered_bigint_coeffs bctx
      (Rq_big.automorphism bctx (Rq_big.of_centered_coeffs bctx logq ints) ~g)
  in
  let via_rns = Rq_rns.to_centered_bigint_coeffs ctx (Rq_rns.automorphism ctx (poly_of_ints ints) ~g) in
  Array.iteri
    (fun i v -> Alcotest.(check bool) (Printf.sprintf "c%d" i) true (B.equal v via_rns.(i)))
    via_big

(* property: ring axioms through the RNS representation *)
let prop name count f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:string_of_int QCheck2.Gen.(int_range 0 100000) f)

let props =
  [
    prop "rns add commutes" 50 (fun seed ->
        let a = poly_of_ints (random_ints seed 10000) in
        let b = poly_of_ints (random_ints (seed + 1) 10000) in
        Rq_rns.equal (Rq_rns.add ctx a b) (Rq_rns.add ctx b a));
    prop "rns mul distributes" 30 (fun seed ->
        let a = poly_of_ints (random_ints seed 500) in
        let b = poly_of_ints (random_ints (seed + 1) 500) in
        let c = poly_of_ints (random_ints (seed + 2) 500) in
        let lhs = Rq_rns.from_ntt ctx (Rq_rns.mul ctx a (Rq_rns.add ctx b c)) in
        let rhs =
          Rq_rns.from_ntt ctx
            (Rq_rns.add ctx (Rq_rns.mul ctx a b) (Rq_rns.mul ctx a c))
        in
        Rq_rns.to_bigint_coeffs ctx lhs = Rq_rns.to_bigint_coeffs ctx rhs);
    prop "rns neg is additive inverse" 50 (fun seed ->
        let a = poly_of_ints (random_ints seed 10000) in
        let z = Rq_rns.add ctx a (Rq_rns.neg ctx a) in
        Array.for_all B.is_zero (Rq_rns.to_bigint_coeffs ctx z));
    prop "big canonical roundtrip" 50 (fun seed ->
        let ints = random_ints seed 100000 in
        let p = Rq_big.of_centered_coeffs bctx logq ints in
        Rq_big.equal (Rq_big.of_bigint_coeffs bctx logq (Rq_big.to_bigint_coeffs bctx p)) p);
  ]

let suite =
  [
    ( "rq:unit",
      [
        Alcotest.test_case "rns CRT roundtrip" `Quick test_rns_roundtrip;
        Alcotest.test_case "rns NTT roundtrip" `Quick test_rns_ntt_roundtrip;
        Alcotest.test_case "rns mul = schoolbook" `Quick test_rns_mul_matches_bigint;
        Alcotest.test_case "rns rescale divides" `Quick test_rns_drop_last_rounded_divides;
        Alcotest.test_case "rns drop unrounded = projection" `Quick test_rns_drop_last_unrounded_is_projection;
        Alcotest.test_case "rns subset/basis" `Quick test_rns_subset_and_basis;
        Alcotest.test_case "rns automorphism composes" `Quick test_rns_automorphism_composition;
        Alcotest.test_case "rns basis mismatch rejected" `Quick test_rns_mismatched_basis_rejected;
        Alcotest.test_case "big mul = schoolbook" `Quick test_big_mul_matches_schoolbook;
        Alcotest.test_case "big rescale pow2" `Quick test_big_rescale_pow2;
        Alcotest.test_case "big mod_down" `Quick test_big_mod_down_preserves_small;
        Alcotest.test_case "big automorphism = rns automorphism" `Quick test_big_automorphism_matches_rns;
      ] );
    ("rq:props", props);
  ]

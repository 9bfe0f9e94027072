(* Tests for the crypto substrates: modular arithmetic, NTT, FFT, the CKKS
   canonical embedding, and security tables. *)

open Chet_crypto
module B = Chet_bigint.Bigint

let prop name count print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

(* ------------------------------------------------------------------ *)
(* Modarith                                                            *)
(* ------------------------------------------------------------------ *)

let test_is_prime () =
  List.iter
    (fun (n, expected) -> Alcotest.(check bool) (string_of_int n) expected (Modarith.is_prime n))
    [
      (0, false); (1, false); (2, true); (3, true); (4, false); (17, true); (561, false);
      (* Carmichael *) (7919, true); (1073741789, true); (1073741790, false);
      ((1 lsl 31) - 1, true) (* Mersenne prime 2^31-1 *);
    ]

let test_ntt_prime_gen () =
  let n = 1024 in
  let primes = Modarith.gen_ntt_primes ~bits:30 ~modulus_of:(2 * n) ~count:5 in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "prime" true (Modarith.is_prime p);
      Alcotest.(check int) "ntt friendly" 1 (p mod (2 * n));
      Alcotest.(check bool) "30 bits" true (p < 1 lsl 30))
    primes;
  (* distinct and descending *)
  for i = 1 to 4 do
    Alcotest.(check bool) "descending" true (primes.(i) < primes.(i - 1))
  done;
  (* every RNS prime is below 2^30, the NTT's bound *)
  Alcotest.check_raises "31 bits" (Invalid_argument "Modarith.gen_ntt_prime: bits must be <= 30")
    (fun () -> ignore (Modarith.gen_ntt_primes ~bits:31 ~modulus_of:(2 * n) ~count:1))

let test_primitive_root () =
  let p = 7681 in
  let g = Modarith.primitive_root p in
  (* order of g must be exactly p-1 *)
  Alcotest.(check int) "g^(p-1)" 1 (Modarith.pow_mod g (p - 1) p);
  List.iter
    (fun q -> Alcotest.(check bool) "proper subgroup" true (Modarith.pow_mod g ((p - 1) / q) p <> 1))
    [ 2; 3; 5 ]

let test_root_of_unity () =
  let p = 7681 in
  let w = Modarith.root_of_unity ~order:512 p in
  Alcotest.(check int) "w^512" 1 (Modarith.pow_mod w 512 p);
  Alcotest.(check bool) "w^256 <> 1" true (Modarith.pow_mod w 256 p <> 1)

let test_inv_mod () =
  let p = 1073741789 in
  for a = 1 to 50 do
    let inv = Modarith.inv_mod a p in
    Alcotest.(check int) "a * inv" 1 (Modarith.mul_mod a inv p)
  done;
  Alcotest.check_raises "non invertible" (Invalid_argument "Modarith.inv_mod: not invertible")
    (fun () -> ignore (Modarith.inv_mod 6 9))

(* ------------------------------------------------------------------ *)
(* NTT                                                                 *)
(* ------------------------------------------------------------------ *)

let ntt_n = 64
let ntt_prime = Modarith.gen_ntt_prime ~bits:30 ~modulus_of:(2 * ntt_n) ~below:(1 lsl 30)
let ntt_tbl = Ntt.make_table ~n:ntt_n ~prime:ntt_prime

(* the library transform, in place on an int array *)
let forward a =
  let b = Rvec.of_int_array a in
  Ntt.forward_buf ntt_tbl b;
  Array.blit (Rvec.to_int_array b) 0 a 0 ntt_n

let inverse a =
  let b = Rvec.of_int_array a in
  Ntt.inverse_buf ntt_tbl b;
  Array.blit (Rvec.to_int_array b) 0 a 0 ntt_n

(* a ring product through the transform: forward, pointwise, inverse *)
let negacyclic_mul a b =
  let fa = Rvec.of_int_array a and fb = Rvec.of_int_array b in
  Ntt.forward_buf ntt_tbl fa;
  Ntt.forward_buf ntt_tbl fb;
  Rvec.pointwise_mul_into fa fa fb ntt_prime;
  Ntt.inverse_buf ntt_tbl fa;
  Rvec.to_int_array fa

let naive_negacyclic a b p =
  let n = Array.length a in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let prod = Modarith.mul_mod a.(i) b.(j) p in
      let k = i + j in
      if k < n then r.(k) <- Modarith.add_mod r.(k) prod p
      else r.(k - n) <- Modarith.sub_mod r.(k - n) prod p
    done
  done;
  r

let test_ntt_roundtrip () =
  let rng = Random.State.make [| 7 |] in
  let a = Array.init ntt_n (fun _ -> Random.State.int rng ntt_prime) in
  let b = Array.copy a in
  forward b;
  Alcotest.(check bool) "transform changes data" true (a <> b);
  inverse b;
  Alcotest.(check (array int)) "roundtrip" a b

let test_ntt_mul_matches_naive () =
  let rng = Random.State.make [| 8 |] in
  for _ = 1 to 5 do
    let a = Array.init ntt_n (fun _ -> Random.State.int rng ntt_prime) in
    let b = Array.init ntt_n (fun _ -> Random.State.int rng ntt_prime) in
    Alcotest.(check (array int)) "negacyclic" (naive_negacyclic a b ntt_prime) (negacyclic_mul a b)
  done

let test_ntt_x_times_x () =
  (* X^(n-1) * X = X^n = -1 in the negacyclic ring *)
  let x k = Array.init ntt_n (fun i -> if i = k then 1 else 0) in
  let r = negacyclic_mul (x (ntt_n - 1)) (x 1) in
  let expected = Array.make ntt_n 0 in
  expected.(0) <- ntt_prime - 1;
  Alcotest.(check (array int)) "wraps negatively" expected r

(* ------------------------------------------------------------------ *)
(* FFT / Encoding                                                      *)
(* ------------------------------------------------------------------ *)

let test_fft_roundtrip () =
  let rng = Random.State.make [| 9 |] in
  let n = 128 in
  let re = Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let im = Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let re' = Array.copy re and im' = Array.copy im in
  Fft.forward ~re:re' ~im:im';
  Fft.inverse ~re:re' ~im:im';
  Array.iteri (fun i v -> Alcotest.(check (float 1e-9)) "re" v re'.(i)) re;
  Array.iteri (fun i v -> Alcotest.(check (float 1e-9)) "im" v im'.(i)) im

let test_fft_delta () =
  (* FFT of delta at 0 is constant 1 *)
  let n = 16 in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  re.(0) <- 1.0;
  Fft.forward ~re ~im;
  Array.iter (fun v -> Alcotest.(check (float 1e-12)) "flat" 1.0 v) re;
  Array.iter (fun v -> Alcotest.(check (float 1e-12)) "no imag" 0.0 v) im

let test_encoding_roundtrip () =
  let ctx = Encoding.make ~n:64 in
  let slots = Encoding.slots ctx in
  let rng = Random.State.make [| 10 |] in
  let zre = Array.init slots (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let zim = Array.init slots (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let scale = 1048576.0 in
  let coeffs = Encoding.encode ctx ~scale ~re:zre ~im:zim in
  (* coefficients are real by construction; round and decode *)
  let rounded = Array.map Float.round coeffs in
  let re', im' = Encoding.decode ctx ~scale rounded in
  Array.iteri (fun i v -> Alcotest.(check (float 1e-4)) "re" v re'.(i)) zre;
  Array.iteri (fun i v -> Alcotest.(check (float 1e-4)) "im" v im'.(i)) zim

let test_encoding_constant () =
  (* the constant polynomial c has every slot equal to c *)
  let ctx = Encoding.make ~n:32 in
  let coeffs = Array.make 32 0.0 in
  coeffs.(0) <- 42.0;
  let re, im = Encoding.decode ctx ~scale:1.0 coeffs in
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "const re" 42.0 v) re;
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "const im" 0.0 v) im

let test_encoding_rotation_automorphism () =
  (* applying X -> X^(5^r) to the coefficients rotates slots left by r *)
  let n = 64 in
  let ctx = Encoding.make ~n in
  let slots = Encoding.slots ctx in
  let rng = Random.State.make [| 11 |] in
  let zre = Array.init slots (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let zim = Array.make slots 0.0 in
  let scale = 4194304.0 in
  let coeffs = Array.map Float.round (Encoding.encode ctx ~scale ~re:zre ~im:zim) in
  let r = 3 in
  let g = Encoding.galois_element ctx r in
  let index = Encoding.automorphism_index ~n ~g in
  let rotated = Array.make n 0.0 in
  Array.iteri
    (fun k c ->
      let k', negate = index.(k) in
      rotated.(k') <- (if negate then -.c else c))
    coeffs;
  let re', _ = Encoding.decode ctx ~scale rotated in
  for j = 0 to slots - 1 do
    Alcotest.(check (float 1e-4)) (Printf.sprintf "slot %d" j) zre.((j + r) mod slots) re'.(j)
  done

let test_galois_element () =
  let ctx = Encoding.make ~n:16 in
  Alcotest.(check int) "r=0" 1 (Encoding.galois_element ctx 0);
  Alcotest.(check int) "r=1" 5 (Encoding.galois_element ctx 1);
  Alcotest.(check int) "r=2" 25 (Encoding.galois_element ctx 2);
  Alcotest.(check int) "r=-1 = r=slots-1" (Encoding.galois_element ctx 7) (Encoding.galois_element ctx (-1));
  Alcotest.(check int) "conj" 31 (Encoding.conj_element ctx)

(* ------------------------------------------------------------------ *)
(* Security tables                                                     *)
(* ------------------------------------------------------------------ *)

let test_security_table () =
  Alcotest.(check int) "8192@128" 218 (Security.max_log_q Security.Bits128 8192);
  Alcotest.(check int) "32768@128" 881 (Security.max_log_q Security.Bits128 32768);
  Alcotest.(check int) "16384@192" 305 (Security.max_log_q Security.Bits192 16384);
  Alcotest.(check int) "min dim 200" 8192 (Security.min_ring_dim Security.Bits128 ~log_q:200);
  Alcotest.(check int) "min dim 240" 16384 (Security.min_ring_dim Security.Bits128 ~log_q:240);
  Alcotest.(check int) "min dim 705" 32768 (Security.min_ring_dim Security.Bits128 ~log_q:705);
  (* the paper's SqueezeNet point: logQ=940 fits N=32768 only under the
     legacy HEAAN parameterisation *)
  Alcotest.(check int) "std 940 -> 65536" 65536 (Security.min_ring_dim Security.Bits128 ~log_q:940);
  Alcotest.(check int) "legacy 940 -> 32768" 32768 (Security.min_ring_dim_legacy ~log_q:940)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let props =
  [
    prop "mod exp matches naive" 200
      (fun (b, e) -> Printf.sprintf "%d^%d" b e)
      QCheck2.Gen.(pair (int_bound 10000) (int_bound 30))
      (fun (b, e) ->
        let p = 1073741789 in
        let rec naive acc k = if k = 0 then acc else naive (Modarith.mul_mod acc b p) (k - 1) in
        Modarith.pow_mod b e p = naive 1 e);
    prop "ntt linear" 50
      (fun _ -> "seed")
      QCheck2.Gen.(int_bound 1000000)
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let a = Array.init ntt_n (fun _ -> Random.State.int rng ntt_prime) in
        let b = Array.init ntt_n (fun _ -> Random.State.int rng ntt_prime) in
        let fa = Array.copy a and fb = Array.copy b in
        forward fa;
        forward fb;
        let sum = Array.init ntt_n (fun i -> Modarith.add_mod a.(i) b.(i) ntt_prime) in
        forward sum;
        sum = Array.init ntt_n (fun i -> Modarith.add_mod fa.(i) fb.(i) ntt_prime));
    prop "encode/decode within tolerance" 30
      (fun _ -> "seed")
      QCheck2.Gen.(int_bound 1000000)
      (fun seed ->
        let ctx = Encoding.make ~n:32 in
        let rng = Random.State.make [| seed |] in
        let z = Array.init 16 (fun _ -> Random.State.float rng 20.0 -. 10.0) in
        let coeffs = Array.map Float.round (Encoding.encode ctx ~scale:1048576.0 ~re:z ~im:(Array.make 16 0.0)) in
        let re, _ = Encoding.decode ctx ~scale:1048576.0 coeffs in
        Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-3) z re);
  ]

let unit_tests =
  [
    Alcotest.test_case "is_prime" `Quick test_is_prime;
    Alcotest.test_case "ntt prime generation" `Quick test_ntt_prime_gen;
    Alcotest.test_case "primitive root" `Quick test_primitive_root;
    Alcotest.test_case "root of unity" `Quick test_root_of_unity;
    Alcotest.test_case "inv_mod" `Quick test_inv_mod;
    Alcotest.test_case "ntt roundtrip" `Quick test_ntt_roundtrip;
    Alcotest.test_case "ntt mul = naive negacyclic" `Quick test_ntt_mul_matches_naive;
    Alcotest.test_case "ntt X^n = -1" `Quick test_ntt_x_times_x;
    Alcotest.test_case "fft roundtrip" `Quick test_fft_roundtrip;
    Alcotest.test_case "fft delta" `Quick test_fft_delta;
    Alcotest.test_case "encoding roundtrip" `Quick test_encoding_roundtrip;
    Alcotest.test_case "encoding constant" `Quick test_encoding_constant;
    Alcotest.test_case "encoding rotation automorphism" `Quick test_encoding_rotation_automorphism;
    Alcotest.test_case "galois elements" `Quick test_galois_element;
    Alcotest.test_case "security table" `Quick test_security_table;
  ]

let suite = [ ("crypto:unit", unit_tests); ("crypto:props", props) ]

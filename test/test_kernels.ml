(* Fast-kernel correctness: the Bigarray NTT and Rvec reduction kernels
   must be bit-identical to the scalar schoolbook reference (Ring_oracle)
   for every prime in the ladder, and the kernel-domain pool must be
   deterministic for every width. *)

module Modarith = Chet_crypto.Modarith
module Ntt = Chet_crypto.Ntt
module Rvec = Chet_crypto.Rvec
module Bigint = Chet_bigint.Bigint
module Rq_rns = Chet_crypto.Rq_rns
module Kpool = Chet_crypto.Kpool
module Rns_ckks = Chet_crypto.Rns_ckks
module Serial = Chet_crypto.Serial

let rng = Random.State.make [| 0x9e11; 0x5a3d |]

(* the ladder the compiler actually uses: 30-bit NTT primes *)
let ladder n = Modarith.gen_ntt_primes ~bits:30 ~modulus_of:(2 * n) ~count:5

let random_poly n p = Array.init n (fun _ -> Random.State.full_int rng p)

(* --- NTT: fast path vs scalar reference --- *)

(* every ring dimension the compiler emits, plus one all-in-one-leaf size
   and one with an odd number of stages in a leaf *)
let ntt_sizes = [ 64; 128; 2048; 4096; 8192; 16384; 32768; 65536 ]

let test_ntt_matches_reference () =
  (* every ladder prime at the small sizes; one prime, one draw at the
     large ones, where the scalar reference is slow *)
  List.iter
    (fun n ->
      let primes = if n <= 4096 then ladder n else [| (ladder n).(0) |] in
      Array.iter
        (fun prime ->
          let tbl = Ntt.make_table ~n ~prime and oracle = Ring_oracle.ntt_table ~n ~prime in
          for _ = 1 to (if n <= 4096 then 3 else 1) do
            let a = random_poly n prime in
            let reference = Array.copy a in
            Ring_oracle.ntt_forward oracle reference;
            let buf = Rvec.of_int_array a in
            Ntt.forward_buf tbl buf;
            Alcotest.(check (array int))
              (Printf.sprintf "forward n=%d p=%d" n prime)
              reference (Rvec.to_int_array buf);
            Ring_oracle.ntt_inverse oracle reference;
            Ntt.inverse_buf tbl buf;
            Alcotest.(check (array int))
              (Printf.sprintf "inverse n=%d p=%d" n prime)
              reference (Rvec.to_int_array buf);
            Alcotest.(check (array int))
              (Printf.sprintf "roundtrip n=%d p=%d" n prime)
              a (Rvec.to_int_array buf)
          done)
        primes)
    ntt_sizes

(* --- Rvec kernels: fast vs schoolbook twins --- *)

let test_rvec_kernels () =
  let n = 513 (* odd, to catch length assumptions *) in
  Array.iter
    (fun p ->
      let a = Rvec.of_int_array (random_poly n p) in
      let b = Rvec.of_int_array (random_poly n p) in
      let check name fast_k ref_k =
        let df = Rvec.create n and dr = Rvec.create n in
        fast_k df;
        ref_k dr;
        Alcotest.(check bool) name true (Rvec.equal df dr)
      in
      check "pointwise_mul"
        (fun d -> Rvec.pointwise_mul_into d a b p)
        (fun d -> Ring_oracle.pointwise_mul_into d a b p);
      let s = Random.State.full_int rng p in
      check "scalar_mul"
        (fun d -> Rvec.scalar_mul_into d a s p)
        (fun d -> Ring_oracle.scalar_mul_into d a s p);
      (* the multiply-accumulate starts from the same accumulator on both sides *)
      let acc = Rvec.of_int_array (random_poly n p) in
      check "sum, one product"
        (fun d -> Rvec.sum_into d [| acc |] [| 1 |] [| a |] [| b |] ~lift:1 p)
        (fun d ->
          Rvec.blit acc d;
          Ring_oracle.pointwise_mac_into d a b p);
      check "scalar_mac"
        (fun d -> Rvec.scalar_mac_into d acc a s p)
        (fun d -> Ring_oracle.scalar_mac_into d acc a s p);
      check "sub_scale"
        (fun d -> Rvec.sub_scale_into d a b s p)
        (fun d -> Ring_oracle.sub_scale_into d a b s p);
      (* a key-switch digit: residues of two *other* word-sized moduli *)
      let q_lo = 1073741789 and q_hi = 1073741783 (* < 2^30, not NTT primes *) in
      let lo = Rvec.of_int_array (random_poly n q_lo) in
      let hi = Rvec.of_int_array (random_poly n q_hi) in
      let g = Rvec.create n in
      Rvec.garner_digit_into g lo hi ~q_lo ~q_hi;
      check "lift_garner"
        (fun d -> Rvec.lift_garner_into d lo g ~q_lo ~q_hi p)
        (fun d -> Ring_oracle.lift_pair_centered_into d lo hi ~q_lo ~q_hi p);
      let q_last = 1073479681 in
      let last = Rvec.of_int_array (random_poly n q_last) in
      check "lift_centered"
        (fun d -> Rvec.lift_centered_into d last ~from:q_last p)
        (fun d -> Ring_oracle.lift_centered_into d last ~from:q_last p))
    (ladder 64)

(* --- 32-bit residue storage: the top of every window survives --- *)

module Encoding = Chet_crypto.Encoding

(* the smallest NTT-friendly prime for size [n] above 2^30 *)
let wide_prime n =
  let rec go p = if Modarith.is_prime p then p else go (p + (2 * n)) in
  go ((1 lsl 30) + 1)

let test_make_ctx_rejects_wide_prime () =
  let n = 64 in
  let wide = wide_prime n in
  let top = Modarith.gen_ntt_prime ~bits:30 ~modulus_of:(2 * n) ~below:(1 lsl 30) in
  Alcotest.check_raises "make_ctx, prime >= 2^30"
    (Invalid_argument "Rq_rns.make_ctx: prime must be below 2^30") (fun () ->
      ignore (Rq_rns.make_ctx ~n ~primes:[| top; wide |]));
  Alcotest.check_raises "make_table, prime >= 2^30"
    (Invalid_argument "Ntt.make_table: prime must be below 2^30") (fun () ->
      ignore (Ntt.make_table ~n ~prime:wide));
  (* the largest 30-bit prime is still admitted *)
  Alcotest.(check int) "30-bit prime admitted" 1
    (Array.length (Rq_rns.ctx_primes (Rq_rns.make_ctx ~n ~primes:[| top |])))

let test_top_residue () =
  let n = 64 in
  let primes = Modarith.gen_ntt_primes ~bits:30 ~modulus_of:(2 * n) ~count:3 in
  let q = primes.(2) (* another 30-bit modulus, for rescale and the lift *) in
  let top p = Rvec.of_int_array (Array.make n (p - 1)) in
  Array.iter
    (fun p ->
      let name k = Printf.sprintf "%s p=%d" k p in
      (* set/get and the array round trips keep p-1 *)
      let b = Rvec.create n in
      for i = 0 to n - 1 do
        Rvec.set b i (p - 1)
      done;
      Alcotest.(check (array int)) (name "set/get") (Array.make n (p - 1)) (Rvec.to_int_array b);
      let a = top p and last = top q in
      let check k fast_k ref_k =
        let df = Rvec.create n and dr = Rvec.create n in
        fast_k df;
        ref_k dr;
        Alcotest.(check (array int)) (name k) (Rvec.to_int_array dr) (Rvec.to_int_array df)
      in
      check "add"
        (fun d -> Rvec.add_into d a a p)
        (fun d -> Rvec.fill d (Modarith.add_mod (p - 1) (p - 1) p));
      check "sub" (fun d -> Rvec.sub_into d a a p) (fun d -> Rvec.fill d 0);
      check "neg" (fun d -> Rvec.neg_into d a p) (fun d -> Rvec.fill d 1);
      check "pointwise_mul"
        (fun d -> Rvec.pointwise_mul_into d a a p)
        (fun d -> Ring_oracle.pointwise_mul_into d a a p);
      check "sum, one product"
        (fun d -> Rvec.sum_into d [| a |] [| 1 |] [| a |] [| a |] ~lift:1 p)
        (fun d ->
          Rvec.blit a d;
          Ring_oracle.pointwise_mac_into d a a p);
      (* a hundred all-(p-1) terms of each kind, lifted by p-1: the largest
         sums the one-pass chain holds *)
      let many = Array.make 100 a and top_w = Array.make 100 (p - 1) in
      check "sum, 100 + 100 terms"
        (fun d -> Rvec.sum_into d many top_w many many ~lift:(p - 1) p)
        (fun d -> Ring_oracle.sum_into d many top_w many many ~lift:(p - 1) p);
      check "scalar_mul"
        (fun d -> Rvec.scalar_mul_into d a (p - 1) p)
        (fun d -> Ring_oracle.scalar_mul_into d a (p - 1) p);
      check "scalar_mac"
        (fun d -> Rvec.scalar_mac_into d a a (p - 1) p)
        (fun d -> Ring_oracle.scalar_mac_into d a a (p - 1) p);
      (* p-1 less a zero limb: the largest Shoup operand *)
      let zero = Rvec.zeroed n in
      check "sub_scale"
        (fun d -> Rvec.sub_scale_into d a zero (p - 1) p)
        (fun d -> Ring_oracle.sub_scale_into d a zero (p - 1) p);
      check "sub_scale, wrapped"
        (fun d -> Rvec.sub_scale_into d zero a (p - 1) p)
        (fun d -> Ring_oracle.sub_scale_into d zero a (p - 1) p);
      (* seven all-(p-1) digits: the largest sums the inner product holds *)
      let ds = Array.make 7 a in
      let ip_f0 = Rvec.create n and ip_f1 = Rvec.create n in
      let ip_r0 = Rvec.create n and ip_r1 = Rvec.create n in
      let identity = Array.init n Fun.id in
      Rvec.inner_product_into ip_f0 ip_f1 ds ds ds identity p;
      Ring_oracle.inner_product_into ip_r0 ip_r1 ds ds ds identity p;
      Alcotest.(check (array int)) (name "inner_product") (Rvec.to_int_array ip_r0)
        (Rvec.to_int_array ip_f0);
      Alcotest.(check (array int)) (name "inner_product, second sum") (Rvec.to_int_array ip_r1)
        (Rvec.to_int_array ip_f1);
      check "lift_centered"
        (fun d -> Rvec.lift_centered_into d last ~from:q p)
        (fun d -> Ring_oracle.lift_centered_into d last ~from:q p);
      check "reduce_centered"
        (fun d -> Rvec.reduce_centered_into d (Array.make n (1 - p)) p)
        (fun d -> Rvec.fill d 1);
      check "permute"
        (fun d -> Rvec.permute_into d a (Encoding.ntt_automorphism_index ~n ~g:5))
        (fun d -> Rvec.fill d (p - 1)))
    primes;
  (* the ciphertext wire format keeps p-1 in every component *)
  let ctx = Rq_rns.make_ctx ~n ~primes in
  let basis = Array.init (Array.length primes) (fun i -> i) in
  let comps = Array.map (fun p -> Array.make n (p - 1)) primes in
  let x = Rq_rns.of_components ~basis ~comps ~ntt:true in
  let w = Serial.writer () in
  Serial.write_rns_ciphertext w ctx
    (Rns_ckks.of_parts ~c0:x ~c1:x ~level:(Array.length primes) ~scale:1.0);
  let y = Rns_ckks.c1 (Serial.read_rns_ciphertext (Serial.reader (Serial.contents w)) ctx) in
  Alcotest.(check bool) "wire round trip" true (Rq_rns.equal x y);
  Array.iteri
    (fun i p ->
      Alcotest.(check (array int)) "component" (Array.make n (p - 1))
        (Rq_rns.component y ~basis_index:i))
    primes

(* The key switch's centered two-prime lift, its Garner digit computed once
   and reduced into each target, against the per-target Garner twin and
   against the exact value it must produce: digits at the largest 30-bit
   primes (Q up to 2^60), on random residues, at the ±Q/2 centering boundary
   and on all-(p−1) residues (x = Q − 1, which centers to −1). *)
let test_lift_pair_centered () =
  let lift d lo hi ~q_lo ~q_hi p =
    let g = Rvec.create (Rvec.length d) in
    Rvec.garner_digit_into g lo hi ~q_lo ~q_hi;
    Rvec.lift_garner_into d lo g ~q_lo ~q_hi p
  in
  let primes = Modarith.gen_ntt_primes ~bits:30 ~modulus_of:128 ~count:3 in
  let q_lo = primes.(0) and q_hi = primes.(1) and p = primes.(2) in
  let q = q_lo * q_hi in
  let half = q / 2 in
  (* x in [0, Q) by its residues; the fixed ones sit at 0, Q/2 and Q *)
  let xs =
    Array.append
      (Array.init 64 (fun _ -> Random.State.full_int rng q))
      [| 0; 1; half - 1; half; half + 1; half + 2; q - 2; q - 1 |]
  in
  let n = Array.length xs in
  let lo = Rvec.of_int_array (Array.map (fun x -> x mod q_lo) xs) in
  let hi = Rvec.of_int_array (Array.map (fun x -> x mod q_hi) xs) in
  let exact = Array.map (fun x -> Modarith.reduce (if x > half then x - q else x) p) xs in
  List.iter
    (fun (who, p) ->
      let d = Rvec.create n in
      lift d lo hi ~q_lo ~q_hi p;
      let r = Rvec.create n in
      Ring_oracle.lift_pair_centered_into r lo hi ~q_lo ~q_hi p;
      Alcotest.(check (array int)) ("oracle = fast into " ^ who) (Rvec.to_int_array r)
        (Rvec.to_int_array d))
    [ ("p", p); ("q_lo", q_lo); ("q_hi", q_hi) ];
  let d = Rvec.create n in
  lift d lo hi ~q_lo ~q_hi p;
  Alcotest.(check (array int)) "exact centered value" exact (Rvec.to_int_array d);
  (* Q is odd: ⌊Q/2⌋ stays positive, ⌊Q/2⌋ + 1 wraps to −⌊Q/2⌋ *)
  Alcotest.(check int) "Q/2 stays" (Modarith.reduce half p) (Rvec.get d 67);
  Alcotest.(check int) "Q/2+1 wraps" (Modarith.reduce (-half) p) (Rvec.get d 68);
  let top = Rvec.create 4 in
  lift top
    (Rvec.of_int_array (Array.make 4 (q_lo - 1)))
    (Rvec.of_int_array (Array.make 4 (q_hi - 1)))
    ~q_lo ~q_hi p;
  Alcotest.(check (array int)) "all p-1 is -1" (Array.make 4 (p - 1)) (Rvec.to_int_array top)

(* The one-pass inner product against permuting the digits, then one
   multiply-accumulate pass per digit, for every digit count a chain of up
   to 16 primes uses, at the largest 30-bit primes (4 products between
   reductions), through the identity and through a Galois permutation. *)
let test_inner_product () =
  let n = 256 in
  let indices =
    [ ("identity", Array.init n Fun.id); ("galois", Encoding.ntt_automorphism_index ~n ~g:5) ]
  in
  Array.iter
    (fun p ->
      for k = 1 to 8 do
        let bufs () = Array.init k (fun _ -> Rvec.of_int_array (random_poly n p)) in
        let ds = bufs () and bs = bufs () and cs = bufs () in
        List.iter
          (fun (name, index) ->
            let f0 = Rvec.create n and f1 = Rvec.create n in
            let r0 = Rvec.create n and r1 = Rvec.create n in
            Rvec.inner_product_into f0 f1 ds bs cs index p;
            Ring_oracle.inner_product_into r0 r1 ds bs cs index p;
            let what = Printf.sprintf "%d digits, %s, p=%d" k name p in
            Alcotest.(check bool) (what ^ ": b sum") true (Rvec.equal f0 r0);
            Alcotest.(check bool) (what ^ ": a sum") true (Rvec.equal f1 r1))
          indices
      done)
    (Modarith.gen_ntt_primes ~bits:30 ~modulus_of:(2 * n) ~count:2)

(* The NTT-domain rounded division against its coefficient-domain twins at
   every basis length: by the last prime (rescale) against
   Ring_oracle.drop_last, by the last two (mod-down by P) against
   Ring_oracle.drop_last_pair; and the NTT-form prefix (modulus switch)
   against an unrounded drop through the coefficient domain. *)
let test_div_round_ntt () =
  let n = 64 in
  let primes = Modarith.gen_ntt_primes ~bits:30 ~modulus_of:(2 * n) ~count:8 in
  let ctx = Rq_rns.make_ctx ~n ~primes in
  for len = 2 to Array.length primes do
    let basis = Array.init len Fun.id in
    let comps = Array.map (fun i -> random_poly n primes.(i)) basis in
    let x = Rq_rns.of_components ~basis ~comps ~ntt:true in
    let xc = Rq_rns.from_ntt ctx x in
    let check what got want =
      if not (Rq_rns.equal got want) then Alcotest.failf "%d primes: %s differs" len what
    in
    check "rescale"
      (Rq_rns.div_round_ntt ctx x ~drop:1)
      (Rq_rns.to_ntt ctx (Ring_oracle.drop_last ctx xc ~rounded:true));
    if len > 2 then
      check "mod-down"
        (Rq_rns.div_round_ntt ctx x ~drop:2)
        (Rq_rns.to_ntt ctx (Ring_oracle.drop_last_pair ctx xc));
    check "modulus switch" (Rq_rns.truncate x (len - 1))
      (Rq_rns.to_ntt ctx (Ring_oracle.drop_last ctx xc ~rounded:false))
  done

(* the one-pass multiply-accumulate chain against the chain of passes, for
   0..9 scalar and product terms, any-int scalars and lifts, the largest
   30-bit primes, and a length that is not a multiple of the block *)
let test_sum_matches_chain () =
  let n = 700 in
  Array.iter
    (fun p ->
      for k = 0 to 9 do
        for m = 0 to 9 do
          if k + m > 0 then begin
            let bufs c = Array.init c (fun _ -> Rvec.of_int_array (random_poly n p)) in
            let vs = bufs k and xs = bufs m and ys = bufs m in
            let ws = Array.init k (fun _ -> Random.State.full_int rng (1 lsl 40) - (1 lsl 39)) in
            let lift = Random.State.full_int rng (1 lsl 40) in
            let got = Rvec.create n and expected = Rvec.create n in
            Rvec.sum_into got vs ws xs ys ~lift p;
            Ring_oracle.sum_into expected vs ws xs ys ~lift p;
            if not (Rvec.equal got expected) then
              Alcotest.failf "sum of %d scalar and %d product terms, p=%d" k m p
          end
        done
      done)
    (ladder 64)

let test_ntt_top_of_lazy_window () =
  (* all-(p-1) input at the largest 30-bit fast prime drives the lazy
     butterflies to the top of their [0, 2p) window *)
  List.iter
    (fun n ->
      let p = Modarith.gen_ntt_prime ~bits:30 ~modulus_of:(2 * n) ~below:(1 lsl 30) in
      let tbl = Ntt.make_table ~n ~prime:p and oracle = Ring_oracle.ntt_table ~n ~prime:p in
      let a = Array.make n (p - 1) in
      List.iter
        (fun (dir, scalar, fast) ->
          let reference = Array.copy a in
          scalar oracle reference;
          let buf = Rvec.of_int_array a in
          fast tbl buf;
          Alcotest.(check (array int))
            (Printf.sprintf "%s n=%d p=%d" dir n p)
            reference (Rvec.to_int_array buf))
        [
          ("forward", Ring_oracle.ntt_forward, Ntt.forward_buf);
          ("inverse", Ring_oracle.ntt_inverse, Ntt.inverse_buf);
        ])
    ntt_sizes

let test_rvec_edge_values () =
  (* adversarial residues: 0, 1, p-1 in every combination *)
  Array.iter
    (fun p ->
      let vals = [| 0; 1; p - 1; p / 2; p / 2 + 1 |] in
      let k = Array.length vals in
      let n = k * k in
      let a = Rvec.create n and b = Rvec.create n in
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          Rvec.set a ((i * k) + j) vals.(i);
          Rvec.set b ((i * k) + j) vals.(j)
        done
      done;
      let df = Rvec.create n and dr = Rvec.create n in
      Rvec.pointwise_mul_into df a b p;
      Ring_oracle.pointwise_mul_into dr a b p;
      Alcotest.(check (array int)) "mul edges" (Rvec.to_int_array dr) (Rvec.to_int_array df);
      Rvec.add_into df a b p;
      for i = 0 to n - 1 do
        Alcotest.(check int) "add edges" (Modarith.add_mod (Rvec.get a i) (Rvec.get b i) p)
          (Rvec.get df i)
      done;
      Rvec.sub_into df a b p;
      for i = 0 to n - 1 do
        Alcotest.(check int) "sub edges" (Modarith.sub_mod (Rvec.get a i) (Rvec.get b i) p)
          (Rvec.get df i)
      done;
      Rvec.neg_into df a p;
      for i = 0 to n - 1 do
        Alcotest.(check int) "neg edges" (Modarith.neg_mod (Rvec.get a i) p) (Rvec.get df i)
      done)
    (ladder 8)

let test_shoup () =
  Array.iter
    (fun p ->
      for _ = 1 to 200 do
        let w = Random.State.int rng p in
        let wsh = Modarith.shoup w p in
        let x = Random.State.full_int rng (2 * p) (* lazy operands allowed *) in
        Alcotest.(check int) "shoup" (w * x mod p) (Modarith.mul_mod_shoup w wsh x p)
      done)
    (ladder 64)

(* --- kernel-domain pool --- *)

let test_kpool_runs_all_chunks () =
  List.iter
    (fun k ->
      Kpool.configure ~domains:k;
      Fun.protect
        ~finally:(fun () -> Kpool.configure ~domains:1)
        (fun () ->
          Alcotest.(check int) "width" k (Kpool.domain_count ());
          let out = Array.make 257 0 in
          Kpool.run 257 (fun i -> out.(i) <- (i * i) + 1);
          Array.iteri
            (fun i v -> Alcotest.(check int) (Printf.sprintf "chunk %d" i) ((i * i) + 1) v)
            out;
          (* nested run degrades to sequential but still covers everything *)
          let nested = Array.make 64 0 in
          Kpool.run 8 (fun i -> Kpool.run 8 (fun j -> nested.((i * 8) + j) <- i + j));
          Array.iteri
            (fun idx v -> Alcotest.(check int) "nested" ((idx / 8) + (idx mod 8)) v)
            nested))
    [ 1; 2; 4 ]

let test_kpool_propagates_exceptions () =
  Kpool.configure ~domains:2;
  Fun.protect
    ~finally:(fun () -> Kpool.configure ~domains:1)
    (fun () ->
      let hits = Atomic.make 0 in
      (try
         Kpool.run 16 (fun i ->
             Atomic.incr hits;
             if i = 7 then failwith "chunk 7 boom")
       with Failure m -> Alcotest.(check string) "message" "chunk 7 boom" m);
      (* every chunk still ran *)
      Alcotest.(check int) "all chunks ran" 16 (Atomic.get hits))

(* --- k-domain determinism: bit-identical ciphertexts for k in {1,2,4} --- *)

module C = Chet_crypto.Rns_ckks

let encrypt_with_domains k =
  Kpool.configure ~domains:k;
  Fun.protect
    ~finally:(fun () -> Kpool.configure ~domains:1)
    (fun () ->
      let ctx = C.make_context (C.default_params ~n:64 ~num_coeff_primes:3 ()) in
      let rng = Chet_crypto.Sampling.create ~seed:77 in
      let sk, keys = C.keygen ctx rng in
      C.add_power_of_two_rotation_keys ctx rng sk keys;
      let z = Array.init (C.slot_count ctx) (fun i -> float_of_int (i mod 5) /. 7.0) in
      let pt = C.encode_real ctx ~level:3 ~scale:(Float.ldexp 1.0 25) z in
      let ct = C.encrypt ctx rng keys.C.public pt in
      let ct = C.mul ctx keys ct ct in
      let ct = C.rescale ctx ct (C.max_rescale ctx ct (1 lsl 30)) in
      let ct = C.rotate ctx keys ct 3 in
      (C.c0 ct, C.c1 ct))

let test_k_domain_determinism () =
  let c0_1, c1_1 = encrypt_with_domains 1 in
  let c0_2, c1_2 = encrypt_with_domains 2 in
  let c0_4, c1_4 = encrypt_with_domains 4 in
  Alcotest.(check bool) "k=1 vs k=2" true (Rq_rns.equal c0_1 c0_2 && Rq_rns.equal c1_1 c1_2);
  Alcotest.(check bool) "k=1 vs k=4" true (Rq_rns.equal c0_1 c0_4 && Rq_rns.equal c1_1 c1_4)

(* Systhreads share their domain's NTT scratch slot: a thread preempted in
   the middle of a transform must not have its scratch used by another
   thread of the same domain. Three threads transform their own buffers
   for long enough that the tick thread switches between them mid-loop. *)
let test_ntt_systhreads () =
  let n = 4096 in
  let prime = (ladder n).(0) in
  let tbl = Ntt.make_table ~n ~prime in
  let failures = Atomic.make 0 in
  let worker seed () =
    let st = Random.State.make [| seed |] in
    let a = Array.init n (fun _ -> Random.State.int st prime) in
    let expected = Array.copy a in
    Ring_oracle.ntt_forward (Ring_oracle.ntt_table ~n ~prime) expected;
    let deadline = Unix.gettimeofday () +. 0.3 in
    while Unix.gettimeofday () < deadline do
      let buf = Rvec.of_int_array a in
      Ntt.forward_buf tbl buf;
      if Rvec.to_int_array buf <> expected then Atomic.incr failures;
      Ntt.inverse_buf tbl buf;
      if Rvec.to_int_array buf <> a then Atomic.incr failures
    done
  in
  List.iter Thread.join (List.init 3 (fun i -> Thread.create (worker (i + 1)) ()));
  Alcotest.(check int) "transforms corrupted by another thread" 0 (Atomic.get failures)

(* --- whole ring expression vs a schoolbook Bigint computation --- *)

let test_ring_fast_vs_reference () =
  let n = 64 in
  let primes = ladder n in
  let ca = Array.init n (fun i -> (i * 977) - (n * 488) + Random.State.int rng 3) in
  let cb = Array.init n (fun i -> (i * i) - 1000) in
  let s = 123457 in
  (* (a * b - b) * s divided by the last prime, rounded, in the RNS ring *)
  let ctx = Rq_rns.make_ctx ~n ~primes in
  let basis = Array.init (Array.length primes) (fun i -> i) in
  let a = Rq_rns.of_centered_coeffs ctx basis ca in
  let b = Rq_rns.of_centered_coeffs ctx basis cb in
  let m = Rq_rns.mul ctx a b in
  let x = Rq_rns.add ctx m (Rq_rns.to_ntt ctx (Rq_rns.neg ctx b)) in
  let x = Rq_rns.mul_scalar ctx x s in
  let d = Rq_rns.div_round_ntt ctx x ~drop:1 in
  let got = Rq_rns.to_bigint_coeffs ctx d in
  (* the same expression over Z[X]/(X^n + 1), then one exact rounded division *)
  let big = Array.map Bigint.of_int in
  let q = Array.fold_left (fun acc p -> Bigint.mul_int acc p) Bigint.one primes in
  let q_last = primes.(Array.length primes - 1) in
  let expected =
    Array.mapi
      (fun j c -> Bigint.mul_int (Bigint.sub c (Bigint.of_int cb.(j))) s)
      (Ring_oracle.negacyclic_mul (big ca) (big cb))
    |> Array.map (Ring_oracle.drop_last_rounded ~q ~q_last)
  in
  Array.iteri
    (fun i e ->
      Alcotest.(check string)
        (Printf.sprintf "coeff %d" i)
        (Bigint.to_string e) (Bigint.to_string got.(i)))
    expected

let suite =
  [
    ( "ring-kernels",
      [
        Alcotest.test_case "ntt fast = scalar reference, every ladder prime" `Quick
          test_ntt_matches_reference;
        Alcotest.test_case "rvec kernels = schoolbook twins" `Quick test_rvec_kernels;
        Alcotest.test_case "rvec edge residues" `Quick test_rvec_edge_values;
        Alcotest.test_case "shoup multiplication" `Quick test_shoup;
        Alcotest.test_case "centered pair lift = Garner twin" `Quick test_lift_pair_centered;
        Alcotest.test_case "one-pass inner product = per-digit MACs" `Quick test_inner_product;
        Alcotest.test_case "NTT-domain rounded division = coefficient twin" `Quick
          test_div_round_ntt;
        Alcotest.test_case "make_ctx rejects a prime >= 2^30" `Quick
          test_make_ctx_rejects_wide_prime;
        Alcotest.test_case "residue p-1 survives storage, 30-bit primes" `Quick test_top_residue;
        Alcotest.test_case "one-pass sum = multiply-accumulate chain" `Quick test_sum_matches_chain;
        Alcotest.test_case "ntt top of the lazy window = scalar" `Quick
          test_ntt_top_of_lazy_window;
        Alcotest.test_case "kpool covers every chunk at k=1,2,4" `Quick test_kpool_runs_all_chunks;
        Alcotest.test_case "kpool propagates chunk exceptions" `Quick
          test_kpool_propagates_exceptions;
        Alcotest.test_case "ntt scratch safe under systhreads" `Quick test_ntt_systhreads;
        Alcotest.test_case "k-domain determinism: identical ciphertexts" `Quick
          test_k_domain_determinism;
        Alcotest.test_case "ring ops fast = reference, bit-identical" `Quick
          test_ring_fast_vs_reference;
      ] );
  ]

(* Ring-kernel microbenchmark: the fast NTT against the schoolbook
   transform of the test-side oracle (test/ring_oracle.ml), the fast one at
   N = 2048 and 32768, the pointwise kernel, the key switch's one-pass
   inner product, the NTT-domain rescale, hoisted rotations against the
   same rotations one at a time, a sum of
   hoisted rotations settled once against the same rotations each settled
   first, the resident size of one rotation key, and a 100-term
   multiply-accumulate chain computed as one pending sum against the chain
   of two-operand passes. Used by scripts/kernel_smoke.sh and for tuning the
   fast path by hand. *)

module Ntt = Chet_crypto.Ntt
module Rvec = Chet_crypto.Rvec
module Modarith = Chet_crypto.Modarith
module Rns = Chet_crypto.Rns_ckks
module Rq_rns = Chet_crypto.Rq_rns

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let () =
  let n = try int_of_string Sys.argv.(1) with _ -> 8192 in
  let reps = try int_of_string Sys.argv.(2) with _ -> 200 in
  let p = (Modarith.gen_ntt_primes ~bits:30 ~modulus_of:(2 * n) ~count:1).(0) in
  let tbl = Ntt.make_table ~n ~prime:p in
  let rng = Random.State.make [| 7 |] in
  let a = Array.init n (fun _ -> Random.State.int rng p) in
  let buf = Rvec.of_int_array a in
  let arr = Array.copy a and oracle = Ring_oracle.ntt_table ~n ~prime:p in
  (* warm up *)
  Ntt.forward_buf tbl buf;
  Ntt.inverse_buf tbl buf;
  let t_fast =
    time (fun () ->
        for _ = 1 to reps do
          Ntt.forward_buf tbl buf;
          Ntt.inverse_buf tbl buf
        done)
  in
  let t_scalar =
    time (fun () ->
        for _ = 1 to reps do
          Ring_oracle.ntt_forward oracle arr;
          Ring_oracle.ntt_inverse oracle arr
        done)
  in
  let b = Rvec.of_int_array (Array.init n (fun _ -> Random.State.int rng p)) in
  let dst = Rvec.create n in
  let t_pw =
    time (fun () -> for _ = 1 to reps * 10 do Rvec.pointwise_mul_into dst buf b p done)
  in
  Printf.printf
    "n=%d p=%d reps=%d\n  ntt fast      %8.1f us/op\n  ntt scalar    %8.1f us/op\n  pw fast       %8.1f us/op\n"
    n p reps
    (1e6 *. t_fast /. float_of_int (2 * reps))
    (1e6 *. t_scalar /. float_of_int (2 * reps))
    (1e6 *. t_pw /. float_of_int (reps * 10))

(* the fast NTT (a forward and an inverse transform, averaged) at the
   benchmark's pinned ring and at LeNet-5-small's compiled one *)
let () =
  List.iter
    (fun n ->
      let p = (Modarith.gen_ntt_primes ~bits:30 ~modulus_of:(2 * n) ~count:1).(0) in
      let tbl = Ntt.make_table ~n ~prime:p in
      let rng = Random.State.make [| 5 |] in
      let buf = Rvec.of_int_array (Array.init n (fun _ -> Random.State.int rng p)) in
      let reps = 2 * 65536 / n in
      Ntt.forward_buf tbl buf;
      Ntt.inverse_buf tbl buf;
      let t =
        time (fun () ->
            for _ = 1 to reps do
              Ntt.forward_buf tbl buf;
              Ntt.inverse_buf tbl buf
            done)
      in
      Printf.printf "  ntt at n=%-6d %8.1f us/transform\n" n (1e6 *. t /. float_of_int (2 * reps)))
    [ 2048; 32768 ]

(* the key switch's inner product over one channel at 5 and 7 digits (the
   digit counts of 10 and 14 chain primes), and the NTT-domain rescale of one
   component, N = 4096 with 6 chain primes *)
let () =
  let n = 4096 and reps = 200 in
  let primes = Modarith.gen_ntt_primes ~bits:30 ~modulus_of:(2 * n) ~count:6 in
  let p = primes.(0) in
  let rng = Random.State.make [| 11 |] in
  let random p = Rvec.of_int_array (Array.init n (fun _ -> Random.State.int rng p)) in
  let per_call k =
    let bufs () = Array.init k (fun _ -> random p) in
    let ds = bufs () and bs = bufs () and cs = bufs () in
    let acc0 = Rvec.create n and acc1 = Rvec.create n in
    let index = Array.init n Fun.id in
    Rvec.inner_product_into acc0 acc1 ds bs cs index p;
    1e6
    *. time (fun () ->
           for _ = 1 to reps do
             Rvec.inner_product_into acc0 acc1 ds bs cs index p
           done)
    /. float_of_int reps
  in
  let ip5 = per_call 5 in
  let ip7 = per_call 7 in
  Printf.printf "  inner product %8.1f us/channel at 5 digits, %.1f at 7 (n=%d)\n" ip5 ip7 n;
  let ctx = Rq_rns.make_ctx ~n ~primes in
  let basis = Array.init 6 Fun.id in
  let x = Rq_rns.unsafe_of_bufs ~basis ~comps:(Array.map random primes) ~ntt:true in
  ignore (Rq_rns.div_round_ntt ctx x ~drop:1);
  let t = time (fun () -> for _ = 1 to reps do ignore (Rq_rns.div_round_ntt ctx x ~drop:1) done) in
  Printf.printf "  rescale       %8.1f us/component (NTT domain, n=%d, 6 primes)\n"
    (1e6 *. t /. float_of_int reps) n

(* [Rns_ckks.rotate_many] over 8 amounts, each settled, against 8 [Rns_ckks.rotate] calls
   on one fresh ciphertext, N = 4096 with 6 chain primes; then the bytes and
   residue count of one of those rotation keys *)
let () =
  let n = 4096 and reps = 4 in
  let ctx = Rns.make_context (Rns.default_params ~n ~num_coeff_primes:6 ()) in
  let rng = Chet_crypto.Sampling.create ~seed:3 in
  let sk, keys = Rns.keygen ctx rng in
  let amounts = Array.init 8 (fun i -> i + 1) in
  Array.iter (Rns.add_rotation_key ctx rng sk keys) amounts;
  let values = Array.init (n / 2) (fun i -> float_of_int (i mod 13) /. 13.0) in
  let ct =
    Rns.encrypt ctx rng keys.Rns.public
      (Rns.encode_real ctx ~level:(Rns.max_level ctx) ~scale:(2.0 ** 30.0) values)
  in
  let settled_many () = Array.map Rns.settle (Rns.rotate_many ctx keys ct amounts) in
  ignore (settled_many ());
  let t_many =
    time (fun () ->
        for _ = 1 to reps do
          ignore (settled_many ())
        done)
  in
  let t_single =
    time (fun () ->
        for _ = 1 to reps do
          Array.iter (fun r -> ignore (Rns.rotate ctx keys ct r)) amounts
        done)
  in
  Printf.printf "  rot_many 8    %8.1f ms/call  (8 single rotations %.1f ms, n=%d, 6 primes)\n"
    (1e3 *. t_many /. float_of_int reps)
    (1e3 *. t_single /. float_of_int reps)
    n;
  (* a weighted sum of the 8 hoisted amounts: settled once at the end
     (one mod-down per component) against each amount settled first *)
  let ws = 1024.0 in
  let sum rotations =
    let acc = ref (Rns.mul_scalar ctx rotations.(0) 0.5 ~scale:ws) in
    for i = 1 to Array.length rotations - 1 do
      acc := Rns.fma_scalar ctx !acc rotations.(i) (0.1 *. float_of_int i) ~scale:ws
    done;
    Rns.settle !acc
  in
  let t_sum settle_each =
    time (fun () ->
        for _ = 1 to reps do
          let rotations = Rns.rotate_many ctx keys ct amounts in
          ignore (sum (if settle_each then Array.map Rns.settle rotations else rotations))
        done)
  in
  ignore (t_sum false);
  let t_deferred = t_sum false in
  let t_each = t_sum true in
  Printf.printf "  rot-sum 8     %8.1f ms/call  (settle-each %.1f ms, n=%d, 6 primes)\n"
    (1e3 *. t_deferred /. float_of_int reps)
    (1e3 *. t_each /. float_of_int reps)
    n;
  let key = Hashtbl.fold (fun _ k _ -> Some k) keys.Rns.rotation None |> Option.get in
  let bytes = ref 0 and residues = ref 0 in
  Array.iter
    (fun (b, a) ->
      List.iter
        (fun poly ->
          Array.iteri
            (fun k _ ->
              let comp = Rq_rns.raw_comp poly k in
              bytes := !bytes + Bigarray.Array1.size_in_bytes comp;
              residues := !residues + Rvec.length comp)
            (Rq_rns.basis poly))
        [ b; a ])
    (Rns.kswitch_pairs (Rns.rotation_kswitch key));
  Printf.printf "  rotation key  %d bytes  %d residues  (%.1f bytes/residue, n=%d, 6 primes)\n"
    !bytes !residues
    (float_of_int !bytes /. float_of_int !residues)
    n

(* A 100-term sum of scalar multiples over 13 primes at N = 2048 (26
   channels, a conv tap chain's shape): computed once from the pending sum
   against the chain of two-operand passes (each step materialised), which
   is what every [fma_scalar] cost before sums were deferred *)
let () =
  let n = 2048 and primes = 13 and terms = 100 and reps = 5 in
  let ctx = Rns.make_context (Rns.default_params ~n ~num_coeff_primes:primes ()) in
  let rng = Random.State.make [| 17 |] in
  let chain = Rns.coeff_primes ctx in
  let residues p = Rvec.of_int_array (Array.init n (fun _ -> Random.State.int rng p)) in
  let poly () =
    Rq_rns.unsafe_of_bufs ~basis:(Array.init primes Fun.id) ~comps:(Array.map residues chain)
      ~ntt:true
  in
  let xs =
    Array.init terms (fun _ -> Rns.of_parts ~c0:(poly ()) ~c1:(poly ()) ~level:primes ~scale:1024.0)
  in
  let ws = 256.0 in
  let sum step =
    let acc = ref (Rns.mul_scalar ctx xs.(0) 0.5 ~scale:ws) in
    for i = 1 to terms - 1 do
      acc := step (Rns.fma_scalar ctx !acc xs.(i) (0.01 *. float_of_int i) ~scale:ws)
    done;
    Rns.materialise !acc
  in
  let per_sum step =
    ignore (sum step);
    1e3 *. time (fun () -> for _ = 1 to reps do ignore (sum step) done) /. float_of_int reps
  in
  let pending = per_sum Fun.id in
  let chained = per_sum Rns.materialise in
  Printf.printf "  mac-chain %d %8.1f ms/call  (chain %.1f ms, n=%d, %d primes)\n" terms pending
    chained n primes

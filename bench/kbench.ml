(* Ring-kernel microbenchmark: the fast NTT against the scalar reference
   transform, the pointwise kernel, hoisted rotations against the same
   rotations one at a time, and the resident size of one rotation key. Used
   by scripts/kernel_smoke.sh and for tuning the fast path by hand. *)

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
  let arr = Array.copy a in
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
          Ntt.forward tbl arr;
          Ntt.inverse tbl arr
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

(* [Rns_ckks.rotate_many] over 8 amounts against 8 [Rns_ckks.rotate] calls
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
  ignore (Rns.rotate_many ctx keys ct amounts);
  let t_many =
    time (fun () ->
        for _ = 1 to reps do
          ignore (Rns.rotate_many ctx keys ct amounts)
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
    (Rns.kswitch_pairs key);
  Printf.printf "  rotation key  %d bytes  %d residues  (%.1f bytes/residue, n=%d, 6 primes)\n"
    !bytes !residues
    (float_of_int !bytes /. float_of_int !residues)
    n

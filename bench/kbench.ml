(* Ring-kernel microbenchmark: the fast NTT against the scalar reference
   transform, and the pointwise kernel. Used by scripts/kernel_smoke.sh and
   for tuning the fast path by hand. *)

module Ntt = Chet_crypto.Ntt
module Rvec = Chet_crypto.Rvec
module Modarith = Chet_crypto.Modarith

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

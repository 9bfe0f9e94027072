(* Serialization tests: primitives roundtrip, ciphertexts survive the wire,
   and corrupt payloads are rejected — plus a full client/server loopback in
   the Figure 3 style (the "server" sees only bytes and public keys). *)

open Chet_crypto
module B = Chet_bigint.Bigint

let test_primitives_roundtrip () =
  let w = Serial.writer () in
  Serial.write_int w 42;
  Serial.write_int w (-7);
  Serial.write_int w max_int;
  Serial.write_float w 3.14159;
  Serial.write_string w "hello";
  Serial.write_int_array w [| 1; 2; 3 |];
  Serial.write_bigint w (B.pow2 100);
  Serial.write_bigint w (B.neg (B.of_int 55));
  let r = Serial.reader (Serial.contents w) in
  Alcotest.(check int) "int" 42 (Serial.read_int r);
  Alcotest.(check int) "neg int" (-7) (Serial.read_int r);
  Alcotest.(check int) "max int" max_int (Serial.read_int r);
  Alcotest.(check (float 1e-12)) "float" 3.14159 (Serial.read_float r);
  Alcotest.(check string) "string" "hello" (Serial.read_string r);
  Alcotest.(check (array int)) "array" [| 1; 2; 3 |] (Serial.read_int_array r);
  Alcotest.(check bool) "bigint" true (B.equal (B.pow2 100) (Serial.read_bigint r));
  Alcotest.(check bool) "neg bigint" true (B.equal (B.of_int (-55)) (Serial.read_bigint r));
  Alcotest.(check bool) "eof" true (Serial.reader_eof r)

let test_truncation_rejected () =
  let w = Serial.writer () in
  Serial.write_int w 1;
  let full = Serial.contents w in
  let r = Serial.reader (String.sub full 0 4) in
  Alcotest.check_raises "truncated" (Serial.Corrupt "truncated payload") (fun () ->
      ignore (Serial.read_int r))

let test_bad_lengths_rejected () =
  let w = Serial.writer () in
  Serial.write_int w max_int (* absurd array length *);
  let r = Serial.reader (Serial.contents w) in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Serial.read_int_array r);
       false
     with Serial.Corrupt _ -> true)

(* --- RNS-CKKS ciphertext roundtrip + loopback protocol --- *)

let params = Rns_ckks.default_params ~n:128 ~bits:30 ~num_coeff_primes:3 ()
let ctx = Rns_ckks.make_context params
let rq_ctx_of_context () =
  (* reconstruct an Rq context compatible with the scheme's (same primes) *)
  ctx

let test_rns_ciphertext_roundtrip () =
  ignore (rq_ctx_of_context ());
  let rng = Sampling.create ~seed:4 in
  let sk, keys = Rns_ckks.keygen ctx rng in
  let v = Array.init (Rns_ckks.slot_count ctx) (fun i -> 0.01 *. float_of_int i) in
  let ct =
    Rns_ckks.encrypt ctx rng keys.Rns_ckks.public
      (Rns_ckks.encode_real ctx ~level:3 ~scale:1073741824.0 v)
  in
  let w = Serial.writer () in
  let rq = Rns_ckks.rq_ctx ctx in
  Serial.write_rns_ciphertext w rq ct;
  let bytes = Serial.contents w in
  let ct' = Serial.read_rns_ciphertext (Serial.reader bytes) rq in
  Alcotest.(check int) "level" (Rns_ckks.level_of ct) (Rns_ckks.level_of ct');
  (* decrypting the deserialised ciphertext recovers the message *)
  let got = Rns_ckks.decode ctx (Rns_ckks.decrypt ctx sk ct') in
  let diff = Complexv.max_abs_diff (Complexv.of_real v) got in
  Alcotest.(check bool) "decrypts" true (diff < 5e-3)

(* a pending sum goes on the wire as the bytes of its materialised form *)
let test_rns_pending_roundtrip () =
  let rng = Sampling.create ~seed:6 in
  let sk, keys = Rns_ckks.keygen ctx rng in
  Rns_ckks.add_rotation_key ctx rng sk keys 1;
  let slots = Rns_ckks.slot_count ctx in
  let v = Array.init slots (fun i -> 0.01 *. float_of_int i) in
  let ct =
    Rns_ckks.encrypt ctx rng keys.Rns_ckks.public
      (Rns_ckks.encode_real ctx ~level:3 ~scale:1073741824.0 v)
  in
  let rotated = (Rns_ckks.rotate_many ctx keys ct [| 1; 1 |]).(0) in
  let sum () =
    Rns_ckks.fma_scalar ctx (Rns_ckks.mul_scalar ctx ct 0.5 ~scale:256.0) rotated 0.25 ~scale:256.0
  in
  let rq = Rns_ckks.rq_ctx ctx in
  let bytes ct =
    let w = Serial.writer () in
    Serial.write_rns_ciphertext w rq ct;
    Serial.contents w
  in
  let pending = sum () in
  Alcotest.(check bool) "pending" true (Rns_ckks.is_pending pending);
  let wire = bytes pending in
  Alcotest.(check string)
    "bytes of the materialised form"
    (bytes (Rns_ckks.materialise (sum ())))
    wire;
  let back = Serial.read_rns_ciphertext (Serial.reader wire) rq in
  Alcotest.(check string) "re-serialises to the same bytes" wire (bytes back);
  let expected = Array.init slots (fun i -> (0.5 *. v.(i)) +. (0.25 *. v.((i + 1) mod slots))) in
  let got = Rns_ckks.decode ctx (Rns_ckks.decrypt ctx sk back) in
  let diff = Complexv.max_abs_diff (Complexv.of_real expected) got in
  Alcotest.(check bool) "decrypts to the sum" true (diff < 5e-3)

(* a hoisted rotation goes on the wire as the ciphertext it settles to:
   the same bytes as its settled form, and it decrypts to the rotation *)
let test_rns_unsettled_roundtrip () =
  let rng = Sampling.create ~seed:5 in
  let sk, keys = Rns_ckks.keygen ctx rng in
  List.iter (Rns_ckks.add_rotation_key ctx rng sk keys) [ 1; 2 ];
  let slots = Rns_ckks.slot_count ctx in
  let v = Array.init slots (fun i -> 0.01 *. float_of_int i) in
  let ct =
    Rns_ckks.encrypt ctx rng keys.Rns_ckks.public
      (Rns_ckks.encode_real ctx ~level:3 ~scale:1073741824.0 v)
  in
  let rotated = (Rns_ckks.rotate_many ctx keys ct [| 1; 2 |]).(0) in
  Alcotest.(check bool) "hoisted amount is unsettled" false (Rns_ckks.is_settled rotated);
  let rq = Rns_ckks.rq_ctx ctx in
  let bytes ct =
    let w = Serial.writer () in
    Serial.write_rns_ciphertext w rq ct;
    Serial.contents w
  in
  let wire = bytes rotated in
  Alcotest.(check string) "bytes of the settled form" (bytes (Rns_ckks.settle rotated)) wire;
  let back = Serial.read_rns_ciphertext (Serial.reader wire) rq in
  Alcotest.(check bool) "read back settled" true (Rns_ckks.is_settled back);
  Alcotest.(check string) "re-serialises to the same bytes" wire (bytes back);
  let got = Rns_ckks.decode ctx (Rns_ckks.decrypt ctx sk back) in
  let expected = Array.init slots (fun i -> v.((i + 1) mod slots)) in
  let diff = Complexv.max_abs_diff (Complexv.of_real expected) got in
  Alcotest.(check bool) "decrypts to the rotation" true (diff < 5e-3)

let test_rns_corrupt_tag () =
  let w = Serial.writer () in
  Serial.write_tag w "JUNK";
  Alcotest.(check bool) "bad tag" true
    (try
       ignore (Serial.read_rns_ciphertext (Serial.reader (Serial.contents w)) (Rns_ckks.rq_ctx ctx));
       false
     with Serial.Corrupt _ -> true)

let test_big_ciphertext_roundtrip () =
  let params = Big_ckks.default_params ~n:32 ~log_fresh:120 () in
  let bctx = Big_ckks.make_context params in
  let rng = Sampling.create ~seed:5 in
  let sk, keys = Big_ckks.keygen bctx rng in
  let v = Array.init (Big_ckks.slot_count bctx) (fun i -> 0.1 *. float_of_int i) in
  let ct =
    Big_ckks.encrypt bctx rng keys.Big_ckks.public
      (Big_ckks.encode_real bctx ~logq:120 ~scale:1073741824.0 v)
  in
  let w = Serial.writer () in
  Serial.write_big_ciphertext w ct;
  let ct' = Serial.read_big_ciphertext (Serial.reader (Serial.contents w)) in
  let got = Big_ckks.decode bctx (Big_ckks.decrypt bctx sk ct') in
  Alcotest.(check bool) "decrypts" true (Complexv.max_abs_diff (Complexv.of_real v) got < 5e-3)

let test_loopback_protocol () =
  (* client encrypts; "server" (no secret key) squares the payload from raw
     bytes and sends bytes back; client decrypts *)
  let rng = Sampling.create ~seed:6 in
  let sk, keys = Rns_ckks.keygen ctx rng in
  let rq = Rns_ckks.rq_ctx ctx in
  let v = Array.init (Rns_ckks.slot_count ctx) (fun i -> 0.5 +. (0.01 *. float_of_int (i mod 10))) in
  (* client -> server *)
  let w = Serial.writer () in
  Serial.write_rns_ciphertext w rq
    (Rns_ckks.encrypt ctx rng keys.Rns_ckks.public
       (Rns_ckks.encode_real ctx ~level:3 ~scale:1073741824.0 v));
  let request = Serial.contents w in
  (* server: deserialise, compute on ciphertext, serialise *)
  let server bytes =
    let ct = Serial.read_rns_ciphertext (Serial.reader bytes) rq in
    let squared = Rns_ckks.mul ctx keys ct ct in
    let w = Serial.writer () in
    Serial.write_rns_ciphertext w rq squared;
    Serial.contents w
  in
  let response = server request in
  (* client decrypts the response *)
  let ct = Serial.read_rns_ciphertext (Serial.reader response) rq in
  let got = Rns_ckks.decode ctx (Rns_ckks.decrypt ctx sk ct) in
  let expected = Complexv.of_real (Array.map (fun x -> x *. x) v) in
  Alcotest.(check bool) "squared through the wire" true (Complexv.max_abs_diff expected got < 1e-2)

(* --- integrity fuzzing: the framed format must reject EVERY mangled
   payload with [Serial.Corrupt], never crash or silently parse garbage --- *)

let sample_ct_bytes () =
  let rng = Sampling.create ~seed:8 in
  let _sk, keys = Rns_ckks.keygen ctx rng in
  let rq = Rns_ckks.rq_ctx ctx in
  let v = Array.init (Rns_ckks.slot_count ctx) (fun i -> 0.01 *. float_of_int i) in
  let w = Serial.writer () in
  Serial.write_rns_ciphertext w rq
    (Rns_ckks.encrypt ctx rng keys.Rns_ckks.public
       (Rns_ckks.encode_real ctx ~level:3 ~scale:1073741824.0 v));
  (Serial.contents w, rq)

let test_fuzz_truncation_every_offset () =
  (* every strict prefix of a framed ciphertext must raise Corrupt *)
  let full, rq = sample_ct_bytes () in
  for cut = 0 to String.length full - 1 do
    let r = Serial.reader (String.sub full 0 cut) in
    match Serial.read_rns_ciphertext r rq with
    | _ -> Alcotest.failf "truncation at offset %d accepted" cut
    | exception Serial.Corrupt _ -> ()
  done

let test_fuzz_bit_flips () =
  (* seeded single-bit flips anywhere in the frame must raise Corrupt *)
  let full, rq = sample_ct_bytes () in
  let nbits = String.length full * 8 in
  let state = ref 0x2c9277b5 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  for _trial = 1 to 256 do
    let bit = next () mod nbits in
    let bytes = Bytes.of_string full in
    let i = bit / 8 in
    Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (bit mod 8))));
    let r = Serial.reader (Bytes.to_string bytes) in
    match Serial.read_rns_ciphertext r rq with
    | _ -> Alcotest.failf "bit flip at %d accepted" bit
    | exception Serial.Corrupt _ -> ()
  done

let test_fuzz_big_ciphertext () =
  (* same guarantees for the power-of-two frame format *)
  let params = Big_ckks.default_params ~n:32 ~log_fresh:120 () in
  let bctx = Big_ckks.make_context params in
  let rng = Sampling.create ~seed:9 in
  let _sk, keys = Big_ckks.keygen bctx rng in
  let v = Array.init (Big_ckks.slot_count bctx) (fun i -> 0.1 *. float_of_int i) in
  let w = Serial.writer () in
  Serial.write_big_ciphertext w
    (Big_ckks.encrypt bctx rng keys.Big_ckks.public
       (Big_ckks.encode_real bctx ~logq:120 ~scale:1073741824.0 v));
  let full = Serial.contents w in
  for cut = 0 to String.length full - 1 do
    let r = Serial.reader (String.sub full 0 cut) in
    match Serial.read_big_ciphertext r with
    | _ -> Alcotest.failf "truncation at offset %d accepted" cut
    | exception Serial.Corrupt _ -> ()
  done;
  let state = ref 0x1f123bb5 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  for _trial = 1 to 256 do
    let bit = next () mod (String.length full * 8) in
    let bytes = Bytes.of_string full in
    let i = bit / 8 in
    Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (bit mod 8))));
    match Serial.read_big_ciphertext (Serial.reader (Bytes.to_string bytes)) with
    | _ -> Alcotest.failf "bit flip at %d accepted" bit
    | exception Serial.Corrupt _ -> ()
  done

(* --- key-bundle (RKY3: public + relin + Galois/rotation keys) fuzz ---
   the rotation-key frames ride the same integrity envelope as ciphertexts;
   every mangling must surface as a typed [Serial.Corrupt] whose message
   names the frame tag (the Corrupt_ciphertext-family contract: the caller
   can tell *which* wire object — here the key bundle — was mangled) *)

let sample_key_bytes () =
  let rng = Sampling.create ~seed:11 in
  let sk, keys = Rns_ckks.keygen ctx rng in
  (* two Galois keys so the rotation table is non-trivially framed *)
  Rns_ckks.add_rotation_key ctx rng sk keys 1;
  Rns_ckks.add_rotation_key ctx rng sk keys 4;
  let rq = Rns_ckks.rq_ctx ctx in
  let w = Serial.writer () in
  Serial.write_rns_keys w rq keys;
  (Serial.contents w, rq)

let check_corrupt_carries_tag what msg =
  let contains s sub =
    let n = String.length s and k = String.length sub in
    let rec scan i = i + k <= n && (String.sub s i k = sub || scan (i + 1)) in
    scan 0
  in
  if not (contains msg "RKY3") then
    Alcotest.failf "%s: Corrupt message %S does not carry the RKY3 frame tag" what msg

(* A bundle of another key layout fails loudly instead of loading keys that
   decrypt garbage: an RKY2 frame (per-prime keys) by its tag, a key whose
   pair count is not the context's digit count by that count, and a pair
   outside the full key basis by its basis. *)
let test_keys_of_another_layout_rejected () =
  let full, rq = sample_key_bytes () in
  let rejected what bytes =
    match Serial.read_rns_keys (Serial.reader bytes) rq with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Serial.Corrupt msg -> check_corrupt_carries_tag what msg
  in
  rejected "RKY2 frame" ("RKY2" ^ String.sub full 4 (String.length full - 4));
  let rng = Sampling.create ~seed:11 in
  let _, keys = Rns_ckks.keygen ctx rng in
  let pairs = Rns_ckks.kswitch_pairs keys.Rns_ckks.relin in
  (* 3 chain primes: two digits, the last of one prime *)
  Alcotest.(check int) "digits of a 3-prime chain" 2 (Array.length pairs);
  List.iter
    (fun (what, pairs) ->
      let w = Serial.writer () in
      Serial.write_rns_keys w rq { keys with Rns_ckks.relin = Rns_ckks.kswitch_of_pairs pairs };
      rejected what (Serial.contents w))
    [
      ("one pair short", Array.sub pairs 0 1);
      ("one pair per chain prime", Array.append pairs [| pairs.(0) |]);
      ( "a pair without the special primes",
        let b, a = pairs.(1) in
        [| pairs.(0); (Rq_rns.subset b [| 0; 1; 2 |], a) |] );
    ]

(* Loading builds each rotation key's permutation from its Galois element,
   so an element that names no automorphism X -> X^g (g even, or outside
   [1, 2n)) is refused, even inside a well-checksummed frame. *)
let test_keys_bad_galois_rejected () =
  let rng = Sampling.create ~seed:11 in
  let sk, keys = Rns_ckks.keygen ctx rng in
  Rns_ckks.add_rotation_key ctx rng sk keys 1;
  let rq = Rns_ckks.rq_ctx ctx in
  let key = List.hd (List.of_seq (Hashtbl.to_seq_values keys.Rns_ckks.rotation)) in
  List.iter
    (fun galois ->
      let rotation = Hashtbl.create 1 in
      Hashtbl.replace rotation galois key;
      let w = Serial.writer () in
      Serial.write_rns_keys w rq { keys with Rns_ckks.rotation };
      match Serial.read_rns_keys (Serial.reader (Serial.contents w)) rq with
      | _ -> Alcotest.failf "Galois element %d accepted" galois
      | exception Serial.Corrupt msg ->
          check_corrupt_carries_tag (Printf.sprintf "Galois element %d" galois) msg)
    [ 4; 0; -5; 2 * Rq_rns.ctx_n rq + 1 ]

let test_fuzz_keys_truncation_every_offset () =
  let full, rq = sample_key_bytes () in
  for cut = 0 to String.length full - 1 do
    let r = Serial.reader (String.sub full 0 cut) in
    match Serial.read_rns_keys r rq with
    | _ -> Alcotest.failf "key-bundle truncation at offset %d accepted" cut
    | exception Serial.Corrupt msg ->
        check_corrupt_carries_tag (Printf.sprintf "truncation at %d" cut) msg
  done

let test_fuzz_keys_bit_flips () =
  let full, rq = sample_key_bytes () in
  let nbits = String.length full * 8 in
  let state = ref 0x3d8f2a11 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  for _trial = 1 to 256 do
    let bit = next () mod nbits in
    let bytes = Bytes.of_string full in
    let i = bit / 8 in
    Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (bit mod 8))));
    let r = Serial.reader (Bytes.to_string bytes) in
    match Serial.read_rns_keys r rq with
    | _ -> Alcotest.failf "key-bundle bit flip at %d accepted" bit
    | exception Serial.Corrupt msg ->
        check_corrupt_carries_tag (Printf.sprintf "bit flip at %d" bit) msg
  done

let test_ciphertext_corrupt_carries_tag () =
  (* the ciphertext frame family reports its own tag the same way *)
  let full, rq = sample_ct_bytes () in
  let r = Serial.reader (String.sub full 0 (String.length full - 1)) in
  (match Serial.read_rns_ciphertext r rq with
  | _ -> Alcotest.fail "truncated RCT2 accepted"
  | exception Serial.Corrupt msg ->
      if not (String.length msg >= 4 && String.sub msg 0 4 = "RCT2") then
        Alcotest.failf "RCT2 Corrupt message %S does not carry its frame tag" msg)

let test_trailing_garbage_in_frame_rejected () =
  (* a frame whose parser does not consume the whole body is corrupt: build
     one by hand with extra bytes inside the checksummed region *)
  let w = Serial.writer () in
  Serial.write_frame w "BCT2" (fun b ->
      Serial.write_int b 120;
      Serial.write_float b 1024.0;
      Serial.write_int b 0 (* empty c0 *);
      Serial.write_int b 0 (* empty c1 *);
      Serial.write_int b 99 (* trailing garbage *));
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Serial.read_big_ciphertext (Serial.reader (Serial.contents w)));
       false
     with Serial.Corrupt _ -> true)

let test_keys_roundtrip_and_remote_eval () =
  (* the full Figure-3 flow: the client serialises its PUBLIC material (pk,
     relin, selected rotation keys); the server reconstructs the bundle from
     bytes and uses it to multiply and rotate — no secret key crosses the
     wire *)
  let rng = Sampling.create ~seed:7 in
  let sk, keys = Rns_ckks.keygen ctx rng in
  Rns_ckks.add_rotation_key ctx rng sk keys 2;
  let rq = Rns_ckks.rq_ctx ctx in
  let w = Serial.writer () in
  Serial.write_rns_keys w rq keys;
  let v = Array.init (Rns_ckks.slot_count ctx) (fun i -> 0.3 +. (0.01 *. float_of_int (i mod 8))) in
  let wc = Serial.writer () in
  Serial.write_rns_ciphertext wc rq
    (Rns_ckks.encrypt ctx rng keys.Rns_ckks.public
       (Rns_ckks.encode_real ctx ~level:3 ~scale:1073741824.0 v));
  let key_bytes = Serial.contents w and ct_bytes = Serial.contents wc in
  (* server side *)
  let server_keys = Serial.read_rns_keys (Serial.reader key_bytes) rq in
  Alcotest.(check int) "rotation keys arrived" 1 (Rns_ckks.rotation_key_count server_keys);
  let ct = Serial.read_rns_ciphertext (Serial.reader ct_bytes) rq in
  let result = Rns_ckks.rotate ctx server_keys (Rns_ckks.mul ctx server_keys ct ct) 2 in
  let wr = Serial.writer () in
  Serial.write_rns_ciphertext wr rq result;
  (* client decrypts *)
  let back = Serial.read_rns_ciphertext (Serial.reader (Serial.contents wr)) rq in
  let got = Rns_ckks.decode ctx (Rns_ckks.decrypt ctx sk back) in
  let slots = Rns_ckks.slot_count ctx in
  let expected =
    Complexv.of_real (Array.init slots (fun i -> v.((i + 2) mod slots) *. v.((i + 2) mod slots)))
  in
  Alcotest.(check bool) "rotated square" true (Complexv.max_abs_diff expected got < 1e-2)

(* --- networked serving frames (REQ1 / RSP1 / HLTH, DESIGN.md §12) ---
   the socket protocol rides the same integrity envelope as the ciphertext
   frames, so it inherits the same obligations: bijective roundtrips for
   every payload (including the full typed error taxonomy), and a typed
   [Serial.Corrupt] — never an escaping exception or garbage parse — for
   every truncation and every flipped bit. *)

module Herr = Chet_herr.Herr

let sample_request =
  {
    Serial.rq_id = 7;
    rq_seed = 1234;
    rq_hedge = 0;
    rq_deadline_ms = 2500.0;
    rq_shape = [| 1; 4; 4 |];
    rq_image = Array.init 16 (fun i -> (float_of_int i /. 8.0) -. 1.0);
  }

let sample_errors : Herr.error list =
  [
    Herr.Scale_mismatch { expected = 1024.0; got = 2048.0 };
    Herr.Level_mismatch { expected = 3; got = 1 };
    Herr.Modulus_exhausted { level = 0; requested = 1 };
    Herr.Slot_overflow { slots = 8; requested = 16 };
    Herr.Illegal_rescale { divisor = 3; reason = "not a chain prime" };
    Herr.Numeric_blowup { slot = 5; value = 1e30 };
    Herr.Corrupt_ciphertext { reason = "decode magnitude" };
    Herr.Shape_mismatch { expected = "[1;4;4]"; got = "[1;2;2]" };
    Herr.Missing_node { node_id = 12 };
    Herr.Missing_rotation_key { amount = -3 };
    Herr.Invalid_op { reason = "conv stride 0" };
    Herr.Overloaded { queue_depth = 9; high_water = 8 };
    Herr.Deadline_exceeded { budget_ms = 10.0; elapsed_ms = 11.5 };
    Herr.Worker_crashed { worker = 1; reason = "Stack_overflow" };
    Herr.Corrupt_bundle { path = "gen-000001/meta"; reason = "checksum" };
    Herr.Corrupt_frame { frame = "REQ1"; reason = "truncated" };
    Herr.Cancelled { node_id = Some 23; reason = "superseded" };
    Herr.Cancelled { node_id = None; reason = "caller went away" };
    Herr.Integrity_violation { slot = 33; expected = 0.75; got = 0.1875 };
  ]

let sample_response_ok =
  (* carries a verified sentinel lane: the wire v3 fields ride the fuzz
     harness and the roundtrip check like every older field *)
  {
    Serial.rs_id = 7;
    rs_shard = 1;
    rs_served_by = "primary";
    rs_degraded = false;
    rs_attempts = 2;
    rs_margin_bits = 7.25;
    rs_sentinel = Array.init 6 (fun i -> float_of_int i *. 0.125);
    rs_result = Ok ([| 1; 10 |], Array.init 10 (fun i -> float_of_int i *. 0.5));
  }

let sample_response_err err =
  {
    Serial.rs_id = 8;
    rs_shard = 0;
    rs_served_by = "";
    rs_degraded = true;
    rs_attempts = 3;
    rs_margin_bits = 0.0;
    rs_sentinel = [||];
    rs_result =
      Error (err, { Herr.op = "mul"; backend = "checked"; node_id = Some 4; layer = Some "conv1" });
  }

let sample_health =
  Serial.Health_report
    {
      hr_uptime_s = 12.5;
      hr_shards =
        [
          { Serial.hs_shard = 0; hs_pid = 100; hs_up = true; hs_restarts = 0; hs_last_error = "" };
          {
            Serial.hs_shard = 1;
            hs_pid = 101;
            hs_up = false;
            hs_restarts = 3;
            hs_last_error = "killed by signal 9";
          };
        ];
    }

let frame_bytes write v =
  let w = Serial.writer () in
  write w v;
  Serial.contents w

let test_wire_request_roundtrip () =
  let back = Serial.read_request (Serial.reader (frame_bytes Serial.write_request sample_request)) in
  Alcotest.(check bool) "request roundtrip" true (back = sample_request)

let test_wire_response_roundtrip () =
  let back =
    Serial.read_response (Serial.reader (frame_bytes Serial.write_response sample_response_ok))
  in
  Alcotest.(check bool) "ok response roundtrip" true (back = sample_response_ok);
  (* the error codec must be bijective across the ENTIRE taxonomy: a client
     must receive exactly the typed error the shard raised *)
  List.iter
    (fun err ->
      let rsp = sample_response_err err in
      let back = Serial.read_response (Serial.reader (frame_bytes Serial.write_response rsp)) in
      if back <> rsp then
        Alcotest.failf "error variant %s did not roundtrip" (Herr.error_name err))
    sample_errors;
  (* error code 18 belonged to an error nothing raises any more; it stays
     unassigned, so an RSP1 carrying it is refused, typed *)
  let retired =
    frame_bytes
      (fun w () ->
        Serial.write_frame w "RSP1" (fun w ->
            Serial.write_int w Serial.wire_version;
            List.iter (Serial.write_int w) [ 8 (* id *); 0 (* shard *) ];
            Serial.write_string w "";
            List.iter (Serial.write_int w) [ 0 (* degraded *); 1 (* attempts *) ];
            Serial.write_float w 0.0;
            Serial.write_float_array w [||];
            List.iter (Serial.write_int w) [ 1 (* error result *); 18 ];
            Serial.write_float w (-1.5);
            Serial.write_float w 0.05;
            Serial.write_herr_context w (Herr.context "decrypt")))
      ()
  in
  match Serial.read_response (Serial.reader retired) with
  | _ -> Alcotest.fail "RSP1 with unassigned error code 18 accepted"
  | exception Serial.Corrupt msg ->
      Alcotest.(check string) "typed reason" "RSP1: unknown error code 18" msg

let test_wire_health_roundtrip () =
  List.iter
    (fun h ->
      let back = Serial.read_health (Serial.reader (frame_bytes Serial.write_health h)) in
      Alcotest.(check bool) "health roundtrip" true (back = h))
    [
      Serial.Health_ping;
      Serial.Health_kill 1;
      sample_health;
      Serial.Health_ack { ha_ok = false; ha_detail = "no shard 9" };
      Serial.Health_selftest;
    ]

let test_wire_response_unverified () =
  (* nan margin = "this answer ran without a sentinel lane" — the one NaN
     the codec must carry faithfully (structural equality can't see it) *)
  let rsp = { sample_response_ok with Serial.rs_margin_bits = Float.nan; rs_sentinel = [||] } in
  let back = Serial.read_response (Serial.reader (frame_bytes Serial.write_response rsp)) in
  Alcotest.(check bool) "nan margin survives" true (Float.is_nan back.Serial.rs_margin_bits);
  Alcotest.(check bool) "empty lane survives" true (back.Serial.rs_sentinel = [||])

let fuzz_frame name full read_back =
  for cut = 0 to String.length full - 1 do
    match read_back (String.sub full 0 cut) with
    | _ -> Alcotest.failf "%s: truncation at offset %d accepted" name cut
    | exception Serial.Corrupt _ -> ()
  done;
  let state = ref 0x5eed1234 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  for _trial = 1 to 256 do
    let bit = next () mod (String.length full * 8) in
    let bytes = Bytes.of_string full in
    let i = bit / 8 in
    Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (bit mod 8))));
    match read_back (Bytes.to_string bytes) with
    | _ -> Alcotest.failf "%s: bit flip at %d accepted" name bit
    | exception Serial.Corrupt _ -> ()
  done

let test_fuzz_wire_request () =
  fuzz_frame "REQ1"
    (frame_bytes Serial.write_request sample_request)
    (fun s -> Serial.read_request (Serial.reader s))

let test_fuzz_wire_response () =
  fuzz_frame "RSP1"
    (frame_bytes Serial.write_response sample_response_ok)
    (fun s -> Serial.read_response (Serial.reader s));
  fuzz_frame "RSP1-err"
    (frame_bytes Serial.write_response
       (sample_response_err (Herr.Deadline_exceeded { budget_ms = 1.0; elapsed_ms = 2.0 })))
    (fun s -> Serial.read_response (Serial.reader s))

let test_fuzz_wire_health () =
  fuzz_frame "HLTH"
    (frame_bytes Serial.write_health sample_health)
    (fun s -> Serial.read_health (Serial.reader s));
  (* the selftest probe frame is tiny (version + kind), so the fuzz space is
     small — all the more reason every mangling must still land in Corrupt *)
  fuzz_frame "HLTH-selftest"
    (frame_bytes Serial.write_health Serial.Health_selftest)
    (fun s -> Serial.read_health (Serial.reader s))

(* --- CNCL + hedged REQ1 (DESIGN.md §13) ---
   the cancellation control frame and the hedge generation carried by
   requests are part of the same envelope contract: bijective roundtrip,
   typed rejection of every truncation and every flipped bit *)

let sample_cancel = { Serial.cn_id = 42; cn_reason = "superseded" }

let test_wire_cancel_roundtrip () =
  let back = Serial.read_cancel (Serial.reader (frame_bytes Serial.write_cancel sample_cancel)) in
  Alcotest.(check bool) "cancel roundtrip" true (back = sample_cancel);
  let empty = { Serial.cn_id = 0; cn_reason = "" } in
  let back = Serial.read_cancel (Serial.reader (frame_bytes Serial.write_cancel empty)) in
  Alcotest.(check bool) "empty-reason cancel roundtrip" true (back = empty)

let test_wire_hedged_request_roundtrip () =
  let hedged = { sample_request with Serial.rq_id = 9; rq_hedge = 3 } in
  let back = Serial.read_request (Serial.reader (frame_bytes Serial.write_request hedged)) in
  Alcotest.(check bool) "hedged request roundtrip" true (back = hedged);
  Alcotest.(check int) "hedge generation carried" 3 back.Serial.rq_hedge

let test_fuzz_wire_cancel () =
  fuzz_frame "CNCL"
    (frame_bytes Serial.write_cancel sample_cancel)
    (fun s -> Serial.read_cancel (Serial.reader s))

let suite =
  [
    ( "serial",
      [
        Alcotest.test_case "primitive roundtrips" `Quick test_primitives_roundtrip;
        Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
        Alcotest.test_case "bad lengths rejected" `Quick test_bad_lengths_rejected;
        Alcotest.test_case "RNS ciphertext roundtrip" `Quick test_rns_ciphertext_roundtrip;
        Alcotest.test_case "unsettled rotation roundtrips settled" `Quick
          test_rns_unsettled_roundtrip;
        Alcotest.test_case "pending sum roundtrips materialised" `Quick test_rns_pending_roundtrip;
        Alcotest.test_case "corrupt tag rejected" `Quick test_rns_corrupt_tag;
        Alcotest.test_case "pow2 ciphertext roundtrip" `Quick test_big_ciphertext_roundtrip;
        Alcotest.test_case "fuzz: truncation at every offset" `Quick test_fuzz_truncation_every_offset;
        Alcotest.test_case "fuzz: seeded bit flips" `Quick test_fuzz_bit_flips;
        Alcotest.test_case "fuzz: pow2 frame" `Quick test_fuzz_big_ciphertext;
        Alcotest.test_case "fuzz: key bundle truncation (RKY3)" `Quick
          test_fuzz_keys_truncation_every_offset;
        Alcotest.test_case "fuzz: key bundle bit flips (RKY3)" `Quick test_fuzz_keys_bit_flips;
        Alcotest.test_case "key bundle of another layout rejected" `Quick
          test_keys_of_another_layout_rejected;
        Alcotest.test_case "key bundle with a bad Galois element rejected" `Quick
          test_keys_bad_galois_rejected;
        Alcotest.test_case "ciphertext Corrupt carries frame tag" `Quick
          test_ciphertext_corrupt_carries_tag;
        Alcotest.test_case "trailing garbage in frame" `Quick test_trailing_garbage_in_frame_rejected;
        Alcotest.test_case "client/server loopback" `Quick test_loopback_protocol;
        Alcotest.test_case "key bundle + remote evaluation" `Quick test_keys_roundtrip_and_remote_eval;
        Alcotest.test_case "wire request roundtrip (REQ1)" `Quick test_wire_request_roundtrip;
        Alcotest.test_case "wire response + full error taxonomy (RSP1)" `Quick
          test_wire_response_roundtrip;
        Alcotest.test_case "wire health roundtrip (HLTH)" `Quick test_wire_health_roundtrip;
        Alcotest.test_case "wire response unverified markers" `Quick test_wire_response_unverified;
        Alcotest.test_case "fuzz: REQ1 truncation + bit flips" `Quick test_fuzz_wire_request;
        Alcotest.test_case "fuzz: RSP1 truncation + bit flips" `Quick test_fuzz_wire_response;
        Alcotest.test_case "fuzz: HLTH truncation + bit flips" `Quick test_fuzz_wire_health;
        Alcotest.test_case "wire cancel roundtrip (CNCL)" `Quick test_wire_cancel_roundtrip;
        Alcotest.test_case "hedged request roundtrip (rq_hedge)" `Quick
          test_wire_hedged_request_roundtrip;
        Alcotest.test_case "fuzz: CNCL truncation + bit flips" `Quick test_fuzz_wire_cancel;
      ] );
  ]

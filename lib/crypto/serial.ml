module Bigint = Chet_bigint.Bigint

type writer = Buffer.t
type reader = { data : string; mutable pos : int }

exception Corrupt of string

let writer () = Buffer.create 4096
let contents w = Buffer.contents w
let reader data = { data; pos = 0 }
let reader_eof r = r.pos >= String.length r.data

let need r n =
  if r.pos + n > String.length r.data then raise (Corrupt "truncated payload")

let write_int w v = Buffer.add_int64_le w (Int64.of_int v)

let read_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let write_float w f = Buffer.add_int64_le w (Int64.bits_of_float f)

let read_float r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let write_string w s =
  write_int w (String.length s);
  Buffer.add_string w s

let read_string r =
  let len = read_int r in
  if len < 0 || len > String.length r.data - r.pos then raise (Corrupt "bad string length");
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let write_int_array w a =
  write_int w (Array.length a);
  Array.iter (write_int w) a

let read_int_array r =
  let len = read_int r in
  if len < 0 || len > (String.length r.data - r.pos) / 8 then raise (Corrupt "bad array length");
  Array.init len (fun _ -> read_int r)

let write_float_array w a =
  write_int w (Array.length a);
  Array.iter (write_float w) a

let read_float_array r =
  let len = read_int r in
  if len < 0 || len > (String.length r.data - r.pos) / 8 then raise (Corrupt "bad array length");
  Array.init len (fun _ -> read_float r)

let write_bigint w v = write_string w (Bigint.to_string v)

let read_bigint r =
  let s = read_string r in
  try Bigint.of_string s with Invalid_argument _ -> raise (Corrupt "bad bigint")

let write_bigint_array w a =
  write_int w (Array.length a);
  Array.iter (write_bigint w) a

let read_bigint_array r =
  let len = read_int r in
  if len < 0 || len > String.length r.data - r.pos then raise (Corrupt "bad array length");
  Array.init len (fun _ -> read_bigint r)

let write_raw_int64 w v = Buffer.add_int64_le w v

let read_raw_int64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let write_tag w tag =
  assert (String.length tag = 4);
  Buffer.add_string w tag

let expect_tag r tag =
  need r 4;
  let got = String.sub r.data r.pos 4 in
  r.pos <- r.pos + 4;
  if got <> tag then raise (Corrupt (Printf.sprintf "expected %s payload, found %s" tag got))

(* --- checksummed frames ---

   Every tagged payload is wrapped in a frame: [tag | length | FNV-1a-64 of
   the body | body].  The checksum is verified BEFORE the body is parsed, so
   a flipped bit or a truncated transmission surfaces as a typed [Corrupt]
   at the frame boundary instead of as a structurally-valid-but-garbage
   ciphertext deeper in the protocol. *)

let fnv1a64 s ~pos ~len =
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001b3L
  done;
  !h

let read_hash r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let write_frame w tag body =
  write_tag w tag;
  let b = Buffer.create 1024 in
  body b;
  let payload = Buffer.contents b in
  write_int w (String.length payload);
  Buffer.add_int64_le w (fnv1a64 payload ~pos:0 ~len:(String.length payload));
  Buffer.add_string w payload

(* Frame-boundary failures are tagged with the frame kind ("RKY3: checksum
   mismatch"), so a [Corrupt] escaping a multi-payload protocol still says
   *which* wire object (ciphertext, key bundle, relin frame) was mangled —
   the Corrupt_ciphertext-family contract the fuzz tests assert. *)
let contains_tag msg tag =
  let n = String.length msg and k = String.length tag in
  let rec scan i = i + k <= n && (String.sub msg i k = tag || scan (i + 1)) in
  scan 0

let corrupt_in tag msg = raise (Corrupt (if contains_tag msg tag then msg else tag ^ ": " ^ msg))

(* The length sits in the frame header, OUTSIDE checksum coverage, so it must
   be validated at full 64-bit width: [read_int] narrows through
   [Int64.to_int], which would silently drop a flipped top bit and let a
   mangled header parse as if pristine. *)
let read_frame_len r =
  let len64 = read_raw_int64 r in
  if Int64.compare len64 0L < 0 || Int64.compare len64 (Int64.of_int max_int) > 0 then
    raise (Corrupt "bad frame length");
  Int64.to_int len64

let read_frame r tag payload =
  (try expect_tag r tag with Corrupt msg -> corrupt_in tag msg);
  (try
     let len = read_frame_len r in
     if len > String.length r.data - r.pos - 8 then raise (Corrupt "truncated frame");
     let h = read_hash r in
     if not (Int64.equal h (fnv1a64 r.data ~pos:r.pos ~len)) then raise (Corrupt "checksum mismatch");
     let stop = r.pos + len in
     let v = payload r in
     if r.pos <> stop then raise (Corrupt "frame length mismatch");
     v
   with Corrupt msg -> corrupt_in tag msg)

let read_frame_prefix r tag payload =
  (try expect_tag r tag with Corrupt msg -> corrupt_in tag msg);
  (try
     let len = read_frame_len r in
     if len > String.length r.data - r.pos - 8 then raise (Corrupt "truncated frame");
     let h = read_hash r in
     if not (Int64.equal h (fnv1a64 r.data ~pos:r.pos ~len)) then raise (Corrupt "checksum mismatch");
     let stop = r.pos + len in
     let v = payload r in
     if r.pos > stop then raise (Corrupt "frame length mismatch");
     r.pos <- stop;
     v
   with Corrupt msg -> corrupt_in tag msg)

(* --- RNS-CKKS --- *)

let write_rq w (p : Rq_rns.t) =
  write_int_array w (Rq_rns.basis p);
  write_int w (if Rq_rns.is_ntt p then 1 else 0);
  Array.iter (fun i -> write_int_array w (Rq_rns.component p ~basis_index:i)) (Rq_rns.basis p)

let read_rq r ctx =
  let basis = read_int_array r in
  let nprimes = Array.length (Rq_rns.ctx_primes ctx) in
  Array.iter (fun i -> if i < 0 || i >= nprimes then raise (Corrupt "bad basis index")) basis;
  let ntt = read_int r = 1 in
  let n = Rq_rns.ctx_n ctx in
  let comps =
    Array.map
      (fun i ->
        let c = read_int_array r in
        if Array.length c <> n then raise (Corrupt "bad component length");
        let p = (Rq_rns.ctx_primes ctx).(i) in
        Array.iter (fun v -> if v < 0 || v >= p then raise (Corrupt "residue out of range")) c;
        c)
      basis
  in
  Rq_rns.of_components ~basis ~comps ~ntt

(* the settled form: an unsettled rotation goes on the wire as the
   ciphertext it settles to *)
let write_rns_ciphertext w ctx (ct : Rns_ckks.ciphertext) =
  ignore ctx;
  let ct = Rns_ckks.settle ct in
  write_frame w "RCT2" (fun w ->
      write_int w (Rns_ckks.level_of ct);
      write_float w (Rns_ckks.scale_of ct);
      write_rq w (Rns_ckks.c0 ct);
      write_rq w (Rns_ckks.c1 ct))

let read_rns_ciphertext r ctx =
  read_frame r "RCT2" (fun r ->
      let level = read_int r in
      let scale = read_float r in
      let c0 = read_rq r ctx in
      let c1 = read_rq r ctx in
      Rns_ckks.of_parts ~c0 ~c1 ~level ~scale)

let write_kswitch w k =
  let pairs = Rns_ckks.kswitch_pairs k in
  write_int w (Array.length pairs);
  Array.iter
    (fun (b, a) ->
      write_rq w b;
      write_rq w a)
    pairs

(* one NTT-form pair over the full key basis per two-prime digit of the
   L-prime chain (the context's last two primes are the special modulus);
   a key of another layout (per-prime pairs, another chain) would load and
   decrypt garbage *)
let read_kswitch r ctx =
  let len = read_int r in
  let nprimes = Array.length (Rq_rns.ctx_primes ctx) in
  let digits = (nprimes - 2 + 1) / 2 in
  if len <> digits then
    raise (Corrupt (Printf.sprintf "key has %d pairs, the context's chain has %d digits" len digits));
  let full = Array.init nprimes Fun.id in
  let poly () =
    let p = read_rq r ctx in
    if Rq_rns.basis p <> full || not (Rq_rns.is_ntt p) then
      raise (Corrupt "key pair not in NTT form over the full key basis");
    p
  in
  Rns_ckks.kswitch_of_pairs
    (Array.init len (fun _ ->
         let b = poly () in
         let a = poly () in
         (b, a)))

let write_rns_keys w ctx (keys : Rns_ckks.keys) =
  ignore ctx;
  write_frame w "RKY3" (fun w ->
      let pk0, pk1 = Rns_ckks.public_key_parts keys.Rns_ckks.public in
      write_rq w pk0;
      write_rq w pk1;
      write_kswitch w keys.Rns_ckks.relin;
      write_int w (Hashtbl.length keys.Rns_ckks.rotation);
      Hashtbl.iter
        (fun galois k ->
          write_int w galois;
          write_kswitch w (Rns_ckks.rotation_kswitch k))
        keys.Rns_ckks.rotation)

let read_rns_keys r ctx =
  read_frame r "RKY3" (fun r ->
      let pk0 = read_rq r ctx in
      let pk1 = read_rq r ctx in
      let relin = read_kswitch r ctx in
      let count = read_int r in
      if count < 0 || count > 65536 then raise (Corrupt "bad rotation key count");
      let rotation = Hashtbl.create (Stdlib.max 1 count) in
      let two_n = 2 * Rq_rns.ctx_n ctx in
      for _ = 1 to count do
        let galois = read_int r in
        (* the Galois element of X -> X^g: an odd exponent in [1, 2n) *)
        if galois land 1 = 0 || galois < 1 || galois >= two_n then
          raise (Corrupt (Printf.sprintf "bad Galois element %d" galois));
        Hashtbl.replace rotation galois (Rns_ckks.rotation_key_of ctx ~galois (read_kswitch r ctx))
      done;
      { Rns_ckks.public = Rns_ckks.public_key_of_parts (pk0, pk1); relin; rotation })

(* --- power-of-two CKKS --- *)

let write_big_ciphertext w (ct : Big_ckks.ciphertext) =
  write_frame w "BCT2" (fun w ->
      write_int w (Big_ckks.logq_of ct);
      write_float w ct.Big_ckks.scale;
      write_bigint_array w (Rq_big.coeffs ct.Big_ckks.c0);
      write_bigint_array w (Rq_big.coeffs ct.Big_ckks.c1))

let read_big_ciphertext r =
  read_frame r "BCT2" (fun r ->
      let logq = read_int r in
      let scale = read_float r in
      let c0 = read_bigint_array r in
      let c1 = read_bigint_array r in
      if Array.length c0 <> Array.length c1 then raise (Corrupt "component length mismatch");
      match Rq_big.of_reduced_coeffs ~logq c0, Rq_big.of_reduced_coeffs ~logq c1 with
      | c0, c1 -> { Big_ckks.c0; c1; scale }
      | exception Invalid_argument _ -> raise (Corrupt "big ciphertext coefficient out of range"))

(* --- networked serving frames (DESIGN.md §12) ---

   The client/server protocol of Figure 3 carried over sockets: REQ1 is one
   inference request, RSP1 its answer (a tensor, or the full typed error
   taxonomy round-tripped so the client sees the *same* [Herr.error] the
   server raised), HLTH the supervisor's health/control channel. All three
   ride the same FNV-1a checksum frame discipline as the ciphertext and key
   payloads, so a torn or bit-flipped transmission is a typed rejection at
   the frame boundary — never a hang, never garbage parsed as a tensor. *)

module Herr = Chet_herr.Herr

(* v3: RSP1 carries the sentinel lane (rs_margin_bits + rs_sentinel) and
   HLTH gains the supervisor's Health_selftest probe (DESIGN.md §16). *)
let wire_version = 3

type wire_request = {
  rq_id : int;
      (** client-assigned request id: the idempotency key the shard-side
          dedupe cache and the CNCL cancel frame are keyed by *)
  rq_seed : int;  (** drives per-request encryption randomness in the shard *)
  rq_hedge : int;
      (** hedge generation: 0 = the original send, k = the k-th duplicate
          launched after the hedge delay. Same id + different generation is
          the same logical request; the answer must be bit-identical. *)
  rq_deadline_ms : float;
  rq_shape : int array;
  rq_image : float array;
}

type wire_cancel = {
  cn_id : int;  (** request id (the client-assigned [rq_id]) to cancel *)
  cn_reason : string;
}

type wire_response = {
  rs_id : int;
  rs_shard : int;  (** shard that answered; -1 = the front end itself *)
  rs_served_by : string;
  rs_degraded : bool;
  rs_attempts : int;
  rs_margin_bits : float;
      (** measured sentinel precision headroom of this answer; NaN when the
          serving rung did not verify a sentinel lane *)
  rs_sentinel : float array;
      (** the decrypted sentinel outputs, so the receiver can re-verify the
          answer against its own clear-reference prediction independently of
          the shard's claim; [[||]] when no sentinel lane ran *)
  rs_result : (int array * float array, Herr.error * Herr.context) result;
}

type shard_report = {
  hs_shard : int;
  hs_pid : int;
  hs_up : bool;
  hs_restarts : int;
  hs_last_error : string;  (** "" when healthy *)
}

type wire_health =
  | Health_ping
  | Health_kill of int  (** supervisor kill endpoint: SIGKILL this shard *)
  | Health_report of { hr_uptime_s : float; hr_shards : shard_report list }
  | Health_ack of { ha_ok : bool; ha_detail : string }
  | Health_selftest
      (** run a sentinel-only probe inference locally and ack whether its
          lane verified — how the supervisor confirms a suspect shard really
          corrupts results before quarantining it (DESIGN.md §16) *)

(* Full bijective codec for the error taxonomy: the client must receive the
   same typed value the server raised, not a stringified shadow of it. Codes
   are never reused: 18 (a retired precision-guard error) stays unassigned,
   so an old peer's code 18 is refused as corrupt rather than misread. *)

let write_herr_error w (e : Herr.error) =
  match e with
  | Herr.Scale_mismatch { expected; got } ->
      write_int w 0;
      write_float w expected;
      write_float w got
  | Herr.Level_mismatch { expected; got } ->
      write_int w 1;
      write_int w expected;
      write_int w got
  | Herr.Modulus_exhausted { level; requested } ->
      write_int w 2;
      write_int w level;
      write_int w requested
  | Herr.Slot_overflow { slots; requested } ->
      write_int w 3;
      write_int w slots;
      write_int w requested
  | Herr.Illegal_rescale { divisor; reason } ->
      write_int w 4;
      write_int w divisor;
      write_string w reason
  | Herr.Numeric_blowup { slot; value } ->
      write_int w 5;
      write_int w slot;
      write_float w value
  | Herr.Corrupt_ciphertext { reason } ->
      write_int w 6;
      write_string w reason
  | Herr.Shape_mismatch { expected; got } ->
      write_int w 7;
      write_string w expected;
      write_string w got
  | Herr.Missing_node { node_id } ->
      write_int w 8;
      write_int w node_id
  | Herr.Missing_rotation_key { amount } ->
      write_int w 9;
      write_int w amount
  | Herr.Invalid_op { reason } ->
      write_int w 10;
      write_string w reason
  | Herr.Overloaded { queue_depth; high_water } ->
      write_int w 11;
      write_int w queue_depth;
      write_int w high_water
  | Herr.Deadline_exceeded { budget_ms; elapsed_ms } ->
      write_int w 12;
      write_float w budget_ms;
      write_float w elapsed_ms
  | Herr.Worker_crashed { worker; reason } ->
      write_int w 13;
      write_int w worker;
      write_string w reason
  | Herr.Corrupt_bundle { path; reason } ->
      write_int w 14;
      write_string w path;
      write_string w reason
  | Herr.Corrupt_frame { frame; reason } ->
      write_int w 15;
      write_string w frame;
      write_string w reason
  | Herr.Cancelled { node_id; reason } ->
      write_int w 16;
      (match node_id with
      | None -> write_int w 0
      | Some id ->
          write_int w 1;
          write_int w id);
      write_string w reason
  | Herr.Integrity_violation { slot; expected; got } ->
      write_int w 17;
      write_int w slot;
      write_float w expected;
      write_float w got

let read_herr_error r : Herr.error =
  match read_int r with
  | 0 ->
      let expected = read_float r in
      let got = read_float r in
      Herr.Scale_mismatch { expected; got }
  | 1 ->
      let expected = read_int r in
      let got = read_int r in
      Herr.Level_mismatch { expected; got }
  | 2 ->
      let level = read_int r in
      let requested = read_int r in
      Herr.Modulus_exhausted { level; requested }
  | 3 ->
      let slots = read_int r in
      let requested = read_int r in
      Herr.Slot_overflow { slots; requested }
  | 4 ->
      let divisor = read_int r in
      let reason = read_string r in
      Herr.Illegal_rescale { divisor; reason }
  | 5 ->
      let slot = read_int r in
      let value = read_float r in
      Herr.Numeric_blowup { slot; value }
  | 6 -> Herr.Corrupt_ciphertext { reason = read_string r }
  | 7 ->
      let expected = read_string r in
      let got = read_string r in
      Herr.Shape_mismatch { expected; got }
  | 8 -> Herr.Missing_node { node_id = read_int r }
  | 9 -> Herr.Missing_rotation_key { amount = read_int r }
  | 10 -> Herr.Invalid_op { reason = read_string r }
  | 11 ->
      let queue_depth = read_int r in
      let high_water = read_int r in
      Herr.Overloaded { queue_depth; high_water }
  | 12 ->
      let budget_ms = read_float r in
      let elapsed_ms = read_float r in
      Herr.Deadline_exceeded { budget_ms; elapsed_ms }
  | 13 ->
      let worker = read_int r in
      let reason = read_string r in
      Herr.Worker_crashed { worker; reason }
  | 14 ->
      let path = read_string r in
      let reason = read_string r in
      Herr.Corrupt_bundle { path; reason }
  | 15 ->
      let frame = read_string r in
      let reason = read_string r in
      Herr.Corrupt_frame { frame; reason }
  | 16 ->
      let node_id =
        match read_int r with
        | 0 -> None
        | 1 -> Some (read_int r)
        | k -> raise (Corrupt (Printf.sprintf "bad cancel node-id flag %d" k))
      in
      let reason = read_string r in
      Herr.Cancelled { node_id; reason }
  | 17 ->
      let slot = read_int r in
      let expected = read_float r in
      let got = read_float r in
      Herr.Integrity_violation { slot; expected; got }
  | k -> raise (Corrupt (Printf.sprintf "unknown error code %d" k))

let write_herr_context w (c : Herr.context) =
  write_string w c.Herr.op;
  write_string w c.Herr.backend;
  (match c.Herr.node_id with
  | None -> write_int w 0
  | Some id ->
      write_int w 1;
      write_int w id);
  match c.Herr.layer with
  | None -> write_int w 0
  | Some l ->
      write_int w 1;
      write_string w l

let read_herr_context r : Herr.context =
  let op = read_string r in
  let backend = read_string r in
  let node_id =
    match read_int r with
    | 0 -> None
    | 1 -> Some (read_int r)
    | k -> raise (Corrupt (Printf.sprintf "bad node-id flag %d" k))
  in
  let layer =
    match read_int r with
    | 0 -> None
    | 1 -> Some (read_string r)
    | k -> raise (Corrupt (Printf.sprintf "bad layer flag %d" k))
  in
  { Herr.op; backend; node_id; layer }

(* Tensor geometry rides as shape + flat data; the check that they agree
   happens at parse time so a mangled-but-checksum-colliding frame (or a
   malicious client) cannot make the runtime index out of bounds. *)
let write_tensor_parts w shape data =
  write_int_array w shape;
  write_float_array w data

let read_tensor_parts r =
  let shape = read_int_array r in
  if Array.length shape > 8 then raise (Corrupt "tensor rank too large");
  let numel =
    Array.fold_left
      (fun acc d ->
        if d < 0 || d > 1 lsl 24 then raise (Corrupt "bad tensor dimension");
        acc * d)
      1 shape
  in
  let data = read_float_array r in
  if Array.length data <> numel then raise (Corrupt "tensor shape/data mismatch");
  (shape, data)

let write_request w (q : wire_request) =
  write_frame w "REQ1" (fun w ->
      write_int w wire_version;
      write_int w q.rq_id;
      write_int w q.rq_seed;
      write_int w q.rq_hedge;
      write_float w q.rq_deadline_ms;
      write_tensor_parts w q.rq_shape q.rq_image)

let read_request r =
  read_frame r "REQ1" (fun r ->
      let version = read_int r in
      if version <> wire_version then
        raise (Corrupt (Printf.sprintf "unsupported wire version %d" version));
      let rq_id = read_int r in
      let rq_seed = read_int r in
      let rq_hedge = read_int r in
      (* hedge generations are tiny by construction (one duplicate per hedge
         delay); a large value is a mangled frame, not a fleet of hedges *)
      if rq_hedge < 0 || rq_hedge > 64 then raise (Corrupt "implausible hedge generation");
      let rq_deadline_ms = read_float r in
      if not (Float.is_finite rq_deadline_ms) || rq_deadline_ms < 0.0 then
        raise (Corrupt "implausible deadline");
      let rq_shape, rq_image = read_tensor_parts r in
      { rq_id; rq_seed; rq_hedge; rq_deadline_ms; rq_shape; rq_image })

(* CNCL: the control frame that cancels an in-flight request by its
   client-assigned id (DESIGN.md §13) — sent by a hedging front end to the
   losing shard, or by any client whose caller hung up. The answer is an
   HLTH [Health_ack]: ok = the request was found in flight and its token
   tripped; not-ok = already answered, never seen, or evicted. *)
let write_cancel w (c : wire_cancel) =
  write_frame w "CNCL" (fun w ->
      write_int w wire_version;
      write_int w c.cn_id;
      write_string w c.cn_reason)

let read_cancel r =
  read_frame r "CNCL" (fun r ->
      let version = read_int r in
      if version <> wire_version then
        raise (Corrupt (Printf.sprintf "unsupported wire version %d" version));
      let cn_id = read_int r in
      let cn_reason = read_string r in
      if String.length cn_reason > 4096 then raise (Corrupt "implausible cancel reason");
      { cn_id; cn_reason })

let write_response w (s : wire_response) =
  write_frame w "RSP1" (fun w ->
      write_int w wire_version;
      write_int w s.rs_id;
      write_int w s.rs_shard;
      write_string w s.rs_served_by;
      write_int w (if s.rs_degraded then 1 else 0);
      write_int w s.rs_attempts;
      write_float w s.rs_margin_bits;
      write_float_array w s.rs_sentinel;
      match s.rs_result with
      | Ok (shape, data) ->
          write_int w 0;
          write_tensor_parts w shape data
      | Error (e, c) ->
          write_int w 1;
          write_herr_error w e;
          write_herr_context w c)

let read_response r =
  read_frame r "RSP1" (fun r ->
      let version = read_int r in
      if version <> wire_version then
        raise (Corrupt (Printf.sprintf "unsupported wire version %d" version));
      let rs_id = read_int r in
      let rs_shard = read_int r in
      let rs_served_by = read_string r in
      let rs_degraded =
        match read_int r with
        | 0 -> false
        | 1 -> true
        | k -> raise (Corrupt (Printf.sprintf "bad degraded flag %d" k))
      in
      let rs_attempts = read_int r in
      let rs_margin_bits = read_float r in
      let rs_sentinel = read_float_array r in
      (* NaN is the legitimate "unverified" marker, but infinities are not a
         value [Integrity.margin_bits] can produce (it clamps to 60) *)
      if Float.abs rs_margin_bits = Float.infinity then
        raise (Corrupt "implausible sentinel margin");
      let rs_result =
        match read_int r with
        | 0 -> Ok (read_tensor_parts r)
        | 1 ->
            let e = read_herr_error r in
            let c = read_herr_context r in
            Error (e, c)
        | k -> raise (Corrupt (Printf.sprintf "bad result flag %d" k))
      in
      { rs_id; rs_shard; rs_served_by; rs_degraded; rs_attempts; rs_margin_bits; rs_sentinel;
        rs_result })

let write_health w (h : wire_health) =
  write_frame w "HLTH" (fun w ->
      write_int w wire_version;
      match h with
      | Health_ping -> write_int w 0
      | Health_kill shard ->
          write_int w 1;
          write_int w shard
      | Health_report { hr_uptime_s; hr_shards } ->
          write_int w 2;
          write_float w hr_uptime_s;
          write_int w (List.length hr_shards);
          List.iter
            (fun s ->
              write_int w s.hs_shard;
              write_int w s.hs_pid;
              write_int w (if s.hs_up then 1 else 0);
              write_int w s.hs_restarts;
              write_string w s.hs_last_error)
            hr_shards
      | Health_ack { ha_ok; ha_detail } ->
          write_int w 3;
          write_int w (if ha_ok then 1 else 0);
          write_string w ha_detail
      | Health_selftest -> write_int w 4)

let read_health r =
  read_frame r "HLTH" (fun r ->
      let version = read_int r in
      if version <> wire_version then
        raise (Corrupt (Printf.sprintf "unsupported wire version %d" version));
      match read_int r with
      | 0 -> Health_ping
      | 1 -> Health_kill (read_int r)
      | 2 ->
          let hr_uptime_s = read_float r in
          let count = read_int r in
          if count < 0 || count > 4096 then raise (Corrupt "bad shard count");
          let hr_shards =
            List.init count (fun _ ->
                let hs_shard = read_int r in
                let hs_pid = read_int r in
                let hs_up =
                  match read_int r with
                  | 0 -> false
                  | 1 -> true
                  | k -> raise (Corrupt (Printf.sprintf "bad up flag %d" k))
                in
                let hs_restarts = read_int r in
                let hs_last_error = read_string r in
                { hs_shard; hs_pid; hs_up; hs_restarts; hs_last_error })
          in
          Health_report { hr_uptime_s; hr_shards }
      | 3 ->
          let ha_ok =
            match read_int r with
            | 0 -> false
            | 1 -> true
            | k -> raise (Corrupt (Printf.sprintf "bad ack flag %d" k))
          in
          Health_ack { ha_ok; ha_detail = read_string r }
      | 4 -> Health_selftest
      | k -> raise (Corrupt (Printf.sprintf "unknown health kind %d" k)))

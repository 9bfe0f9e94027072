(* Client side of the REQ1/RSP1 protocol: connect, send, await, retry.

   Every call — a request attempt, a health frame, a cancel — is one
   [exchange]: a fresh connection, one frame out, one frame back.

   Retries follow the serving layer's own taxonomy split (Service.transient_error):
   a typed [Overloaded] or [Corrupt_frame] answer, or a transport fault, is
   retried on a fresh connection with capped exponential backoff + seeded
   jitter; any other typed error is the server's final word and is returned
   as-is. Every reconnect is deliberate — after a transport fault the old
   stream cannot be trusted, and the supervisor may have routed the address
   to a freshly restarted shard in the meantime.

   The same module carries the load generator's wire-fault injection: a
   [fault] mangles the *bytes of one attempt* (truncate, bit-flip, stall)
   so tests can assert the server answers every mangling with a typed
   rejection instead of a hang — the client then proves liveness by
   retrying clean. *)

module Serial = Chet_crypto.Serial
module Herr = Chet_herr.Herr

type fault =
  | Truncate  (** send only a prefix of the frame, then close *)
  | Bitflip of int  (** flip one bit, position seeded by the int *)
  | Stall of float  (** sleep this long mid-frame before finishing the send *)

type config = {
  cl_addr : Wire.addr;
  cl_max_frame : int;
  cl_io_deadline_s : float;  (** per-attempt transport budget (connect+send+recv) *)
  cl_retries : int;  (** attempts beyond the first *)
  cl_backoff_base_ms : float;
  cl_backoff_cap_ms : float;
  cl_seed : int;  (** jitter determinism *)
}

let default_config addr =
  {
    cl_addr = addr;
    cl_max_frame = Wire.default_max_frame;
    cl_io_deadline_s = 30.0;
    cl_retries = 3;
    cl_backoff_base_ms = 5.0;
    cl_backoff_cap_ms = 200.0;
    cl_seed = 0;
  }

let transport_error reason =
  (Herr.Corrupt_frame { frame = "RSP1"; reason }, Herr.context ~backend:"net" "transport")

(* Same LCG the serve tests use; good enough for jitter and flip positions. *)
let lcg state = ((state * 1103515245) + 12345) land 0x3FFFFFFF

(* Send one attempt's frame, mangled by [fault] when one is given. *)
let send_mangled ~seed fault fd payload ~deadline =
  let n = String.length payload in
  let raw bytes = Wire.write_all fd (Bytes.of_string bytes) ~deadline in
  let prefix = Bytes.to_string (Wire.encode_prefix n) in
  match fault with
  | None -> Wire.send_frame fd payload ~deadline
  | Some Truncate ->
      (* honest length prefix, dishonest body: the server must detect the
         EOF mid-frame, not wait forever *)
      Result.map
        (fun () -> try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
        (raw (prefix ^ String.sub payload 0 (max 1 (n / 2))))
  | Some (Bitflip salt) ->
      let pos = lcg (seed + salt) mod max 1 n in
      let bit = lcg (seed + salt + 1) mod 8 in
      let b = Bytes.of_string payload in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      Wire.send_frame fd (Bytes.to_string b) ~deadline
  | Some (Stall delay) ->
      let half = max 1 (n / 2) in
      Result.bind (raw (prefix ^ String.sub payload 0 half)) (fun () ->
          Thread.delay delay;
          raw (String.sub payload half (n - half)))

(* [read] parses the one reply frame; an error names the transport fault or
   the parse failure. *)
let exchange ?(max_frame = Wire.default_max_frame) ?(send = Wire.send_frame) ~deadline_s addr
    payload read : (_, string) result =
  let deadline = Wire.now () +. deadline_s in
  match Wire.connect ~deadline addr with
  | Error f -> Error (Wire.fault_name f)
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> Wire.close_noerr fd)
        (fun () ->
          match send fd payload ~deadline with
          | Error f -> Error (Wire.fault_name f)
          | Ok () -> (
              match Wire.recv_frame ~max_frame fd ~deadline with
              | Error f -> Error (Wire.fault_name f)
              | Ok reply -> (
                  try Ok (read (Serial.reader reply)) with Serial.Corrupt reason -> Error reason)))

let attempt cfg ?fault payload : (Serial.wire_response, Herr.error * Herr.context) result =
  exchange ~max_frame:cfg.cl_max_frame ~send:(send_mangled ~seed:cfg.cl_seed fault)
    ~deadline_s:cfg.cl_io_deadline_s cfg.cl_addr payload Serial.read_response
  |> Result.map_error transport_error

let retryable = function
  | Herr.Overloaded _ | Herr.Corrupt_frame _ | Herr.Deadline_exceeded _ -> true
  (* a sentinel mismatch is deterministic on a corrupting shard but the
     front door routes round-robin, so the retry lands elsewhere — exactly
     the client-side failover DESIGN.md §16 prescribes *)
  | Herr.Integrity_violation _ -> true
  | _ -> false

type result_meta = {
  rm_response : (Serial.wire_response, Herr.error * Herr.context) result;
  rm_attempts : int;  (** wire attempts, including the final one *)
}

(* [request cfg req] retries transient failures; [fault] mangles only the
   first attempt, so a faulted request that eventually succeeds proves the
   recovery path end to end. *)
let request ?fault cfg (req : Serial.wire_request) : result_meta =
  let payload = Wire.serialize Serial.write_request req in
  let rec go n jitter_state =
    let this_fault = if n = 0 then fault else None in
    let res = attempt cfg ?fault:this_fault payload in
    let failed_transiently =
      match res with
      | Ok { Serial.rs_result = Error (err, _); _ } | Error (err, _) -> retryable err
      | Ok _ -> false
    in
    if (not failed_transiently) || n >= cfg.cl_retries then { rm_response = res; rm_attempts = n + 1 }
    else begin
      let backoff =
        Float.min cfg.cl_backoff_cap_ms (cfg.cl_backoff_base_ms *. (2.0 ** float_of_int n))
      in
      let jitter_state = lcg jitter_state in
      let jitter = float_of_int (jitter_state mod 1024) /. 1024.0 in
      Thread.delay ((backoff *. (0.5 +. (0.5 *. jitter))) /. 1000.0);
      go (n + 1) jitter_state
    end
  in
  go 0 (lcg (cfg.cl_seed + req.Serial.rq_id))

let health ?(deadline_s = 5.0) addr (msg : Serial.wire_health) =
  exchange ~deadline_s addr (Wire.serialize Serial.write_health msg) Serial.read_health

let ping ?deadline_s addr = health ?deadline_s addr Serial.Health_ping

(* Send a CNCL control frame: trip the cancel token of the in-flight request
   carrying [id] on the peer. [Ok found] says whether the peer had it in
   flight — [Ok false] is the common benign race (the request already
   finished, or never reached that shard). Never retried: cancellation is
   advisory, and a lost cancel costs at most the work it tried to save. *)
let cancel ?(deadline_s = 5.0) addr ~id ~reason =
  exchange ~deadline_s addr
    (Wire.serialize Serial.write_cancel { Serial.cn_id = id; cn_reason = reason })
    (fun r ->
      match Serial.read_health r with
      | Serial.Health_ack { ha_ok; _ } -> ha_ok
      | _ -> raise (Serial.Corrupt "unexpected CNCL acknowledgement"))

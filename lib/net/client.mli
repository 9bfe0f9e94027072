(** Client side of the REQ1/RSP1 protocol: connect, send, await, retry.

    Every call below — each attempt of {!request}, {!health}, {!ping} and
    {!cancel} — is one exchange: a fresh connection, one frame out, one
    frame back, then close.

    Retries follow the serving layer's taxonomy split: a typed [Overloaded],
    [Corrupt_frame], [Deadline_exceeded] or [Integrity_violation] answer, or
    a transport fault, is retried on a fresh connection with capped
    exponential backoff and seeded jitter; any other typed error is the
    server's final word. An [Integrity_violation] retry is the client-side
    failover of DESIGN.md §16 — the front door routes round-robin, so the
    retry lands on a different shard than the corrupting one.

    The same module carries the load generator's wire-fault injection: a
    {!fault} mangles the bytes of one attempt so tests can assert the server
    answers every mangling with a typed rejection instead of a hang. *)

(** Deliberate wire damage, applied to one attempt's bytes. *)
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

val default_config : Wire.addr -> config

val retryable : Chet_herr.Herr.error -> bool
(** The transient-or-reroutable subset of the error taxonomy — what
    {!request} retries. *)

type result_meta = {
  rm_response :
    (Chet_crypto.Serial.wire_response, Chet_herr.Herr.error * Chet_herr.Herr.context) result;
  rm_attempts : int;  (** wire attempts, including the final one *)
}

val request :
  ?fault:fault -> config -> Chet_crypto.Serial.wire_request -> result_meta
(** Send one REQ1, retrying {!retryable} failures on fresh connections.
    [fault] mangles only the first attempt, so a faulted request that
    eventually succeeds proves the recovery path end to end. *)

val health :
  ?deadline_s:float ->
  Wire.addr ->
  Chet_crypto.Serial.wire_health ->
  (Chet_crypto.Serial.wire_health, string) result
(** One HLTH round trip (ping / report / kill / selftest); never retried. *)

val ping :
  ?deadline_s:float -> Wire.addr -> (Chet_crypto.Serial.wire_health, string) result

val cancel :
  ?deadline_s:float -> Wire.addr -> id:int -> reason:string -> (bool, string) result
(** Send a CNCL control frame tripping the cancel token of in-flight request
    [id] on the peer. [Ok found] says whether the peer had it in flight —
    [Ok false] is the common benign race. Never retried: cancellation is
    advisory, and a lost cancel costs at most the work it tried to save. *)

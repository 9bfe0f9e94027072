(** Binary serialisation for the client/server protocol of Figure 3: the
    client ships an encrypted image and public evaluation keys to the server
    and receives an encrypted prediction back.

    The format is a simple length-prefixed little-endian encoding with a
    magic tag per payload kind — enough to make the loopback protocol real
    (and testable), not a standardised wire format. *)

module Bigint = Chet_bigint.Bigint

type writer
type reader

exception Corrupt of string

val writer : unit -> writer
val contents : writer -> string
val reader : string -> reader
val reader_eof : reader -> bool

(** {1 Primitives} *)

val write_int : writer -> int -> unit
val read_int : reader -> int
val write_float : writer -> float -> unit
val read_float : reader -> float
val write_string : writer -> string -> unit
val read_string : reader -> string
val write_int_array : writer -> int array -> unit
val read_int_array : reader -> int array
val write_float_array : writer -> float array -> unit
val read_float_array : reader -> float array
val write_bigint : writer -> Bigint.t -> unit
val read_bigint : reader -> Bigint.t
val write_bigint_array : writer -> Bigint.t array -> unit
val read_bigint_array : reader -> Bigint.t array

val write_raw_int64 : writer -> int64 -> unit
val read_raw_int64 : reader -> int64
(** Full-width 64-bit values (checksums). [write_int]/[read_int] go through
    OCaml's 63-bit [int] and would silently fold the top bit of an FNV-1a-64
    digest; manifests store their per-file hashes through these instead. *)

(** {1 Tagged payloads} *)

val write_tag : writer -> string -> unit
(** 4-character payload tag. *)

val expect_tag : reader -> string -> unit
(** @raise Corrupt if the next tag differs. *)

(** {1 Checksummed frames}

    Tagged payloads are wrapped in an integrity frame:
    [tag | body length | FNV-1a-64 of body | body]. The checksum is verified
    {e before} the body is parsed, so a flipped bit or truncated transmission
    is rejected at the frame boundary rather than surfacing as a
    structurally-valid-but-garbage ciphertext. *)

val fnv1a64 : string -> pos:int -> len:int -> int64
(** The frame checksum (FNV-1a, 64-bit) over [s.[pos .. pos+len-1]]. *)

val write_frame : writer -> string -> (writer -> unit) -> unit
(** [write_frame w tag body] serialises [body] into a fresh buffer and emits
    the framed payload. *)

val read_frame : reader -> string -> (reader -> 'a) -> 'a
(** [read_frame r tag payload] checks the tag, length and checksum, then runs
    [payload]; the parser must consume exactly the framed length.
    @raise Corrupt on any integrity violation. The message always names the
    frame tag (e.g. ["RKY3: checksum mismatch"]), so a rejection escaping a
    multi-payload protocol identifies which wire object was mangled. *)

val read_frame_prefix : reader -> string -> (reader -> 'a) -> 'a
(** Like {!read_frame}, but the parser may consume only a prefix of the
    body; the (already checksummed) remainder is skipped. For peeking at a
    frame's leading fields without parsing the whole payload. *)

(** {1 RNS-CKKS ciphertexts} *)

val write_rns_ciphertext : writer -> Rq_rns.ctx -> Rns_ckks.ciphertext -> unit
val read_rns_ciphertext : reader -> Rq_rns.ctx -> Rns_ckks.ciphertext

(** {1 RNS-CKKS public evaluation material}

    The full key bundle the client ships to the server: public key,
    relinearisation key, and the compiler-selected rotation keys, as an
    [RKY3] frame. {!read_rns_keys} raises [Corrupt] for any other tag
    (an [RKY2] bundle holds per-prime keys) and for a key whose pair count
    is not the context's digit count [⌈L/2⌉]. *)

val write_rns_keys : writer -> Rq_rns.ctx -> Rns_ckks.keys -> unit
val read_rns_keys : reader -> Rq_rns.ctx -> Rns_ckks.keys

(** {1 CKKS (power-of-two) ciphertexts} *)

val write_big_ciphertext : writer -> Big_ckks.ciphertext -> unit
val read_big_ciphertext : reader -> Big_ckks.ciphertext

(** {1 Networked serving frames (DESIGN.md §12)}

    The Figure 3 client/server protocol on sockets: [REQ1] carries one
    inference request, [RSP1] its answer (a tensor or the full typed
    {!Chet_herr.Herr.error} taxonomy, round-tripped bijectively), [HLTH]
    the supervisor's health/control channel. Same checksummed frame
    discipline as the ciphertext payloads: every mangled transmission is a
    typed [Corrupt] at the frame boundary. *)

module Herr = Chet_herr.Herr

val wire_version : int

type wire_request = {
  rq_id : int;
      (** client-assigned request id: the idempotency key the shard-side
          dedupe cache and the [CNCL] cancel frame are keyed by *)
  rq_seed : int;  (** drives the shard's per-request encryption randomness *)
  rq_hedge : int;
      (** hedge generation: [0] = the original send, [k] = the k-th
          duplicate launched after the hedge delay. Same id + different
          generation is the same logical request. *)
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
  rs_shard : int;  (** shard that answered; [-1] = the front end itself *)
  rs_served_by : string;
  rs_degraded : bool;
  rs_attempts : int;
  rs_margin_bits : float;
      (** sentinel margin of the answer's verified run; [nan] = the serving
          deployment ran without a sentinel lane (DESIGN.md §16) *)
  rs_sentinel : float array;
      (** decrypted sentinel twin lane, [[||]] when unverified — shipped so
          the client can re-verify integrity independently of the shard's
          own claim *)
  rs_result : (int array * float array, Herr.error * Herr.context) result;
}

type shard_report = {
  hs_shard : int;
  hs_pid : int;
  hs_up : bool;
  hs_restarts : int;
  hs_last_error : string;  (** [""] when healthy *)
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

val write_herr_error : writer -> Herr.error -> unit
val read_herr_error : reader -> Herr.error
val write_herr_context : writer -> Herr.context -> unit
val read_herr_context : reader -> Herr.context

val write_request : writer -> wire_request -> unit
val read_request : reader -> wire_request
(** @raise Corrupt on integrity or schema damage — including a tensor whose
    shape and data length disagree, which would otherwise become an
    out-of-bounds index deep in the runtime. *)

val write_response : writer -> wire_response -> unit
val read_response : reader -> wire_response
val write_health : writer -> wire_health -> unit
val read_health : reader -> wire_health

val write_cancel : writer -> wire_cancel -> unit

val read_cancel : reader -> wire_cancel
(** [CNCL] control frame (DESIGN.md §13): trips the cancel token of the
    in-flight request carrying this id. Answered with an HLTH [Health_ack]
    whose [ha_ok] says whether the request was found in flight. *)

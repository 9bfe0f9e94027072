(** The frame endpoint every listener shares (DESIGN.md §12): the shard
    server and the supervisor's front door are each one endpoint plus their
    handlers.

    The endpoint owns the transport. It listens and runs a poll-then-accept
    loop. It serves each connection on its own thread and dispatches
    REQ1/CNCL/HLTH frames by tag. It tracks open connections so that
    {!stop} can shut them. Its behaviour is the same for every listener:
    - a connection may sit quiet between frames for [idle_timeout_s]; once
      a frame's first byte arrives, the whole frame must land within
      [read_deadline_s];
    - a transport fault (a stalled or truncated frame, an oversized length
      prefix) gets a best-effort typed goodbye, then the connection closes,
      because the stream has lost its frame boundary: [Deadline_exceeded]
      for a stall, [Corrupt_frame] otherwise;
    - an unparseable frame or an unknown tag gets a typed [Corrupt_frame]
      RSP1, and the connection keeps serving: the outer length prefix kept
      the stream in sync. *)

type limits = {
  max_frame : int;
  read_deadline_s : float;  (** per-frame receive budget *)
  idle_timeout_s : float;  (** quiet time allowed between frames *)
  write_deadline_s : float;  (** per-reply send budget *)
}

val default_limits : limits
(** 16 MiB frames, 30 s per frame, 120 s idle, 10 s per reply. *)

val error_response :
  shard:int ->
  backend:string ->
  id:int ->
  Chet_herr.Herr.error ->
  string ->
  Chet_crypto.Serial.wire_response
(** A typed-error RSP1 for request [id]; the last argument names the
    operation in the error context. *)

(** What a listener does with each parsed frame. *)
type handlers = {
  on_request : Chet_crypto.Serial.wire_request -> string;
      (** the RSP1 frame answering a REQ1 *)
  on_cancel : Chet_crypto.Serial.wire_cancel -> bool;
      (** trip the request's cancel token; [true] when it was in flight *)
  on_health : Chet_crypto.Serial.wire_health -> Chet_crypto.Serial.wire_health;
  on_reject : id:int -> Chet_herr.Herr.error -> string -> Chet_crypto.Serial.wire_response;
      (** the typed rejection sent for an unparseable frame, an unknown tag
          or a transport fault *)
}

type t

val listen : limits -> Wire.addr -> t
(** Bind and listen; nothing is accepted before {!serve}. *)

val serve : t -> handlers -> unit
(** Start the accept thread. *)

val accepted : t -> int
(** Connections accepted so far. *)

val stop : t -> unit
(** Stop accepting, close the listen socket, join the accept thread and
    shut every open connection. A second call does nothing. *)

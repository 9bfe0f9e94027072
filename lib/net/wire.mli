(** Socket transport for the networked serving layer (DESIGN.md §12).

    The unit of transmission is one Serial frame (REQ1/RSP1/HLTH — already
    tagged, length-carrying and FNV-1a checksummed) wrapped in a 4-byte
    little-endian outer length prefix. The outer prefix keeps the {e stream}
    synchronised: a frame whose body fails its checksum is still fully
    consumed, so the connection can answer with a typed error and keep
    serving. Only a transport-level fault — peer gone, a read that stalls
    past its deadline, a declared length over the cap — forces the
    connection closed.

    Reads and writes are deadline-bounded with [Unix.select]; sockets stay
    blocking (plain thread-per-connection servers, no event loop). *)

type addr = Unix_sock of string | Tcp of string * int

val addr_to_string : addr -> string
(** [unix:PATH] or [tcp:HOST:PORT] — inverse of {!addr_of_string}. *)

val addr_of_string : string -> addr
(** Parse [unix:PATH] or [tcp:HOST:PORT].
    @raise Invalid_argument on anything else. *)

val sockaddr_of : addr -> Unix.sockaddr
(** Resolve to a [Unix.sockaddr]; TCP hostnames go through [gethostbyname].
    @raise Invalid_argument on an unknown host. *)

val domain_of : addr -> Unix.socket_domain

val default_max_frame : int
(** 16 MiB: a micro-model REQ1 is a few KiB; anything larger is a corrupt or
    hostile length prefix, not a request. *)

(** Transport faults. Typed so callers can tell benign quiet ({!Idle}) and
    clean hang-up ({!Closed}) from stream-desynchronising damage. *)
type fault =
  | Closed  (** peer closed (clean EOF or reset) *)
  | Stalled  (** deadline elapsed mid-read or mid-write *)
  | Idle
      (** no frame {e started} before the idle deadline: the connection is
          quiet, not broken — distinct from {!Stalled}, which means a frame
          died mid-transmission *)
  | Oversized of int  (** declared frame length beyond the cap *)
  | Io of string  (** any other transport error, by name *)

val fault_name : fault -> string

val listen : ?backlog:int -> addr -> Unix.file_descr
(** Bind and listen (unlinking a stale unix socket path first). Forces
    SIGPIPE to be ignored for the process — see the implementation note. *)

val connect : deadline:float -> addr -> (Unix.file_descr, fault) result
(** Connect, giving up with {!Stalled} at [deadline] (absolute, {!now}'s
    clock): a peer that drops SYNs, or a unix listener whose backlog is
    full, cannot hold the caller past it. The socket comes back blocking. *)

val close_noerr : Unix.file_descr -> unit

val now : unit -> float
(** Wall clock ([Unix.gettimeofday]); all deadlines below are absolute
    values of this clock. *)

val read_exact : Unix.file_descr -> bytes -> deadline:float -> (unit, fault) result
val write_all : Unix.file_descr -> bytes -> deadline:float -> (unit, fault) result

val encode_prefix : int -> bytes
(** The 4-byte little-endian outer length prefix — exposed so the fault
    injector can send an honest prefix over a dishonest body. *)

val send_frame : Unix.file_descr -> string -> deadline:float -> (unit, fault) result
(** Write the 4-byte length prefix and the payload. *)

val recv_frame :
  ?max_frame:int -> Unix.file_descr -> deadline:float -> (string, fault) result
(** Read one length-prefixed frame. EOF after a partial body is
    [Error (Io "truncated frame")], not {!Closed}. *)

val recv_frame_idle :
  ?max_frame:int ->
  Unix.file_descr ->
  idle_deadline:float ->
  frame_budget_s:float ->
  (string, fault) result
(** Receive on a connection that may legitimately sit quiet between
    requests: the wait for the frame's {e first byte} is bounded by
    [idle_deadline] (expiry is the benign {!Idle}); once transmission has
    started the whole frame must land within [frame_budget_s] seconds. *)

val frame_tag : string -> string
(** The leading 4-character Serial tag of a received frame (["REQ1"],
    ["RSP1"], ["HLTH"], …), or [""] if the payload is shorter than that. *)

val serialize : (Chet_crypto.Serial.writer -> 'a -> unit) -> 'a -> string
(** The payload of one frame: [serialize Serial.write_health h]. *)

(* Socket transport for the networked serving layer (DESIGN.md §12).

   The unit of transmission is one Serial frame (REQ1/RSP1/HLTH — already
   tagged, length-carrying and FNV-1a checksummed) wrapped in a 4-byte
   little-endian outer length prefix. The outer prefix is what keeps the
   *stream* synchronised: a frame whose body fails its checksum is still
   fully consumed, so the connection can answer with a typed error and keep
   serving instead of tearing down. Only a transport-level fault — peer gone,
   a read that stalls past its deadline, a declared length over the cap —
   forces the connection closed, because after those the next byte boundary
   is unknowable.

   Reads and writes are deadline-bounded with [Unix.select]; sockets stay
   blocking (plain [Thread]-per-connection servers, no event loop). *)

type addr = Unix_sock of string | Tcp of string * int

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let addr_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if path = "" then invalid_arg "Wire.addr_of_string: empty unix path";
      Unix_sock path
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | Some j -> (
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 && host <> "" -> Tcp (host, p)
          | _ -> invalid_arg ("Wire.addr_of_string: bad tcp port in " ^ s))
      | None -> invalid_arg ("Wire.addr_of_string: tcp needs host:port in " ^ s))
  | _ -> invalid_arg ("Wire.addr_of_string: expected unix:PATH or tcp:HOST:PORT, got " ^ s)

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> invalid_arg ("Wire: unknown host " ^ host))
      in
      Unix.ADDR_INET (ip, port)

let domain_of = function Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET

(* 16 MiB default cap: a micro-model REQ1 is a few KiB; anything larger than
   this is a corrupt or hostile length prefix, not a request. *)
let default_max_frame = 16 * 1024 * 1024

type fault =
  | Closed  (** peer closed (clean EOF or reset) *)
  | Stalled  (** deadline elapsed mid-read or mid-write *)
  | Idle
      (** no frame *started* before the idle deadline: the connection is
          quiet, not broken — distinct from {!Stalled}, which means a frame
          died mid-transmission *)
  | Oversized of int  (** declared frame length beyond the cap *)
  | Io of string  (** any other transport error, by name *)

let fault_name = function
  | Closed -> "connection closed"
  | Stalled -> "deadline elapsed on socket"
  | Idle -> "connection idle past timeout"
  | Oversized n -> Printf.sprintf "frame length %d over cap" n
  | Io msg -> msg

(* A write to a peer-closed socket must surface as the typed [Closed] fault
   ([write_all] maps EPIPE), not kill the process: hedging and cancellation
   make benign peer hang-ups routine — a cancelled leg's client may close
   while the shard is still answering. Forced once, on first socket use. *)
let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

let listen ?(backlog = 64) addr =
  Lazy.force ignore_sigpipe;
  (match addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (try
     (match addr with Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true | Unix_sock _ -> ());
     Unix.bind fd (sockaddr_of addr);
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let now () = Unix.gettimeofday ()

(* Wait until [fd] is ready for [dir] or [deadline] passes. *)
let wait_ready fd dir ~deadline =
  let rec go () =
    let remaining = deadline -. now () in
    if remaining <= 0.0 then false
    else
      let r, w = match dir with `Read -> ([ fd ], []) | `Write -> ([], [ fd ]) in
      match Unix.select r w [] remaining with
      | [], [], [] -> false
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Connect without blocking past [deadline]: over TCP the connect runs
   non-blocking and completes when the socket turns writable (SO_ERROR
   says how); a unix socket whose listener's backlog is full refuses at
   once with EAGAIN, so it is retried until the deadline. The socket is
   handed back in blocking mode. *)
let connect ~deadline addr : (Unix.file_descr, fault) result =
  Lazy.force ignore_sigpipe;
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  let rec go sa =
    match Unix.connect fd sa with
    | () -> Ok ()
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EINTR), _, _) -> (
        if not (wait_ready fd `Write ~deadline) then Error Stalled
        else
          match Unix.getsockopt_error fd with
          | None -> Ok ()
          | Some err -> Error (Io (Unix.error_message err)))
    | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
        if now () >= deadline then Error Stalled
        else begin
          Thread.delay 0.005;
          go sa
        end
  in
  match
    Unix.set_nonblock fd;
    go (sockaddr_of addr)
  with
  | Ok () ->
      Unix.clear_nonblock fd;
      Ok fd
  | Error f ->
      close_noerr fd;
      Error f
  | exception Unix.Unix_error (err, _, _) ->
      close_noerr fd;
      Error (Io (Unix.error_message err))
  | exception e ->
      close_noerr fd;
      raise e

let read_exact fd buf ~deadline : (unit, fault) result =
  let len = Bytes.length buf in
  let rec go off =
    if off >= len then Ok ()
    else if not (wait_ready fd `Read ~deadline) then Error Stalled
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> Error Closed
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Error Closed
      | exception Unix.Unix_error (err, _, _) -> Error (Io (Unix.error_message err))
  in
  go 0

let write_all fd buf ~deadline : (unit, fault) result =
  let len = Bytes.length buf in
  let rec go off =
    if off >= len then Ok ()
    else if not (wait_ready fd `Write ~deadline) then Error Stalled
    else
      match Unix.write fd buf off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Error Closed
      | exception Unix.Unix_error (err, _, _) -> Error (Io (Unix.error_message err))
  in
  go 0

let encode_prefix n =
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 (n land 0xff);
  Bytes.set_uint8 hdr 1 ((n lsr 8) land 0xff);
  Bytes.set_uint8 hdr 2 ((n lsr 16) land 0xff);
  Bytes.set_uint8 hdr 3 ((n lsr 24) land 0xff);
  hdr

let decode_prefix hdr =
  Bytes.get_uint8 hdr 0
  lor (Bytes.get_uint8 hdr 1 lsl 8)
  lor (Bytes.get_uint8 hdr 2 lsl 16)
  lor (Bytes.get_uint8 hdr 3 lsl 24)

let send_frame fd payload ~deadline : (unit, fault) result =
  let n = String.length payload in
  let msg = Bytes.create (4 + n) in
  Bytes.blit (encode_prefix n) 0 msg 0 4;
  Bytes.blit_string payload 0 msg 4 n;
  write_all fd msg ~deadline

let recv_frame ?(max_frame = default_max_frame) fd ~deadline : (string, fault) result =
  let hdr = Bytes.create 4 in
  match read_exact fd hdr ~deadline with
  | Error f -> Error f
  | Ok () ->
      let n = decode_prefix hdr in
      if n < 0 || n > max_frame then Error (Oversized n)
      else
        let body = Bytes.create n in
        (match read_exact fd body ~deadline with
        | Error Closed ->
            (* EOF after a partial frame is a truncation, not a clean close *)
            Error (Io "truncated frame")
        | Error f -> Error f
        | Ok () -> Ok (Bytes.unsafe_to_string body))

(* Receive one frame on a connection that may legitimately sit quiet between
   requests: the wait for the frame's *first byte* is bounded by
   [idle_deadline] (absolute; expiry is the benign [Idle], not [Stalled]),
   and once transmission has started the whole frame must land within
   [frame_budget_s] seconds. Separating the two clocks keeps "client is
   thinking" (tolerated for the idle timeout) distinct from "client started
   a frame and stalled" (a transport fault after which the stream boundary
   is unknowable). *)
let recv_frame_idle ?max_frame fd ~idle_deadline ~frame_budget_s : (string, fault) result =
  if not (wait_ready fd `Read ~deadline:idle_deadline) then Error Idle
  else recv_frame ?max_frame fd ~deadline:(now () +. frame_budget_s)

(* Peek the Serial tag of a received frame without parsing it — the frame
   layout leads with its 4-character tag. *)
let frame_tag payload = if String.length payload >= 4 then String.sub payload 0 4 else ""

let serialize write v =
  let w = Chet_crypto.Serial.writer () in
  write w v;
  Chet_crypto.Serial.contents w

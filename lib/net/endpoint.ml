(* The frame endpoint every listener shares (DESIGN.md §12); the interface
   states its transport behaviour.

   Thread-per-connection over blocking sockets: the handlers do the work
   (the shard's domain pool, the supervisor's forwarding legs), connection
   threads only shuttle frames, so plain threads, which interleave on one
   domain, are the right tool. *)

module Serial = Chet_crypto.Serial
module Herr = Chet_herr.Herr

type limits = {
  max_frame : int;
  read_deadline_s : float;
  idle_timeout_s : float;
      (* distinct from [read_deadline_s]: conflating the two forces the
         frame budget up to whatever client think-time must be tolerated *)
  write_deadline_s : float;
}

let default_limits =
  {
    max_frame = Wire.default_max_frame;
    read_deadline_s = 30.0;
    idle_timeout_s = 120.0;
    write_deadline_s = 10.0;
  }

let error_response ~shard ~backend ~id err op =
  {
    Serial.rs_id = id;
    rs_shard = shard;
    rs_served_by = "";
    rs_degraded = false;
    rs_attempts = 0;
    rs_margin_bits = Float.nan;
    rs_sentinel = [||];
    rs_result = Error (err, Herr.context ~backend op);
  }

type handlers = {
  on_request : Serial.wire_request -> string;
  on_cancel : Serial.wire_cancel -> bool;
  on_health : Serial.wire_health -> Serial.wire_health;
  on_reject : id:int -> Herr.error -> string -> Serial.wire_response;
}

type t = {
  limits : limits;
  listen_fd : Unix.file_descr;
  stop_flag : bool Atomic.t;
  accepted : int Atomic.t;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_mutex : Mutex.t;
  mutable accept_thread : Thread.t option;
}

let listen limits addr =
  {
    limits;
    listen_fd = Wire.listen addr;
    stop_flag = Atomic.make false;
    accepted = Atomic.make 0;
    conns = Hashtbl.create 16;
    conns_mutex = Mutex.create ();
    accept_thread = None;
  }

let accepted t = Atomic.get t.accepted

let reject_frame h err = Wire.serialize Serial.write_response (h.on_reject ~id:(-1) err "recv")

(* One received frame -> the one frame answering it. Only the parse is
   guarded: an exception from a handler is the handler's to answer. *)
let answer h payload =
  let parse tag read k =
    match read (Serial.reader payload) with
    | v -> k v
    | exception (Serial.Corrupt reason | Invalid_argument reason) ->
        reject_frame h (Herr.Corrupt_frame { frame = tag; reason })
  in
  match Wire.frame_tag payload with
  | "REQ1" -> parse "REQ1" Serial.read_request h.on_request
  | "CNCL" ->
      parse "CNCL" Serial.read_cancel (fun cn ->
          let found = h.on_cancel cn in
          Wire.serialize Serial.write_health
            (Serial.Health_ack
               { ha_ok = found; ha_detail = (if found then "cancelled" else "not in flight") }))
  | "HLTH" ->
      parse "HLTH" Serial.read_health (fun m -> Wire.serialize Serial.write_health (h.on_health m))
  | tag ->
      reject_frame h
        (Herr.Corrupt_frame { frame = (if tag = "" then "????" else tag); reason = "unknown tag" })

let conn_loop t h fd =
  let l = t.limits in
  let send frame = Wire.send_frame fd frame ~deadline:(Wire.now () +. l.write_deadline_s) in
  let rec loop () =
    if not (Atomic.get t.stop_flag) then
      match
        Wire.recv_frame_idle ~max_frame:l.max_frame fd
          ~idle_deadline:(Wire.now () +. l.idle_timeout_s)
          ~frame_budget_s:l.read_deadline_s
      with
      (* a quiet connection hanging up — or just quiet past the idle
         timeout — is normal client behaviour, not a protocol fault *)
      | Error (Wire.Closed | Wire.Idle) -> ()
      | Error fault ->
          (* best-effort typed goodbye; the stream is no longer in sync *)
          let err =
            match fault with
            | Wire.Stalled ->
                let ms = l.read_deadline_s *. 1000.0 in
                Herr.Deadline_exceeded { budget_ms = ms; elapsed_ms = ms }
            | fault -> Herr.Corrupt_frame { frame = "????"; reason = Wire.fault_name fault }
          in
          ignore (send (reject_frame h err))
      | Ok payload -> ( match send (answer h payload) with Ok () -> loop () | Error _ -> ())
  in
  (try loop () with _ -> ());
  Mutex.protect t.conns_mutex (fun () -> Hashtbl.remove t.conns fd);
  Wire.close_noerr fd

(* Poll-then-accept: a thread parked inside [Unix.accept] is NOT woken when
   another thread closes the listen fd (the close just orphans it), so
   blocking straight on accept would leave [stop] joining forever. The
   select bounds how long the loop can go without observing [stop_flag]. *)
let rec accept_loop t h =
  if not (Atomic.get t.stop_flag) then
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> accept_loop t h
    | _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ ->
            Atomic.incr t.accepted;
            Mutex.protect t.conns_mutex (fun () -> Hashtbl.replace t.conns fd ());
            ignore (Thread.create (conn_loop t h) fd);
            accept_loop t h
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t h
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t h
    (* listen socket closed by [stop] (or fatally broken): exit *)
    | exception Unix.Unix_error _ -> ()

let serve t h = t.accept_thread <- Some (Thread.create (accept_loop t) h)

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    Wire.close_noerr t.listen_fd;
    Option.iter Thread.join t.accept_thread;
    (* connection threads wake on their shut sockets and exit on their own *)
    Mutex.protect t.conns_mutex (fun () ->
        Hashtbl.iter
          (fun fd () -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          t.conns;
        Hashtbl.reset t.conns)
  end

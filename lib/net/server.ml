(* Shard server: the socket front of one Chet_serve.Service (DESIGN.md §12).

   The transport — accept loop, connection threads, tag dispatch, typed
   goodbyes on transport faults — is the shared Endpoint; this module
   supplies its handlers. A REQ1 is submitted to the service and awaited;
   the service's domain pool does the homomorphic work. A CNCL frame trips
   the cancel token of an in-flight request by id, and duplicate REQ1 ids
   are answered bit-identically from a bounded dedupe cache
   (DESIGN.md §13), so client retries and supervisor hedges are idempotent.

   Over [max_inflight] admitted-but-unanswered requests, or a service
   draining or shedding, the answer is a typed [Overloaded] RSP1, not a
   dropped connection. *)

module Serial = Chet_crypto.Serial
module Herr = Chet_herr.Herr
module Service = Chet_serve.Service
module Tensor = Chet_tensor.Tensor

type config = {
  srv_addr : Wire.addr;
  srv_shard : int;  (** stamped into every RSP1 this server answers *)
  srv_max_frame : int;
  srv_max_inflight : int;  (** concurrent requests admitted past the socket *)
  srv_read_deadline_s : float;
      (** per-frame receive budget: once a frame's first byte has arrived,
          the rest must land within this — a violation is a transport fault
          (the stream boundary is lost) answered with a typed goodbye *)
  srv_idle_timeout_s : float;
      (** how long a connection may sit quiet *between* frames before the
          server closes it — a benign hang-up, not a fault. Distinct from
          [srv_read_deadline_s]: conflating the two forces the frame budget
          up to whatever client think-time must be tolerated *)
  srv_write_deadline_s : float;
  srv_dedup_cap : int;
      (** entries in the request-id dedupe cache; [0] disables caching *)
}

let default_config ?(shard = 0) addr =
  let l = Endpoint.default_limits in
  {
    srv_addr = addr;
    srv_shard = shard;
    srv_max_frame = l.Endpoint.max_frame;
    srv_max_inflight = 64;
    srv_read_deadline_s = l.Endpoint.read_deadline_s;
    srv_idle_timeout_s = l.Endpoint.idle_timeout_s;
    srv_write_deadline_s = l.Endpoint.write_deadline_s;
    srv_dedup_cap = 256;
  }

type stats = {
  srv_accepted : int;  (** connections accepted *)
  srv_served : int;  (** RSP1 answers carrying [Ok] *)
  srv_rejected : int;  (** RSP1 answers carrying a typed error *)
  srv_corrupt : int;  (** of those, [Corrupt_frame] rejections *)
  srv_dedup_hits : int;  (** REQ1s answered bit-identically from the dedupe cache *)
  srv_cancelled : int;  (** CNCL frames that found their request in flight *)
}

(* ------------------------------------------------------------------ *)
(* Request-id dedupe cache (DESIGN.md §13)                              *)
(* ------------------------------------------------------------------ *)

(* Bounded LRU keyed by the client-assigned [rq_id], holding the exact RSP1
   bytes of a *successful* answer. A retry or hedge duplicate of an
   already-served request is answered from here — bit-identical, no second
   execution. Failures are never cached (the retry deserves a fresh
   attempt), and neither is the parse-failure id [-1].

   LRU via lazy eviction: every access stamps the id and enqueues
   (id, stamp); eviction pops until it finds a node whose stamp is still
   current. Stale nodes cost O(1) each and are bounded by the number of
   accesses, not entries. *)
type dedup = {
  dd_cap : int;
  dd_mutex : Mutex.t;
  dd_entries : (int, string) Hashtbl.t;
  dd_stamps : (int, int) Hashtbl.t;
  dd_order : (int * int) Queue.t;
  mutable dd_clock : int;
}

let dedup_create cap =
  {
    dd_cap = cap;
    dd_mutex = Mutex.create ();
    dd_entries = Hashtbl.create (Stdlib.max 16 cap);
    dd_stamps = Hashtbl.create (Stdlib.max 16 cap);
    dd_order = Queue.create ();
    dd_clock = 0;
  }

let dedup_touch dd id =
  dd.dd_clock <- dd.dd_clock + 1;
  Hashtbl.replace dd.dd_stamps id dd.dd_clock;
  Queue.push (id, dd.dd_clock) dd.dd_order

let dedup_find dd id =
  if dd.dd_cap = 0 then None
  else
    Mutex.protect dd.dd_mutex (fun () ->
        match Hashtbl.find_opt dd.dd_entries id with
        | Some bytes ->
            dedup_touch dd id;
            Some bytes
        | None -> None)

let dedup_store dd id bytes =
  if dd.dd_cap > 0 && id >= 0 then
    Mutex.protect dd.dd_mutex (fun () ->
        Hashtbl.replace dd.dd_entries id bytes;
        dedup_touch dd id;
        let rec evict () =
          if Hashtbl.length dd.dd_entries > dd.dd_cap then
            match Queue.take_opt dd.dd_order with
            | None -> ()
            | Some (victim, stamp) ->
                if Hashtbl.find_opt dd.dd_stamps victim = Some stamp then begin
                  Hashtbl.remove dd.dd_entries victim;
                  Hashtbl.remove dd.dd_stamps victim
                end;
                evict ()
        in
        evict ())

type t = {
  cfg : config;
  service : Service.t;
  endpoint : Endpoint.t;
  inflight : int Atomic.t;
  served : int Atomic.t;
  rejected : int Atomic.t;
  corrupt : int Atomic.t;
  dedup_hits : int Atomic.t;
  cancel_hits : int Atomic.t;
  dedup : dedup;
  (* rq_id -> ticket of every request currently between submit and outcome:
     the lookup table a CNCL frame trips. Ids are client-assigned, so a
     client reusing an id concurrently shadows its own earlier entry — its
     own cancellation scope to lose. *)
  pending : (int, Service.ticket) Hashtbl.t;
  pending_mutex : Mutex.t;
}

let stats t =
  {
    srv_accepted = Endpoint.accepted t.endpoint;
    srv_served = Atomic.get t.served;
    srv_rejected = Atomic.get t.rejected;
    srv_corrupt = Atomic.get t.corrupt;
    srv_dedup_hits = Atomic.get t.dedup_hits;
    srv_cancelled = Atomic.get t.cancel_hits;
  }

(* The supervisor's quarantine probe: answered by the shard itself because
   only the shard can run its own sentinel lane. The probe is a
   sentinel-only inference (DESIGN.md §16): Ok margin_bits when the lane
   verifies, Error detail when it does not. A shard started without one
   answers honestly that it cannot vouch for itself — the supervisor treats
   that as non-exonerating. *)
let run_selftest = function
  | None -> Serial.Health_ack { ha_ok = false; ha_detail = "no sentinel deployment" }
  | Some probe -> (
      match probe () with
      | Ok margin ->
          Serial.Health_ack { ha_ok = true; ha_detail = Printf.sprintf "margin %.2f bits" margin }
      | Error detail -> Serial.Health_ack { ha_ok = false; ha_detail = detail }
      | exception e -> Serial.Health_ack { ha_ok = false; ha_detail = Printexc.to_string e })

let reject t ~id (err : Herr.error) op =
  Atomic.incr t.rejected;
  (match err with Herr.Corrupt_frame _ -> Atomic.incr t.corrupt | _ -> ());
  Endpoint.error_response ~shard:t.cfg.srv_shard ~backend:"net" ~id err op

let response_of_outcome t ~id (out : Service.outcome) =
  let rs_result =
    match out.Service.out_result with
    | Ok tensor ->
        Atomic.incr t.served;
        Ok (tensor.Tensor.shape, tensor.Tensor.data)
    | Error (err, ctx) ->
        Atomic.incr t.rejected;
        Error (err, ctx)
  in
  {
    Serial.rs_id = id;
    rs_shard = t.cfg.srv_shard;
    rs_served_by = out.Service.out_served_by;
    rs_degraded = out.Service.out_degraded;
    rs_attempts = out.Service.out_attempts;
    rs_margin_bits = out.Service.out_margin_bits;
    rs_sentinel = out.Service.out_sentinel;
    rs_result;
  }

(* Admission takes a slot with one fetch-and-add, so concurrent connections
   cannot all read "below the cap" before any of them counts itself; a
   rejected request gives its slot back like an answered one. *)
let handle_request t (rq : Serial.wire_request) =
  let depth = Atomic.fetch_and_add t.inflight 1 in
  Fun.protect
    ~finally:(fun () -> Atomic.decr t.inflight)
    (fun () ->
      if depth >= t.cfg.srv_max_inflight then
        reject t ~id:rq.Serial.rq_id
          (Herr.Overloaded { queue_depth = depth; high_water = t.cfg.srv_max_inflight })
          "inflight cap"
      else
        let image = Tensor.of_array rq.Serial.rq_shape rq.Serial.rq_image in
        let ticket =
          Service.submit t.service ~deadline_ms:rq.Serial.rq_deadline_ms ~seed:rq.Serial.rq_seed
            image
        in
        (* visible to CNCL for exactly the submit->outcome window *)
        Mutex.protect t.pending_mutex (fun () ->
            Hashtbl.replace t.pending rq.Serial.rq_id ticket);
        Fun.protect
          ~finally:(fun () ->
            Mutex.protect t.pending_mutex (fun () -> Hashtbl.remove t.pending rq.Serial.rq_id))
          (fun () -> response_of_outcome t ~id:rq.Serial.rq_id (Service.await t.service ticket)))

let on_request t (rq : Serial.wire_request) =
  (* idempotency: a duplicate of an already-served id — a client retry
     after a lost response, or a hedge sibling — is answered from the cache
     with the exact bytes of the first answer, so duplicates are
     bit-identically safe and execute zero work *)
  match dedup_find t.dedup rq.Serial.rq_id with
  | Some bytes ->
      Atomic.incr t.dedup_hits;
      bytes
  | None -> (
      match handle_request t rq with
      | rsp ->
          let bytes = Wire.serialize Serial.write_response rsp in
          (* only successes: a failed request must stay retryable *)
          (match rsp.Serial.rs_result with
          | Ok _ -> dedup_store t.dedup rq.Serial.rq_id bytes
          | Error _ -> ());
          bytes
      | exception e ->
          (* a bug in the serving path must still answer the wire *)
          Wire.serialize Serial.write_response
            (reject t ~id:rq.Serial.rq_id
               (Herr.Worker_crashed { worker = t.cfg.srv_shard; reason = Printexc.to_string e })
               "serve"))

let on_cancel t (cn : Serial.wire_cancel) =
  match Mutex.protect t.pending_mutex (fun () -> Hashtbl.find_opt t.pending cn.Serial.cn_id) with
  | Some ticket ->
      Service.cancel ticket ~reason:cn.Serial.cn_reason;
      Atomic.incr t.cancel_hits;
      true
  | None -> false

let start ?selftest cfg service =
  let limits =
    {
      Endpoint.max_frame = cfg.srv_max_frame;
      read_deadline_s = cfg.srv_read_deadline_s;
      idle_timeout_s = cfg.srv_idle_timeout_s;
      write_deadline_s = cfg.srv_write_deadline_s;
    }
  in
  let t =
    {
      cfg;
      service;
      endpoint = Endpoint.listen limits cfg.srv_addr;
      inflight = Atomic.make 0;
      served = Atomic.make 0;
      rejected = Atomic.make 0;
      corrupt = Atomic.make 0;
      dedup_hits = Atomic.make 0;
      cancel_hits = Atomic.make 0;
      dedup = dedup_create cfg.srv_dedup_cap;
      pending = Hashtbl.create 64;
      pending_mutex = Mutex.create ();
    }
  in
  Endpoint.serve t.endpoint
    {
      Endpoint.on_request = on_request t;
      on_cancel = on_cancel t;
      on_health =
        (function
        | Serial.Health_ping -> Serial.Health_ack { ha_ok = true; ha_detail = "shard" }
        | Serial.Health_selftest -> run_selftest selftest
        | Serial.Health_kill _ | Serial.Health_report _ | Serial.Health_ack _ ->
            Serial.Health_ack { ha_ok = false; ha_detail = "not a supervisor" });
      on_reject = reject t;
    };
  t

let stop t = Endpoint.stop t.endpoint

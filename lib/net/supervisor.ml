(* Shard supervisor: fork N workers, watch them, restart them, route around
   them (DESIGN.md §12).

   The supervisor owns no FHE state. Each worker process rebuilds its
   deployment from the durable store bundle (warm restart, DESIGN.md §11),
   which is what makes SIGKILL survivable: the supervisor's only jobs are
   (a) noticing death — waitpid for crashes, health pings for hangs —
   (b) restarting with capped exponential backoff so a crash-looping shard
   cannot monopolise the machine, and (c) keeping the front door honest
   while a shard is down: requests route to live shards through a
   per-shard circuit breaker, and when nothing is routable the client gets
   a typed [Overloaded], never a hang. With [sup_hedge_delay_s] set, a slow
   shard is raced: the request is duplicated to a second healthy shard
   after the delay, the first acceptable answer wins, and the loser is
   cancelled with a CNCL frame — shard-side request-id dedupe keeps the
   duplicate bit-identically safe (DESIGN.md §13).

   Process management is injected ([spawn] returns pid/kill/poll closures)
   so the state machine is testable in-process with fake "processes"
   (threads serving the same protocol); the real fork/exec drill runs in
   scripts/net_smoke.sh. *)

module Serial = Chet_crypto.Serial
module Herr = Chet_herr.Herr
module Breaker = Chet_serve.Breaker
module Metrics = Chet_obs.Metrics

type spawned = {
  sp_pid : int;
  sp_kill : int -> unit;  (** deliver this signal *)
  sp_poll : unit -> Unix.process_status option;  (** [None] while running *)
}

type spawn = shard:int -> addr:Wire.addr -> spawned

(* The production spawn: fork/exec this very binary as [chet shard-worker].
   [argv_for] closes over model/state-dir/tuning flags at the CLI layer. *)
let exec_spawn ~argv_for : spawn =
 fun ~shard ~addr ->
  let argv = argv_for ~shard ~addr in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
  {
    sp_pid = pid;
    sp_kill = (fun signal -> try Unix.kill pid signal with Unix.Unix_error _ -> ());
    sp_poll =
      (fun () ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> None
        | _, status -> Some status
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 127));
  }

type config = {
  sup_shards : int;
  sup_shard_addr : int -> Wire.addr;
  sup_front_addr : Wire.addr;  (** REQ1 proxy + HLTH control socket *)
  sup_backoff_base_ms : float;
  sup_backoff_cap_ms : float;
  sup_health_interval_s : float;  (** ping cadence; also the monitor tick *)
  sup_ping_deadline_s : float;
  sup_hang_pings : int;  (** consecutive failed pings before SIGKILL *)
  sup_forward_deadline_s : float;  (** transport budget per forwarded request *)
  sup_breaker_threshold : int;
  sup_breaker_cooldown_s : float;
  sup_hedge_delay_s : float;
      (** hedged requests (DESIGN.md §13): if the routed shard has not
          answered within this delay, duplicate the request to a second
          breaker-healthy shard — first acceptable answer wins, the loser is
          cancelled with a CNCL frame. [<= 0] disables hedging. *)
}

let default_config ~shards ~shard_addr ~front_addr =
  {
    sup_shards = shards;
    sup_shard_addr = shard_addr;
    sup_front_addr = front_addr;
    sup_backoff_base_ms = 100.0;
    sup_backoff_cap_ms = 5000.0;
    sup_health_interval_s = 0.25;
    sup_ping_deadline_s = 2.0;
    sup_hang_pings = 8;
    sup_forward_deadline_s = 30.0;
    sup_breaker_threshold = 3;
    sup_breaker_cooldown_s = 1.0;
    sup_hedge_delay_s = 0.0;
  }

type shard = {
  sh_id : int;
  sh_addr : Wire.addr;
  sh_breaker : Breaker.t;
  sh_restart_counter : Metrics.counter;
  mutable sh_proc : spawned option;
  mutable sh_up : bool;  (** process alive and last ping answered *)
  mutable sh_restarts : int;
  mutable sh_last_error : string;
  mutable sh_backoff_ms : float;
  mutable sh_restart_at : float;  (** no respawn before this instant *)
  mutable sh_ping_failures : int;
  mutable sh_suspect : bool;
      (** a forwarded answer from this shard failed sentinel verification;
          routing skips it until the health loop's [Health_selftest] probe
          either exonerates it or confirms the corruption and quarantines
          it (DESIGN.md §16) *)
}

type t = {
  cfg : config;
  spawn : spawn;
  shards : shard array;
  lock : Mutex.t;  (** guards every mutable shard field *)
  stop_flag : bool Atomic.t;
  started_at : float;
  rr : int Atomic.t;  (** round-robin routing cursor *)
  front : Endpoint.t;  (** the front door: REQ1 proxy + HLTH control *)
  registry : Metrics.t;
  forwarded : Metrics.counter;
  routed_errors : Metrics.counter;
  unroutable : Metrics.counter;
  hedges : Metrics.counter;
  hedge_wins : Metrics.counter;
  cancels_sent : Metrics.counter;
  integrity_failures : Metrics.counter;
  quarantines : Metrics.counter;
  mutable threads : Thread.t list;
}

let status_to_string = function
  | Unix.WEXITED 0 -> "exit 0"
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED sg -> Printf.sprintf "killed by signal %d" sg
  | Unix.WSTOPPED sg -> Printf.sprintf "stopped by signal %d" sg

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- lifecycle: spawn / death / backoff-restart ---- *)

let spawn_shard t sh ~first =
  let proc = t.spawn ~shard:sh.sh_id ~addr:sh.sh_addr in
  sh.sh_proc <- Some proc;
  sh.sh_ping_failures <- 0;
  if not first then begin
    sh.sh_restarts <- sh.sh_restarts + 1;
    Metrics.incr sh.sh_restart_counter
  end

let note_death t sh status =
  sh.sh_proc <- None;
  sh.sh_up <- false;
  (* death is the remediation: the replacement process gets a clean slate
     (a still-corrupting shard re-earns suspicion on its next bad answer) *)
  sh.sh_suspect <- false;
  sh.sh_last_error <- status_to_string status;
  sh.sh_restart_at <- Wire.now () +. (sh.sh_backoff_ms /. 1000.0);
  sh.sh_backoff_ms <- Float.min t.cfg.sup_backoff_cap_ms (sh.sh_backoff_ms *. 2.0);
  Breaker.record_failure sh.sh_breaker

(* The supervisor's own SIGKILL (quarantine, hang): reap the process and
   note its death right away, so the backoff clock starts at the kill
   rather than at the next monitor tick. SIGKILL cannot be caught, so the
   reap is prompt; if it is not, the monitor tick notes the death later. *)
let kill_now t sh =
  match sh.sh_proc with
  | None -> ()
  | Some proc ->
      proc.sp_kill Sys.sigkill;
      let deadline = Wire.now () +. 1.0 in
      let rec reap () =
        match proc.sp_poll () with
        | Some status -> note_death t sh status
        | None ->
            if Wire.now () < deadline then begin
              Thread.delay 0.005;
              reap ()
            end
      in
      reap ()

(* A forwarded answer from [sh] failed sentinel verification. The failure is
   already the request's answer elsewhere (the router moved on); here the
   shard itself goes under suspicion until the health loop's selftest probe
   decides between exoneration and quarantine. *)
let mark_suspect t sh =
  Metrics.incr t.integrity_failures;
  with_lock t (fun () ->
      if not sh.sh_suspect then begin
        sh.sh_suspect <- true;
        sh.sh_last_error <- "integrity: sentinel mismatch"
      end)

let monitor_tick t =
  Array.iter
    (fun sh ->
      with_lock t (fun () ->
          match sh.sh_proc with
          | Some proc -> (
              match proc.sp_poll () with
              | Some status -> note_death t sh status
              | None -> ())
          | None -> if Wire.now () >= sh.sh_restart_at then spawn_shard t sh ~first:false))
    t.shards

let health_tick t =
  Array.iter
    (fun sh ->
      let probe =
        with_lock t (fun () -> Option.map (fun _ -> (sh.sh_addr, sh.sh_suspect)) sh.sh_proc)
      in
      match probe with
      | None -> ()
      | Some (addr, true) -> (
          (* suspect shard: ask it to run its own sentinel lane before
             deciding. A verified lane exonerates (the mismatch was a
             one-off); a failed or unanswerable probe confirms the shard
             cannot produce trustworthy answers — quarantine it. The SIGKILL
             feeds the ordinary death/backoff/restart machinery, so a shard
             that corrupts persistently decays to the capped restart cadence
             instead of flapping. *)
          match
            Client.health ~deadline_s:t.cfg.sup_ping_deadline_s addr Serial.Health_selftest
          with
          | Ok (Serial.Health_ack { ha_ok = true; _ }) ->
              with_lock t (fun () ->
                  sh.sh_suspect <- false;
                  sh.sh_last_error <- "")
          | Ok _ | Error _ ->
              Metrics.incr t.quarantines;
              with_lock t (fun () ->
                  sh.sh_last_error <- "quarantined: selftest failed";
                  kill_now t sh))
      | Some (addr, false) -> (
          match Client.ping ~deadline_s:t.cfg.sup_ping_deadline_s addr with
          | Ok (Serial.Health_ack { ha_ok = true; _ }) ->
              with_lock t (fun () ->
                  sh.sh_up <- true;
                  sh.sh_ping_failures <- 0;
                  (* a shard that answers pings has earned its backoff back *)
                  sh.sh_backoff_ms <- t.cfg.sup_backoff_base_ms;
                  if sh.sh_last_error <> "" then sh.sh_last_error <- "")
          | Ok _ | Error _ ->
              with_lock t (fun () ->
                  sh.sh_up <- false;
                  sh.sh_ping_failures <- sh.sh_ping_failures + 1;
                  if sh.sh_ping_failures >= t.cfg.sup_hang_pings then begin
                    (* alive but unresponsive: treat as hung, make it a crash *)
                    sh.sh_last_error <-
                      Printf.sprintf "hung (%d failed pings)" sh.sh_ping_failures;
                    kill_now t sh
                  end)))
    t.shards

(* Health pings run once per [sup_health_interval_s]; between them the loop
   also wakes when a dead shard's backoff expires, so a respawn waits for
   its backoff and not for the next health tick. *)
let monitor_loop t =
  let health_due = ref neg_infinity in
  while not (Atomic.get t.stop_flag) do
    monitor_tick t;
    if Wire.now () >= !health_due then begin
      health_tick t;
      health_due := Wire.now () +. t.cfg.sup_health_interval_s
    end;
    let wake =
      with_lock t (fun () ->
          Array.fold_left
            (fun w sh -> if sh.sh_proc = None then Float.min w sh.sh_restart_at else w)
            !health_due t.shards)
    in
    Thread.delay (Float.max 0.001 (wake -. Wire.now ()))
  done

(* ---- routing ---- *)

(* Next live shard whose breaker admits, round-robin from the cursor; the
   breaker slot is held by the caller (release on transport failure).
   [exclude] skips one shard id — how a hedge finds a *different* shard. *)
let route ?(exclude = -1) t : shard option =
  let n = Array.length t.shards in
  let start = Atomic.fetch_and_add t.rr 1 in
  let rec probe i =
    if i >= n then None
    else
      let sh = t.shards.((start + i) mod n) in
      if sh.sh_id = exclude then probe (i + 1)
      else
        (* a suspect shard is unroutable: until the selftest probe clears
           it, every answer it could give is presumed corrupt *)
        let candidate = with_lock t (fun () -> sh.sh_up && not sh.sh_suspect) in
        if candidate && Breaker.allow sh.sh_breaker then Some sh else probe (i + 1)
  in
  probe 0

(* The one state where the front door answers for itself: nothing to route
   to, so the client gets a typed [Overloaded] at once, never a hang. *)
let unroutable t ~id reason =
  Metrics.incr t.unroutable;
  Endpoint.error_response ~shard:(-1) ~backend:"supervisor" ~id
    (Herr.Overloaded { queue_depth = 0; high_water = 0 })
    reason

let forward_once t sh (rq : Serial.wire_request) =
  let cl =
    {
      (Client.default_config sh.sh_addr) with
      Client.cl_io_deadline_s = t.cfg.sup_forward_deadline_s;
      cl_retries = 0;
      cl_seed = rq.Serial.rq_seed;
    }
  in
  (Client.request cl rq).Client.rm_response

let handle_sequential t (rq : Serial.wire_request) : Serial.wire_response =
  (* try each routable shard once; a shard that answers — even with a typed
     FHE error — ends the search (that is the system's answer), while a
     transport fault or shard-side shed moves on to the next shard *)
  let rec go tried =
    if tried >= Array.length t.shards then unroutable t ~id:rq.Serial.rq_id "no routable shard"
    else
      match route t with
      | None -> unroutable t ~id:rq.Serial.rq_id "no routable shard"
      | Some sh -> (
          match forward_once t sh rq with
          | Ok rsp -> (
              match rsp.Serial.rs_result with
              | Error ((Herr.Overloaded _ | Herr.Corrupt_frame _), _) ->
                  Breaker.record_failure sh.sh_breaker;
                  Metrics.incr t.routed_errors;
                  go (tried + 1)
              | Error (Herr.Integrity_violation _, _) ->
                  (* the shard produced an answer its own sentinel lane
                     rejected: NOT the system's answer. Put the shard under
                     suspicion (the health loop confirms before
                     quarantining) and fail the request over to a shard
                     whose answers still verify. *)
                  Breaker.record_failure sh.sh_breaker;
                  mark_suspect t sh;
                  Metrics.incr t.routed_errors;
                  go (tried + 1)
              | Error (Herr.Cancelled _, _) ->
                  (* breaker-neutral: a cancelled answer says nothing about
                     the shard's health, so the (possibly half-open) slot is
                     handed back without a verdict *)
                  Breaker.release sh.sh_breaker;
                  Metrics.incr t.forwarded;
                  { rsp with Serial.rs_shard = sh.sh_id }
              | Ok _ | Error _ ->
                  Breaker.record_success sh.sh_breaker;
                  Metrics.incr t.forwarded;
                  { rsp with Serial.rs_shard = sh.sh_id })
          | Error _ ->
              (* transport fault: the shard may be mid-crash; let the
                 monitor sort it out and try the next one *)
              Breaker.record_failure sh.sh_breaker;
              with_lock t (fun () -> sh.sh_up <- false);
              Metrics.incr t.routed_errors;
              go (tried + 1))
  in
  go 0

(* ---- hedged requests (DESIGN.md §13) ---- *)

(* Rendezvous between the coordinator and its forwarding legs: each leg
   posts (shard id, raw result) under the mutex; the coordinator polls.
   No timed condvar wait exists in the stdlib, so polling at 1 ms — against
   inferences measured in tens of ms — is the repo-wide idiom. *)
type hedge_cell = {
  hc_mutex : Mutex.t;
  mutable hc_results : (int * (Serial.wire_response, Herr.error * Herr.context) result) list;
}

(* One forwarding leg. The leg owns its breaker verdict (the coordinator may
   have returned long before a losing leg resolves): answered = success,
   shard-shed/corrupt or transport fault = failure, cancelled = neutral
   (that is typically the loser we ourselves cancelled). *)
let spawn_leg t sh (rq : Serial.wire_request) cell =
  ignore
    (Thread.create
       (fun () ->
         let res = forward_once t sh rq in
         (match res with
         | Ok { Serial.rs_result = Error ((Herr.Overloaded _ | Herr.Corrupt_frame _), _); _ } ->
             Breaker.record_failure sh.sh_breaker
         | Ok { Serial.rs_result = Error (Herr.Integrity_violation _, _); _ } ->
             Breaker.record_failure sh.sh_breaker;
             mark_suspect t sh
         | Ok { Serial.rs_result = Error (Herr.Cancelled _, _); _ } ->
             Breaker.release sh.sh_breaker
         | Ok _ -> Breaker.record_success sh.sh_breaker
         | Error _ ->
             Breaker.record_failure sh.sh_breaker;
             with_lock t (fun () -> sh.sh_up <- false));
         Mutex.protect cell.hc_mutex (fun () ->
             cell.hc_results <- (sh.sh_id, res) :: cell.hc_results))
       ())

(* Fire-and-forget CNCL to the losing shard: a lost cancel costs at most the
   work it tried to save, so it gets its own thread and no retries. *)
let cancel_loser t sh ~id =
  Metrics.incr t.cancels_sent;
  ignore
    (Thread.create
       (fun () ->
         ignore
           (Client.cancel ~deadline_s:t.cfg.sup_ping_deadline_s sh.sh_addr ~id
              ~reason:"superseded"))
       ())

let handle_hedged t (rq : Serial.wire_request) : Serial.wire_response =
  match route t with
  | None -> unroutable t ~id:rq.Serial.rq_id "no routable shard"
  | Some primary ->
      let cell = { hc_mutex = Mutex.create (); hc_results = [] } in
      spawn_leg t primary rq cell;
      let legs = ref [ primary ] in
      let hedge_at = Wire.now () +. t.cfg.sup_hedge_delay_s in
      (* hard stop: every leg bounds its transport at
         [sup_forward_deadline_s], so results must land by then; the slack
         covers the hedge launch offset *)
      let give_up_at =
        Wire.now () +. t.cfg.sup_hedge_delay_s +. t.cfg.sup_forward_deadline_s +. 5.0
      in
      let rec wait () =
        let results = Mutex.protect cell.hc_mutex (fun () -> cell.hc_results) in
        (* an acceptable answer: the shard actually spoke for the request —
           not a shed/corrupt failover signal, not a cancelled loser *)
        let win =
          List.find_map
            (fun (sid, res) ->
              match res with
              | Ok
                  {
                    Serial.rs_result =
                      Error
                        ( ( Herr.Overloaded _ | Herr.Corrupt_frame _ | Herr.Cancelled _
                          | Herr.Integrity_violation _ ),
                          _ );
                    _;
                  } ->
                  None
              | Ok rsp -> Some (sid, rsp)
              | Error _ -> None)
            results
        in
        match win with
        | Some (sid, rsp) ->
            Metrics.incr t.forwarded;
            if List.length !legs > 1 && sid <> primary.sh_id then Metrics.incr t.hedge_wins;
            (* first success wins: cancel every leg still in flight *)
            List.iter
              (fun sh ->
                if sh.sh_id <> sid && not (List.mem_assoc sh.sh_id results) then
                  cancel_loser t sh ~id:rq.Serial.rq_id)
              !legs;
            { rsp with Serial.rs_shard = sid }
        | None ->
            if List.length results >= List.length !legs then begin
              (* every leg resolved and none was acceptable. A cancelled
                 answer is final (the request's own token tripped); anything
                 else — shed, corrupt, transport — is a failover signal, and
                 the sequential path picks up where the race left off (safe:
                 the request was never answered, and shard-side dedupe makes
                 any re-forward idempotent). *)
              match
                List.find_map
                  (fun (sid, res) ->
                    match res with
                    | Ok ({ Serial.rs_result = Error (Herr.Cancelled _, _); _ } as rsp) ->
                        Some (sid, rsp)
                    | _ -> None)
                  results
              with
              | Some (sid, rsp) ->
                  Metrics.incr t.forwarded;
                  { rsp with Serial.rs_shard = sid }
              | None ->
                  Metrics.incr t.routed_errors;
                  handle_sequential t rq
            end
            else if Wire.now () >= give_up_at then
              unroutable t ~id:rq.Serial.rq_id "hedge legs unresponsive"
            else begin
              (if List.length !legs = 1 && List.length results = 0 && Wire.now () >= hedge_at
               then
                 (* primary is slow: launch the duplicate on a different
                    breaker-healthy shard, stamped with the next hedge
                    generation so shard logs can tell the twins apart *)
                 match route ~exclude:primary.sh_id t with
                 | Some second ->
                     Metrics.incr t.hedges;
                     legs := second :: !legs;
                     spawn_leg t second { rq with Serial.rq_hedge = rq.Serial.rq_hedge + 1 } cell
                 | None -> ());
              Thread.delay 0.001;
              wait ()
            end
      in
      wait ()

let handle_request t (rq : Serial.wire_request) : Serial.wire_response =
  if t.cfg.sup_hedge_delay_s > 0.0 && Array.length t.shards > 1 then handle_hedged t rq
  else handle_sequential t rq

(* ---- control plane ---- *)

let report t =
  let shards =
    Array.to_list
      (Array.map
         (fun sh ->
           with_lock t (fun () ->
               {
                 Serial.hs_shard = sh.sh_id;
                 hs_pid = (match sh.sh_proc with Some p -> p.sp_pid | None -> -1);
                 (* a suspect shard reports down: it is unroutable until the
                    selftest probe clears it, and callers of the report (the
                    CLI status view, await_ready) should see it that way *)
                 hs_up = sh.sh_up && not sh.sh_suspect;
                 hs_restarts = sh.sh_restarts;
                 hs_last_error = sh.sh_last_error;
               }))
         t.shards)
  in
  Serial.Health_report { hr_uptime_s = Wire.now () -. t.started_at; hr_shards = shards }

let handle_health t : Serial.wire_health -> Serial.wire_health = function
  | Serial.Health_ping -> Serial.Health_ack { ha_ok = true; ha_detail = "supervisor" }
  | Serial.Health_report _ -> report t
  | Serial.Health_kill id -> (
      if id < 0 || id >= Array.length t.shards then
        Serial.Health_ack { ha_ok = false; ha_detail = Printf.sprintf "no shard %d" id }
      else
        let sh = t.shards.(id) in
        match with_lock t (fun () -> sh.sh_proc) with
        | None -> Serial.Health_ack { ha_ok = false; ha_detail = "shard already down" }
        | Some proc ->
            proc.sp_kill Sys.sigkill;
            Serial.Health_ack { ha_ok = true; ha_detail = Printf.sprintf "SIGKILL shard %d" id })
  | Serial.Health_ack _ -> Serial.Health_ack { ha_ok = false; ha_detail = "unexpected ack" }
  | Serial.Health_selftest ->
      (* the probe is a shard-side operation; the supervisor has no lane *)
      Serial.Health_ack { ha_ok = false; ha_detail = "not a shard" }

(* Front-door cancellation: the supervisor does not track which shard holds
   a given request id (hedges mean it may be several), so the frame is
   relayed to every live shard; any hit counts. *)
let relay_cancel t (cn : Serial.wire_cancel) =
  Array.fold_left
    (fun hit sh ->
      if with_lock t (fun () -> sh.sh_up) then begin
        Metrics.incr t.cancels_sent;
        match
          Client.cancel ~deadline_s:t.cfg.sup_ping_deadline_s sh.sh_addr ~id:cn.Serial.cn_id
            ~reason:cn.Serial.cn_reason
        with
        | Ok true -> true
        | Ok false | Error _ -> hit
      end
      else hit)
    false t.shards

(* ---- assembly ---- *)

let start ~(spawn : spawn) cfg =
  if cfg.sup_shards < 1 then invalid_arg "Supervisor.start: need at least one shard";
  let registry = Metrics.create () in
  let shards =
    Array.init cfg.sup_shards (fun i ->
        {
          sh_id = i;
          sh_addr = cfg.sup_shard_addr i;
          sh_breaker =
            Breaker.create ~threshold:cfg.sup_breaker_threshold
              ~cooldown:cfg.sup_breaker_cooldown_s ();
          sh_restart_counter =
            Metrics.counter registry ~help:"worker restarts"
              ~labels:[ ("shard", string_of_int i) ]
              "chet_sup_restarts_total";
          sh_proc = None;
          sh_up = false;
          sh_restarts = 0;
          sh_last_error = "";
          sh_backoff_ms = cfg.sup_backoff_base_ms;
          sh_restart_at = neg_infinity;
          sh_ping_failures = 0;
          sh_suspect = false;
        })
  in
  (* the front door keeps the shard's default transport limits *)
  let front = Endpoint.listen Endpoint.default_limits cfg.sup_front_addr in
  let t =
    {
      cfg;
      spawn;
      shards;
      lock = Mutex.create ();
      stop_flag = Atomic.make false;
      started_at = Wire.now ();
      rr = Atomic.make 0;
      front;
      registry;
      forwarded =
        Metrics.counter registry ~help:"requests answered by a shard" "chet_sup_forwarded_total";
      routed_errors =
        Metrics.counter registry ~help:"forwards that failed over to another shard"
          "chet_sup_route_failovers_total";
      unroutable =
        Metrics.counter registry ~help:"requests rejected: no routable shard"
          "chet_sup_unroutable_total";
      hedges =
        Metrics.counter registry ~help:"duplicate requests launched after the hedge delay"
          "chet_sup_hedges_total";
      hedge_wins =
        Metrics.counter registry ~help:"hedged requests won by the duplicate leg"
          "chet_sup_hedge_wins_total";
      cancels_sent =
        Metrics.counter registry ~help:"CNCL frames sent to shards (hedge losers + relays)"
          "chet_sup_cancels_sent_total";
      integrity_failures =
        Metrics.counter registry ~help:"shard answers rejected by sentinel verification"
          "chet_integrity_failures_total";
      quarantines =
        Metrics.counter registry ~help:"shards killed after a failed integrity selftest"
          "chet_shard_quarantines_total";
      threads = [];
    }
  in
  Array.iter (fun sh -> with_lock t (fun () -> spawn_shard t sh ~first:true)) t.shards;
  Endpoint.serve front
    {
      Endpoint.on_request = (fun rq -> Wire.serialize Serial.write_response (handle_request t rq));
      on_cancel = relay_cancel t;
      on_health = handle_health t;
      on_reject = Endpoint.error_response ~shard:(-1) ~backend:"supervisor";
    };
  t.threads <- [ Thread.create monitor_loop t ];
  t

(* Block until at least [n] shards answer pings, or [timeout_s] elapses. *)
let await_ready t ?(n = Array.length t.shards) ~timeout_s () =
  let deadline = Wire.now () +. timeout_s in
  let rec poll () =
    let up = with_lock t (fun () -> Array.fold_left (fun a sh -> if sh.sh_up then a + 1 else a) 0 t.shards) in
    if up >= n then true
    else if Wire.now () >= deadline then false
    else begin
      Thread.delay 0.05;
      poll ()
    end
  in
  poll ()

let metrics_snapshot t = Metrics.expose t.registry

let stop ?(kill_workers = true) t =
  Endpoint.stop t.front;
  Atomic.set t.stop_flag true;
  List.iter Thread.join t.threads;
  if kill_workers then
    Array.iter
      (fun sh ->
        match with_lock t (fun () -> sh.sh_proc) with
        | Some proc ->
            proc.sp_kill Sys.sigterm;
            (* give a graceful drain a moment, then insist *)
            let deadline = Wire.now () +. 5.0 in
            let rec reap () =
              match proc.sp_poll () with
              | Some _ -> ()
              | None ->
                  if Wire.now () >= deadline then begin
                    proc.sp_kill Sys.sigkill;
                    ignore (proc.sp_poll ())
                  end
                  else begin
                    Thread.delay 0.05;
                    reap ()
                  end
            in
            reap ()
        | None -> ())
      t.shards

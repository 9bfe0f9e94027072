(* Shard supervisor: fork N workers, watch them, restart them, route around
   them (DESIGN.md §12).

   The supervisor owns no FHE state. Each worker process rebuilds its
   deployment from the durable store bundle (warm restart, DESIGN.md §11),
   which is what makes SIGKILL survivable: the supervisor's only jobs are
   (a) noticing death — waitpid for crashes, health pings for hangs —
   (b) restarting with capped exponential backoff so a crash-looping shard
   cannot monopolise the machine, and (c) keeping the front door honest
   while a shard is down. One coordinator routes every request: legs go to
   live shards through a per-shard circuit breaker, a failed leg fails over
   to a shard the request has not used, and with [sup_hedge_delay_s] set
   the same failover starts early when the first leg is slow (a hedge,
   DESIGN.md §13). The first acceptable answer wins and the other legs are
   cancelled with a CNCL frame — shard-side request-id dedupe keeps any
   duplicate bit-identically safe. When nothing is routable the client gets
   a typed [Overloaded], never a hang.

   Process management is injected ([spawn] returns pid/kill/poll closures)
   so the state machine is testable in-process with fake "processes"
   (threads serving the same protocol); the real fork/exec drill runs in
   scripts/net_smoke.sh. *)

module Serial = Chet_crypto.Serial
module Herr = Chet_herr.Herr
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
      (** hedged requests (DESIGN.md §13): if the first leg has not
          answered within this delay, start the failover leg early — first
          acceptable answer wins, the other leg is cancelled with a CNCL
          frame. [<= 0] disables hedging. *)
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

(* Next live shard whose breaker admits, round-robin from the cursor,
   skipping the shards in [exclude] (those this request already used); the
   breaker slot is held by the caller until [settle] gives its verdict. *)
let route ~exclude t : shard option =
  let n = Array.length t.shards in
  let start = Atomic.fetch_and_add t.rr 1 in
  let rec probe i =
    if i >= n then None
    else
      let sh = t.shards.((start + i) mod n) in
      if List.mem sh.sh_id exclude then probe (i + 1)
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

(* What a shard's reply means for the request: the shard spoke for it, the
   request's own cancel token tripped (no other shard can do better), or
   try another shard. *)
type move = Answer of Serial.wire_response | Final of Serial.wire_response | Failover

(* The one place a reply becomes effects on its shard: the breaker verdict,
   suspicion, the up flag and the failover count. Each leg settles its own
   reply, so a leg that resolves after the request was answered still hands
   back its breaker slot. *)
let settle t sh res =
  let failover () =
    Breaker.record_failure sh.sh_breaker;
    Metrics.incr t.routed_errors;
    Failover
  in
  match res with
  | Error _ ->
      (* transport fault: the shard may be mid-crash; the monitor sorts it out *)
      with_lock t (fun () -> sh.sh_up <- false);
      failover ()
  | Ok rsp -> (
      match rsp.Serial.rs_result with
      | Error ((Herr.Overloaded _ | Herr.Corrupt_frame _), _) -> failover ()
      | Error (Herr.Integrity_violation _, _) ->
          (* an answer the shard's own sentinel lane rejected is not the
             system's answer: suspect the shard (the health loop confirms
             before quarantining) and move on *)
          mark_suspect t sh;
          failover ()
      | Error (Herr.Cancelled _, _) ->
          (* breaker-neutral: the caller left, the shard did not fail, so
             the (possibly half-open) slot is handed back without a verdict *)
          Breaker.release sh.sh_breaker;
          Final { rsp with Serial.rs_shard = sh.sh_id }
      | Ok _ | Error _ ->
          (* a typed FHE error is the shard's answer too *)
          Breaker.record_success sh.sh_breaker;
          Answer { rsp with Serial.rs_shard = sh.sh_id })

(* One leg: forward to [sh] within the transport deadline and settle the
   reply. Never raises, so every leg posts exactly once. *)
let forward t sh (rq : Serial.wire_request) =
  let cl =
    {
      (Client.default_config sh.sh_addr) with
      Client.cl_io_deadline_s = t.cfg.sup_forward_deadline_s;
      cl_retries = 0;
      cl_seed = rq.Serial.rq_seed;
    }
  in
  settle t sh
    (try (Client.request cl rq).Client.rm_response
     with e ->
       Error
         ( Herr.Corrupt_frame { frame = "RSP1"; reason = Printexc.to_string e },
           Herr.context ~backend:"supervisor" "forward" ))

(* Fire-and-forget CNCL to a leg still in flight: a lost cancel costs at
   most the work it tried to save, so it gets its own thread, no retries. *)
let cancel_loser t sh ~id =
  Metrics.incr t.cancels_sent;
  let cancel () =
    Client.cancel ~deadline_s:t.cfg.sup_ping_deadline_s sh.sh_addr ~id ~reason:"superseded"
  in
  ignore (Thread.create (fun () -> ignore (cancel ())) ())

(* The coordinator's inbox: legs post their settled move, the hedge timer
   posts [None]; the coordinator sleeps on the condition in between. *)
type cell = {
  c_mutex : Mutex.t;
  c_ready : Condition.t;
  c_events : (shard * move) option Queue.t;
}

let post cell ev =
  Mutex.protect cell.c_mutex (fun () ->
      Queue.push ev cell.c_events;
      Condition.signal cell.c_ready)

let next_event cell =
  Mutex.protect cell.c_mutex (fun () ->
      while Queue.is_empty cell.c_events do
        Condition.wait cell.c_ready cell.c_mutex
      done;
      Queue.pop cell.c_events)

(* The router (DESIGN.md §12, §13). Each leg forwards on its own thread to
   a shard this request has not used. When every leg started has failed
   over, the next one starts; a hedge is that failover started early, once
   [sup_hedge_delay_s] has passed with the first leg still silent. The
   first answer wins and every leg still in flight is cancelled. *)
let handle_request t (rq : Serial.wire_request) : Serial.wire_response =
  let id = rq.Serial.rq_id in
  let cell =
    { c_mutex = Mutex.create (); c_ready = Condition.create (); c_events = Queue.create () }
  in
  (* [used]: every leg's shard, newest first; [live]: legs not yet settled *)
  let used = ref [] and live = ref [] and hedge = ref (-1) and final = ref None in
  let start_leg () =
    match route ~exclude:(List.map (fun sh -> sh.sh_id) !used) t with
    | None -> None
    | Some sh ->
        (* leg k carries hedge generation k, so shard logs tell twins apart *)
        let leg = { rq with Serial.rq_hedge = rq.Serial.rq_hedge + List.length !used } in
        used := sh :: !used;
        live := sh :: !live;
        ignore (Thread.create (fun () -> post cell (Some (sh, forward t sh leg))) ());
        Some sh
  in
  let rec wait () =
    match next_event cell with
    | None ->
        (if List.length !used = 1 && !live <> [] then
           match start_leg () with
           | Some sh ->
               Metrics.incr t.hedges;
               hedge := sh.sh_id
           | None -> ());
        wait ()
    | Some (sh, move) -> (
        live := List.filter (fun l -> l != sh) !live;
        match move with
        | Answer rsp ->
            Metrics.incr t.forwarded;
            if sh.sh_id = !hedge then Metrics.incr t.hedge_wins;
            List.iter (fun loser -> cancel_loser t loser ~id) !live;
            rsp
        | Final rsp ->
            final := Some rsp;
            resolve ()
        | Failover -> resolve ())
  and resolve () =
    match (!live, !final) with
    | _ :: _, _ -> wait ()
    | [], Some rsp ->
        Metrics.incr t.forwarded;
        rsp
    | [], None ->
        if Option.is_none (start_leg ()) then unroutable t ~id "no routable shard" else wait ()
  in
  if Option.is_none (start_leg ()) then unroutable t ~id "no routable shard"
  else begin
    if t.cfg.sup_hedge_delay_s > 0.0 then
      ignore (Thread.create (fun () -> Thread.delay t.cfg.sup_hedge_delay_s; post cell None) ());
    wait ()
  end

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

let stop t =
  Endpoint.stop t.front;
  Atomic.set t.stop_flag true;
  List.iter Thread.join t.threads;
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

(* The networked serving layer's robustness contract, proven in-process over
   real unix sockets (ISSUE 6 acceptance criteria):

     (a) REQ1/RSP1 roundtrip: a wire request answers bit-identical to a
         direct cleartext run, stamped with the serving shard;
     (b) backpressure: past [max_inflight] the server answers a typed
         [Overloaded], it does not drop the connection;
     (c) a corrupt frame answers a typed [Corrupt_frame] and the SAME
         connection keeps serving — the outer length prefix kept the
         stream in sync;
     (d) client-side wire-fault injection (truncate, bit flip, stall)
         recovers through retry: the final answer is clean;
     (e) the supervisor state machine — spawn, health, kill, backoff
         restart, routing around a dead shard — driven end to end with
         fake in-process "processes" (threads serving the same protocol);
     (f) the supervisor's front door shares the shard's transport: typed
         goodbyes on stalled and truncated frames, typed answers to corrupt
         frames on a surviving connection, open connections shut at stop;
     (g) nothing waits past its deadline on a peer that never accepts: a
         connect gives up, and the supervisor SIGKILLs and respawns such a
         shard; a sentinel-rejected answer fails over, hedged or not, and
         its shard is quarantined.

   The real fork/exec drill (SIGKILL an actual worker process, warm restart
   from its bundle) lives in scripts/net_smoke.sh. *)

module Compiler = Chet.Compiler
module Models = Chet_nn.Models
module Hisa = Chet_hisa.Hisa
module Herr = Chet_herr.Herr
module Clear = Chet_hisa.Clear_backend
module Service = Chet_serve.Service
module Serial = Chet_crypto.Serial
module Wire = Chet_net.Wire
module Net_server = Chet_net.Server
module Client = Chet_net.Client
module Supervisor = Chet_net.Supervisor
module Fault = Chet_hisa.Fault_backend
module T = Chet_tensor.Tensor

let seal_opts = Compiler.default_options ~target:Compiler.Seal ()
let micro = Models.micro.Models.build ()
let compiled = lazy (Compiler.compile seal_opts micro)
let scheme () = Compiler.scheme_of_params seal_opts (Lazy.force compiled).Compiler.params
let policy () = (Lazy.force compiled).Compiler.policy
let plan = lazy (Compiler.plan (Lazy.force compiled))

let clear_backend () =
  Clear.make
    {
      Clear.slots = Compiler.params_n (Lazy.force compiled).Compiler.params / 2;
      scheme = scheme ();
      strict_modulus = false;
      encode_noise = false;
    }

let clean_dep () =
  {
    Service.dep_label = "primary";
    dep_scales = seal_opts.Compiler.scales;
    dep_plan = Lazy.force plan;
    dep_backend = Service.Per_attempt (fun ~req_seed:_ ~attempt:_ -> clear_backend ());
    dep_sentinel = None;
  }

let quick_cfg () =
  {
    (Service.default_config ~domains:1 ())
    with
    Service.high_water = 16;
    max_retries = 1;
    backoff_base_ms = 1.0;
    backoff_cap_ms = 5.0;
    default_deadline_ms = 60_000.0;
  }

let direct_clean_run img =
  let backend = clear_backend () in
  let module H = (val backend : Hisa.S) in
  let module E = Chet_plan.Plan_exec.Make (H) in
  E.eval seal_opts.Compiler.scales micro ~policy:(policy ()) img

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "chet-net-%d-%s.sock" (Unix.getpid ()) name)

let sample_request ?(id = 42) ?(seed = 7) () =
  let img = Models.input_for Models.micro ~seed:501 in
  {
    Serial.rq_id = id;
    rq_seed = seed;
    rq_hedge = 0;
    rq_deadline_ms = 30_000.0;
    rq_shape = img.T.shape;
    rq_image = img.T.data;
  }

(* Run [f server addr] against an in-process shard server over a unix
   socket; always tears the server and its service down. *)
let with_server ?(shard = 3) ?(max_inflight = 8) ?deployment name f =
  let addr = Wire.Unix_sock (sock_path name) in
  let deployment = Option.value deployment ~default:(clean_dep ()) in
  let svc = Service.create (quick_cfg ()) ~circuit:micro ~ladder:deployment in
  let cfg =
    {
      (Net_server.default_config ~shard addr)
      with
      Net_server.srv_max_inflight = max_inflight;
      srv_read_deadline_s = 0.5;
      srv_write_deadline_s = 5.0;
    }
  in
  let server = Net_server.start cfg svc in
  Fun.protect
    ~finally:(fun () ->
      Net_server.stop server;
      Service.shutdown svc)
    (fun () -> f server addr)

let quick_client ?(retries = 3) addr =
  {
    (Client.default_config addr)
    with
    Client.cl_io_deadline_s = 5.0;
    cl_retries = retries;
    cl_backoff_base_ms = 1.0;
    cl_backoff_cap_ms = 10.0;
    cl_seed = 99;
  }

(* --- (a) REQ1 -> RSP1 roundtrip, bit-identical to the clean run ----- *)

let test_roundtrip () =
  with_server "rt" (fun server addr ->
      let meta = Client.request (quick_client addr) (sample_request ()) in
      Alcotest.(check int) "one wire attempt" 1 meta.Client.rm_attempts;
      match meta.Client.rm_response with
      | Error (e, c) -> Alcotest.failf "roundtrip failed: %s" (Herr.to_string (e, c))
      | Ok rsp -> (
          Alcotest.(check int) "request id echoed" 42 rsp.Serial.rs_id;
          Alcotest.(check int) "shard stamped" 3 rsp.Serial.rs_shard;
          match rsp.Serial.rs_result with
          | Error (e, c) -> Alcotest.failf "typed error: %s" (Herr.to_string (e, c))
          | Ok (shape, data) ->
              let img = Models.input_for Models.micro ~seed:501 in
              let expected = direct_clean_run img in
              let got = T.of_array shape data in
              Alcotest.(check (float 0.0))
                "bit-identical to direct run" 0.0
                (T.max_abs_diff (T.flatten expected) (T.flatten got));
              let s = Net_server.stats server in
              Alcotest.(check int) "served counted" 1 s.Net_server.srv_served;
              Alcotest.(check int) "nothing rejected" 0 s.Net_server.srv_rejected);
      (* the same socket also answers health pings *)
      match Client.ping addr with
      | Ok (Serial.Health_ack { ha_ok = true; ha_detail }) ->
          Alcotest.(check string) "shard identifies itself" "shard" ha_detail
      | Ok _ -> Alcotest.fail "unexpected health reply"
      | Error e -> Alcotest.failf "ping failed: %s" e)

(* --- (b) inflight cap -> typed Overloaded, not a dropped socket ----- *)

let test_backpressure_typed_overload () =
  with_server ~max_inflight:0 "bp" (fun server addr ->
      let meta = Client.request (quick_client ~retries:0 addr) (sample_request ()) in
      (match meta.Client.rm_response with
      | Ok { Serial.rs_result = Error (Herr.Overloaded { high_water; _ }, _); _ } ->
          Alcotest.(check int) "rejection names the cap" 0 high_water
      | Ok { Serial.rs_result = Ok _; _ } -> Alcotest.fail "request admitted past a zero cap"
      | Ok { Serial.rs_result = Error (e, c); _ } | Error (e, c) ->
          Alcotest.failf "expected Overloaded, got %s" (Herr.to_string (e, c)));
      let s = Net_server.stats server in
      Alcotest.(check int) "rejection counted" 1 s.Net_server.srv_rejected;
      Alcotest.(check int) "not counted as corrupt" 0 s.Net_server.srv_corrupt)

(* --- (c) corrupt frame -> typed answer, connection stays alive ------ *)

let send_recv fd payload =
  let deadline = Wire.now () +. 5.0 in
  match Wire.send_frame fd payload ~deadline with
  | Error f -> Alcotest.failf "send failed: %s" (Wire.fault_name f)
  | Ok () -> (
      match Wire.recv_frame fd ~deadline with
      | Error f -> Alcotest.failf "recv failed: %s" (Wire.fault_name f)
      | Ok reply -> reply)

let open_conn addr =
  match Wire.connect ~deadline:(Wire.now () +. 5.0) addr with
  | Ok fd -> fd
  | Error f -> Alcotest.failf "connect failed: %s" (Wire.fault_name f)

let frame_of write v =
  let w = Serial.writer () in
  write w v;
  Serial.contents w

(* Garbage, then a bit-flipped REQ1, each answered with a typed
   [Corrupt_frame]; then a clean request on the SAME connection. *)
let corrupt_frames_keep_connection addr =
  let fd = open_conn addr in
  Fun.protect
    ~finally:(fun () -> Wire.close_noerr fd)
    (fun () ->
      (* 1: garbage bytes under an honest outer prefix *)
      let rsp = Serial.read_response (Serial.reader (send_recv fd "JUNKbytes, not a frame")) in
      (match rsp.Serial.rs_result with
      | Error (Herr.Corrupt_frame { frame; _ }, _) ->
          Alcotest.(check string) "rejection names the bogus tag" "JUNK" frame
      | _ -> Alcotest.fail "garbage must answer Corrupt_frame");
      (* 2: a real REQ1 with one body bit flipped — checksum catches it *)
      let payload = Bytes.of_string (frame_of Serial.write_request (sample_request ())) in
      let mid = Bytes.length payload - 8 in
      Bytes.set payload mid (Char.chr (Char.code (Bytes.get payload mid) lxor 0x10));
      let rsp = Serial.read_response (Serial.reader (send_recv fd (Bytes.to_string payload))) in
      (match rsp.Serial.rs_result with
      | Error (Herr.Corrupt_frame { frame; _ }, _) ->
          Alcotest.(check string) "rejection names REQ1" "REQ1" frame
      | _ -> Alcotest.fail "flipped bit must answer Corrupt_frame");
      (* 3: the SAME connection still serves a clean request *)
      let req = frame_of Serial.write_request (sample_request ~id:77 ()) in
      let rsp = Serial.read_response (Serial.reader (send_recv fd req)) in
      Alcotest.(check int) "same connection answers" 77 rsp.Serial.rs_id;
      match rsp.Serial.rs_result with
      | Ok _ -> ()
      | Error (e, c) -> Alcotest.failf "clean request failed: %s" (Herr.to_string (e, c)))

let test_corrupt_frame_keeps_connection () =
  with_server "cf" (fun server addr ->
      corrupt_frames_keep_connection addr;
      let s = Net_server.stats server in
      Alcotest.(check int) "one connection total" 1 s.Net_server.srv_accepted;
      Alcotest.(check int) "both corruptions counted" 2 s.Net_server.srv_corrupt)

(* --- the inflight cap holds under concurrent arrivals ---------------- *)

(* A deployment whose backend sets [entered] and blocks every attempt
   until [gate] opens. *)
let gated_deployment ?(entered = Atomic.make false) gate =
  {
    (clean_dep ()) with
    Service.dep_backend =
      Service.Per_attempt
        (fun ~req_seed:_ ~attempt:_ ->
          Atomic.set entered true;
          while not (Atomic.get gate) do
            Unix.sleepf 0.001
          done;
          clear_backend ());
  }

let test_inflight_cap_concurrent () =
  let cap = 2 and extra = 3 in
  let gate = Atomic.make false in
  with_server ~max_inflight:cap ~deployment:(gated_deployment gate) "cap" (fun server addr ->
      let results = Array.make (cap + extra) None in
      let threads =
        List.init (cap + extra) (fun i ->
            Thread.create
              (fun () ->
                let req = sample_request ~id:(200 + i) () in
                let meta = Client.request (quick_client ~retries:0 addr) req in
                results.(i) <- Some meta.Client.rm_response)
              ())
      in
      (* the admitted requests block in the service; the rest are answered
         at once, so wait for those answers before opening the gate *)
      let deadline = Wire.now () +. 10.0 in
      while (Net_server.stats server).Net_server.srv_rejected < extra && Wire.now () < deadline do
        Thread.delay 0.01
      done;
      Atomic.set gate true;
      List.iter Thread.join threads;
      let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 results in
      Alcotest.(check int) "at most the cap admitted" cap
        (count (function Some (Ok { Serial.rs_result = Ok _; _ }) -> true | _ -> false));
      Alcotest.(check int) "the rest answered typed Overloaded" extra
        (count (function
          | Some (Ok { Serial.rs_result = Error (Herr.Overloaded { high_water; _ }, _); _ }) ->
              high_water = cap
          | _ -> false)))

(* --- (d) injected wire faults recover through retry ----------------- *)

let test_fault_injection_recovers () =
  with_server "fi" (fun _server addr ->
      let expect_recovery name fault ~min_attempts =
        let meta = Client.request ~fault (quick_client addr) (sample_request ()) in
        (match meta.Client.rm_response with
        | Ok { Serial.rs_result = Ok _; _ } -> ()
        | Ok { Serial.rs_result = Error (e, c); _ } | Error (e, c) ->
            Alcotest.failf "%s: did not recover: %s" name (Herr.to_string (e, c)));
        Alcotest.(check bool)
          (name ^ ": retried past the mangled attempt")
          true
          (meta.Client.rm_attempts >= min_attempts)
      in
      (* truncation: server sees EOF mid-frame, answers typed, client retries *)
      expect_recovery "truncate" Client.Truncate ~min_attempts:2;
      (* bit flip lands inside the Serial frame; checksum (or the full-width
         length check) rejects it, the retry goes through clean *)
      expect_recovery "bitflip" (Client.Bitflip 3) ~min_attempts:2;
      (* a stalled-but-finished send is within deadline: first try serves *)
      expect_recovery "stall" (Client.Stall 0.05) ~min_attempts:1)

(* --- connect is bounded by the caller's deadline --------------------- *)

(* A listener with backlog 0 holding one connection it never accepts: its
   backlog is full, so no further connect can complete. Returns the bound
   address (a TCP port 0 resolved) and an idempotent closer. *)
let full_backlog addr =
  let lfd = Wire.listen ~backlog:0 addr in
  let addr =
    match (addr, Unix.getsockname lfd) with
    | Wire.Tcp (host, _), Unix.ADDR_INET (_, port) -> Wire.Tcp (host, port)
    | _ -> addr
  in
  let filler = Wire.connect ~deadline:(Wire.now () +. 1.0) addr in
  let closed = Atomic.make false in
  let close () =
    if Atomic.compare_and_set closed false true then begin
      Result.iter Wire.close_noerr filler;
      Wire.close_noerr lfd
    end
  in
  (addr, close)

(* A ping with a 0.3 s deadline must give up within 1.5 s. The ping runs on
   its own thread and the listener is closed on the way out, so a connect
   that ignores its deadline fails the test instead of hanging it. *)
let test_connect_full_backlog addr () =
  let addr, close = full_backlog addr in
  let t0 = Wire.now () in
  let result = ref None in
  let pinger = Thread.create (fun () -> result := Some (Client.ping ~deadline_s:0.3 addr)) () in
  let took =
    Fun.protect
      ~finally:(fun () ->
        close ();
        Thread.join pinger)
      (fun () ->
        while Option.is_none !result && Wire.now () -. t0 < 1.5 do
          Thread.delay 0.01
        done;
        Wire.now () -. t0)
  in
  match !result with
  | Some (Error _) when took < 1.5 -> ()
  | Some (Ok _) -> Alcotest.fail "a listener that never accepts answered the ping"
  | _ -> Alcotest.failf "ping still connecting after %.2f s" took

(* --- (e) supervisor over fake in-process processes ------------------ *)

(* A fake worker "process": a real Net_server + Service on the shard's
   socket, with kill/poll closures over an atomic status — the supervisor
   cannot tell it from a forked worker. *)
type fake_proc = {
  fp_server : Net_server.t;
  fp_service : Service.t;
  fp_status : Unix.process_status option Atomic.t;
}

let fake_spawn ?(slow = fun _shard -> 0.0) ?(dep = fun _shard -> clean_dep ()) ?selftest
    spawned_log : Supervisor.spawn =
 fun ~shard ~addr ->
  let dep =
    let delay = slow shard in
    if delay <= 0.0 then dep shard
    else
      {
        (dep shard) with
        Service.dep_backend =
          Service.Per_attempt
            (fun ~req_seed:_ ~attempt:_ ->
              Unix.sleepf delay;
              clear_backend ());
      }
  in
  let svc = Service.create (quick_cfg ()) ~circuit:micro ~ladder:dep in
  let cfg =
    { (Net_server.default_config ~shard addr) with Net_server.srv_read_deadline_s = 0.5 }
  in
  let server = Net_server.start ?selftest:(Option.map (fun f -> f shard) selftest) cfg svc in
  let fp = { fp_server = server; fp_service = svc; fp_status = Atomic.make None } in
  spawned_log := fp :: !spawned_log;
  {
    Supervisor.sp_pid = 10_000 + shard;
    sp_kill =
      (fun signal ->
        (* first signal wins; tearing down twice would double-free the fds *)
        if Atomic.compare_and_set fp.fp_status None (Some (Unix.WSIGNALED signal)) then begin
          Net_server.stop fp.fp_server;
          Service.shutdown fp.fp_service
        end);
    sp_poll = (fun () -> Atomic.get fp.fp_status);
  }

let sup_cfg ~front ~shard_addr =
  {
    (Supervisor.default_config ~shards:2 ~shard_addr ~front_addr:front)
    with
    Supervisor.sup_backoff_base_ms = 10.0;
    sup_backoff_cap_ms = 100.0;
    sup_health_interval_s = 0.05;
    sup_ping_deadline_s = 1.0;
    sup_forward_deadline_s = 5.0;
  }

let request_ok name cfg req =
  match (Client.request cfg req).Client.rm_response with
  | Ok ({ Serial.rs_result = Ok _; _ } as rsp) -> rsp
  | Ok { Serial.rs_result = Error (e, c); _ } | Error (e, c) ->
      Alcotest.failf "%s: %s" name (Herr.to_string (e, c))

let contains hay needle =
  let n = String.length hay and k = String.length needle in
  let rec scan i = i + k <= n && (String.sub hay i k = needle || scan (i + 1)) in
  scan 0

(* Poll [cond] every 50 ms until it holds or [timeout_s] passes. *)
let wait_until ~timeout_s cond =
  let deadline = Wire.now () +. timeout_s in
  let rec go () =
    cond ()
    || Wire.now () < deadline
       && begin
            Thread.delay 0.05;
            go ()
          end
  in
  go ()

(* The front door's report shows [shard] up again after at least one restart. *)
let restarted front shard =
  match Client.health front (Serial.Health_report { hr_uptime_s = 0.0; hr_shards = [] }) with
  | Ok (Serial.Health_report { hr_shards; _ }) ->
      List.exists
        (fun s -> s.Serial.hs_shard = shard && s.Serial.hs_up && s.Serial.hs_restarts >= 1)
        hr_shards
  | _ -> false

let test_supervisor_state_machine () =
  let front = Wire.Unix_sock (sock_path "sup-front") in
  let shard_addr i = Wire.Unix_sock (sock_path (Printf.sprintf "sup-sh%d" i)) in
  let spawned = ref [] in
  let sup = Supervisor.start ~spawn:(fake_spawn spawned) (sup_cfg ~front ~shard_addr) in
  Fun.protect
    ~finally:(fun () -> Supervisor.stop sup)
    (fun () ->
      Alcotest.(check bool) "both shards come up" true (Supervisor.await_ready sup ~timeout_s:15.0 ());
      (* front door proxies REQ1 to a live shard *)
      let cl = quick_client front in
      let rsp = request_ok "proxied request" cl (sample_request ~id:1 ()) in
      Alcotest.(check bool) "answered by a real shard" true (rsp.Serial.rs_shard >= 0);
      (* control plane: ping and report *)
      (match Client.ping front with
      | Ok (Serial.Health_ack { ha_ok = true; ha_detail }) ->
          Alcotest.(check string) "front identifies itself" "supervisor" ha_detail
      | _ -> Alcotest.fail "front must ack pings");
      (match Client.health front (Serial.Health_report { hr_uptime_s = 0.0; hr_shards = [] }) with
      | Ok (Serial.Health_report { hr_shards; _ }) ->
          Alcotest.(check int) "report covers both shards" 2 (List.length hr_shards);
          List.iter
            (fun s -> Alcotest.(check bool) "shard up in report" true s.Serial.hs_up)
            hr_shards
      | _ -> Alcotest.fail "front must answer reports");
      (* kill shard 0 through the control plane *)
      (match Client.health front (Serial.Health_kill 0) with
      | Ok (Serial.Health_ack { ha_ok = true; _ }) -> ()
      | _ -> Alcotest.fail "kill endpoint must ack");
      (* the front keeps answering while shard 0 is down: route around it *)
      for i = 2 to 6 do
        ignore (request_ok "request during outage" cl (sample_request ~id:i ()))
      done;
      (* the monitor notices the death and restarts shard 0 *)
      Alcotest.(check bool) "shard 0 restarted and back up" true
        (wait_until ~timeout_s:15.0 (fun () -> restarted front 0));
      Alcotest.(check bool)
        "restart visible in metrics" true
        (contains (Supervisor.metrics_snapshot sup) "chet_sup_restarts_total{shard=\"0\"} 1");
      (* three spawns total: 2 initial + 1 restart *)
      Alcotest.(check int) "one respawn happened" 3 (List.length !spawned));
  (* stop kills every fake process exactly once *)
  List.iter
    (fun fp ->
      Alcotest.(check bool) "fake worker reaped" true (Atomic.get fp.fp_status <> None))
    !spawned

(* --- request-id dedupe: replays answered bit-identically ------------- *)

let test_dedup_bit_identical_replay () =
  with_server "dd" (fun server addr ->
      let fd = open_conn addr in
      Fun.protect
        ~finally:(fun () -> Wire.close_noerr fd)
        (fun () ->
          let w = Serial.writer () in
          Serial.write_request w (sample_request ~id:55 ());
          let payload = Serial.contents w in
          let first = send_recv fd payload in
          (match (Serial.read_response (Serial.reader first)).Serial.rs_result with
          | Ok _ -> ()
          | Error (e, c) -> Alcotest.failf "first send failed: %s" (Herr.to_string (e, c)));
          (* the identical frame again: answered from the dedupe cache with
             the exact bytes of the first answer — no second execution *)
          let second = send_recv fd payload in
          Alcotest.(check bool) "replay answered bit-identically" true (String.equal first second);
          let s = Net_server.stats server in
          Alcotest.(check int) "one inference executed" 1 s.Net_server.srv_served;
          Alcotest.(check int) "replay was a cache hit" 1 s.Net_server.srv_dedup_hits;
          (* a fresh id on the same connection still executes *)
          let w2 = Serial.writer () in
          Serial.write_request w2 (sample_request ~id:56 ());
          let rsp = Serial.read_response (Serial.reader (send_recv fd (Serial.contents w2))) in
          Alcotest.(check int) "fresh id answered" 56 rsp.Serial.rs_id;
          Alcotest.(check int) "fresh id executed" 2
            (Net_server.stats server).Net_server.srv_served))

(* --- CNCL frees an in-flight request over the wire ------------------- *)

let test_cancel_inflight_over_wire () =
  let entered = Atomic.make false and gate = Atomic.make false in
  with_server ~deployment:(gated_deployment ~entered gate) "cncl" (fun server addr ->
      let result = ref None in
      let th =
        Thread.create
          (fun () ->
            result := Some (Client.request (quick_client ~retries:0 addr) (sample_request ~id:314 ())))
          ()
      in
      let rec spin n =
        if not (Atomic.get entered) then
          if n > 5000 then Alcotest.fail "request never reached the worker"
          else begin
            Unix.sleepf 0.002;
            spin (n + 1)
          end
      in
      spin 0;
      (* an id nobody holds: the benign race, acked found=false *)
      (match Client.cancel addr ~id:999 ~reason:"typo" with
      | Ok found -> Alcotest.(check bool) "unknown id not in flight" false found
      | Error e -> Alcotest.failf "cancel of unknown id failed: %s" e);
      (match Client.cancel addr ~id:314 ~reason:"client gave up" with
      | Ok found -> Alcotest.(check bool) "in-flight id found" true found
      | Error e -> Alcotest.failf "cancel failed: %s" e);
      Atomic.set gate true;
      Thread.join th;
      (match !result with
      | Some
          {
            Client.rm_response =
              Ok { Serial.rs_result = Error (Herr.Cancelled { reason; _ }, _); _ };
            _;
          } ->
          Alcotest.(check string) "reason crossed the wire" "client gave up" reason
      | Some { Client.rm_response = Ok { Serial.rs_result = Ok _; _ }; _ } ->
          Alcotest.fail "cancelled request must not succeed"
      | Some { Client.rm_response = Ok { Serial.rs_result = Error (e, c); _ }; _ }
      | Some { Client.rm_response = Error (e, c); _ } ->
          Alcotest.failf "wrong error class: %s" (Herr.to_string (e, c))
      | None -> Alcotest.fail "request thread produced nothing");
      let s = Net_server.stats server in
      Alcotest.(check int) "cancel hit counted" 1 s.Net_server.srv_cancelled)

(* --- hedged requests: the fast sibling wins, the loser is cancelled --- *)

let metric_value snapshot name =
  String.split_on_char '\n' snapshot
  |> List.find_map (fun line ->
         let prefix = name ^ " " in
         let n = String.length prefix in
         if String.length line > n && String.sub line 0 n = prefix then
           float_of_string_opt (String.sub line n (String.length line - n))
         else None)
  |> Option.value ~default:(-1.0)

let test_hedged_requests_cut_tail_latency () =
  let front = Wire.Unix_sock (sock_path "hg-front") in
  let shard_addr i = Wire.Unix_sock (sock_path (Printf.sprintf "hg-sh%d" i)) in
  let spawned = ref [] in
  let cfg = { (sup_cfg ~front ~shard_addr) with Supervisor.sup_hedge_delay_s = 0.05 } in
  (* shard 0 sleeps 2 s before every inference; shard 1 is honest *)
  let slow shard = if shard = 0 then 2.0 else 0.0 in
  let sup = Supervisor.start ~spawn:(fake_spawn ~slow spawned) cfg in
  Fun.protect
    ~finally:(fun () -> Supervisor.stop sup)
    (fun () ->
      Alcotest.(check bool) "both shards up" true (Supervisor.await_ready sup ~timeout_s:15.0 ());
      let cl = quick_client ~retries:0 front in
      let img = Models.input_for Models.micro ~seed:501 in
      let expected = direct_clean_run img in
      for i = 1 to 4 do
        let t0 = Wire.now () in
        let rsp = request_ok "hedged request" cl (sample_request ~id:(100 + i) ()) in
        let elapsed = Wire.now () -. t0 in
        (* never the slow shard's 2 s: either the primary was fast, or the
           hedge leg overtook the slow primary after the 50 ms delay *)
        Alcotest.(check bool)
          (Printf.sprintf "request %d beat the slow shard (%.0f ms)" i (elapsed *. 1000.0))
          true (elapsed < 1.0);
        match rsp.Serial.rs_result with
        | Ok (shape, data) ->
            Alcotest.(check (float 0.0))
              (Printf.sprintf "request %d bit-identical" i)
              0.0
              (T.max_abs_diff (T.flatten expected) (T.flatten (T.of_array shape data)))
        | Error _ -> assert false
      done;
      let m = Supervisor.metrics_snapshot sup in
      Alcotest.(check bool) "at least one hedge launched" true
        (metric_value m "chet_sup_hedges_total" >= 1.0);
      Alcotest.(check bool) "the duplicate leg won at least once" true
        (metric_value m "chet_sup_hedge_wins_total" >= 1.0);
      Alcotest.(check bool) "losing legs were cancelled" true
        (metric_value m "chet_sup_cancels_sent_total" >= 1.0);
      (* idempotency held: no shard executed the same id twice (a hedge
         duplicates across shards, never onto the same one) *)
      List.iter
        (fun fp ->
          Alcotest.(check int) "no duplicate execution on any shard" 0
            (Net_server.stats fp.fp_server).Net_server.srv_dedup_hits)
        !spawned)

(* --- hang detection: a shard that never answers is killed, respawned --- *)

let test_supervisor_kills_hung_shard () =
  let front = Wire.Unix_sock (sock_path "hang-front") in
  let shard_addr i = Wire.Unix_sock (sock_path (Printf.sprintf "hang-sh%d" i)) in
  let spawned = ref [] and wedged = ref None and killed_with = Atomic.make 0 in
  (* shard 0's first "process" is a listener with a full backlog — alive,
     never answering; every later spawn is a working fake shard *)
  let spawn ~shard ~addr =
    if shard = 0 && Option.is_none !wedged then begin
      let _, close = full_backlog addr in
      wedged := Some close;
      let status = Atomic.make None in
      {
        Supervisor.sp_pid = 20_000;
        sp_kill =
          (fun signal ->
            if Atomic.compare_and_set status None (Some (Unix.WSIGNALED signal)) then begin
              Atomic.set killed_with signal;
              close ()
            end);
        sp_poll = (fun () -> Atomic.get status);
      }
    end
    else fake_spawn spawned ~shard ~addr
  in
  let cfg =
    {
      (sup_cfg ~front ~shard_addr) with
      Supervisor.sup_ping_deadline_s = 0.2;
      sup_hang_pings = 3;
    }
  in
  let sup = Supervisor.start ~spawn cfg in
  Fun.protect
    ~finally:(fun () ->
      (* closed before stop, so a connect that ignores its deadline cannot
         hang the suite *)
      Option.iter (fun close -> close ()) !wedged;
      Supervisor.stop sup)
    (fun () ->
      Alcotest.(check bool) "hung shard 0 killed, respawned and back up" true
        (wait_until ~timeout_s:5.0 (fun () -> restarted front 0));
      Alcotest.(check int) "killed with SIGKILL" Sys.sigkill (Atomic.get killed_with);
      ignore (request_ok "request after the respawn" (quick_client front) (sample_request ~id:9 ())))

(* --- integrity failover: a sentinel-rejected answer is never the answer --- *)

let sentinel_compiled = lazy (Compiler.compile { seal_opts with Compiler.sentinel = true } micro)

(* A deployment whose sentinel lane checks every answer before release; [corrupt]
   silently perturbs every ciphertext it computes, which only the sentinel
   lane sees. *)
let sentinel_dep ~corrupt =
  let compiled = Lazy.force sentinel_compiled in
  let keyset = Compiler.clear_keyset compiled in
  let corrupted ~req_seed ~attempt:_ =
    let config = Fault.default_config ~seed:req_seed (Some Fault.Silent_corruption) in
    fst (Fault.wrap config (Compiler.view keyset ~req_seed:0))
  in
  {
    (clean_dep ()) with
    Service.dep_scales = compiled.Compiler.opts.Compiler.scales;
    dep_plan = Compiler.plan compiled;
    dep_sentinel = Some (Chet.Integrity.spec_for micro);
    dep_backend = (if corrupt then Service.Per_attempt corrupted else Service.Shared keyset);
  }

let test_integrity_failover ~hedge_delay_s () =
  let name = if hedge_delay_s > 0.0 then "igh" else "igu" in
  let front = Wire.Unix_sock (sock_path (name ^ "-front")) in
  let shard_addr i = Wire.Unix_sock (sock_path (Printf.sprintf "%s-sh%d" name i)) in
  (* shard 1 corrupts every answer, and its selftest probe fails *)
  let dep shard = sentinel_dep ~corrupt:(shard = 1) in
  let selftest shard () = if shard = 1 then Error "Integrity_violation" else Ok 40.0 in
  let cfg = { (sup_cfg ~front ~shard_addr) with Supervisor.sup_hedge_delay_s = hedge_delay_s } in
  let sup = Supervisor.start ~spawn:(fake_spawn ~dep ~selftest (ref [])) cfg in
  Fun.protect
    ~finally:(fun () -> Supervisor.stop sup)
    (fun () ->
      Alcotest.(check bool) "both shards up" true (Supervisor.await_ready sup ~timeout_s:15.0 ());
      (* no client retries: the failover is the supervisor's *)
      let cl = quick_client ~retries:0 front in
      for i = 1 to 8 do
        let rsp = request_ok "verified request" cl (sample_request ~id:(200 + i) ()) in
        Alcotest.(check int) (Printf.sprintf "request %d answered by shard 0" i) 0 rsp.Serial.rs_shard
      done;
      Alcotest.(check bool) "shard 1 quarantined and restarted" true
        (wait_until ~timeout_s:10.0 (fun () -> restarted front 1));
      let m = Supervisor.metrics_snapshot sup in
      Alcotest.(check bool) "integrity failure counted" true
        (metric_value m "chet_integrity_failures_total" >= 1.0);
      Alcotest.(check bool) "quarantine counted" true
        (metric_value m "chet_shard_quarantines_total" >= 1.0);
      if hedge_delay_s <= 0.0 then
        Alcotest.(check (float 0.0)) "no hedge without a delay" 0.0
          (metric_value m "chet_sup_hedges_total"))

(* --- (f) the front door shares the shard's transport ---------------- *)

(* The front door's limits are the shard's defaults: no config field sets
   them, so the stall test waits out the default 30 s frame budget. *)
let front_frame_budget_s =
  (Net_server.default_config (Wire.Unix_sock "unused")).Net_server.srv_read_deadline_s

let start_front name =
  let front = Wire.Unix_sock (sock_path (name ^ "-front")) in
  let shard_addr i = Wire.Unix_sock (sock_path (Printf.sprintf "%s-sh%d" name i)) in
  (Supervisor.start ~spawn:(fake_spawn (ref [])) (sup_cfg ~front ~shard_addr), front)

let with_front name f =
  let sup, front = start_front name in
  Fun.protect ~finally:(fun () -> Supervisor.stop sup) (fun () -> f sup front)

(* Write the outer prefix of a whole REQ1 but only half its body. *)
let send_half_request fd =
  let payload = frame_of Serial.write_request (sample_request ()) in
  let n = String.length payload in
  let bytes = Bytes.to_string (Wire.encode_prefix n) ^ String.sub payload 0 (n / 2) in
  match Wire.write_all fd (Bytes.of_string bytes) ~deadline:(Wire.now () +. 5.0) with
  | Ok () -> ()
  | Error f -> Alcotest.failf "send failed: %s" (Wire.fault_name f)

(* The typed error of the goodbye RSP1 the peer sends before closing. *)
let goodbye fd ~within =
  match Wire.recv_frame fd ~deadline:(Wire.now () +. within) with
  | Error f -> Alcotest.failf "no typed goodbye: %s" (Wire.fault_name f)
  | Ok reply -> (
      match (Serial.read_response (Serial.reader reply)).Serial.rs_result with
      | Error (e, _) -> e
      | Ok _ -> Alcotest.fail "goodbye carried a result")

let test_front_stalled_frame () =
  with_front "fst" (fun _ front ->
      let fd = open_conn front in
      Fun.protect
        ~finally:(fun () -> Wire.close_noerr fd)
        (fun () ->
          send_half_request fd;
          match goodbye fd ~within:(front_frame_budget_s +. 10.0) with
          | Herr.Deadline_exceeded _ -> ()
          | e -> Alcotest.failf "expected Deadline_exceeded, got %s" (Herr.error_name e)))

let test_front_truncated_frame () =
  with_front "ftr" (fun _ front ->
      let fd = open_conn front in
      Fun.protect
        ~finally:(fun () -> Wire.close_noerr fd)
        (fun () ->
          send_half_request fd;
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          match goodbye fd ~within:5.0 with
          | Herr.Corrupt_frame { reason; _ } ->
              Alcotest.(check bool) "names the truncation" true (contains reason "truncated")
          | e -> Alcotest.failf "expected Corrupt_frame, got %s" (Herr.error_name e)))

let test_front_corrupt_frames () =
  with_front "fcf" (fun sup front ->
      Alcotest.(check bool) "both shards come up" true
        (Supervisor.await_ready sup ~timeout_s:15.0 ());
      corrupt_frames_keep_connection front)

let test_front_stop_closes_idle () =
  let sup, front = start_front "fsp" in
  let fd = open_conn front in
  Fun.protect
    ~finally:(fun () -> Wire.close_noerr fd)
    (fun () ->
      (* one exchange proves the connection was accepted; it is now idle *)
      let ping = frame_of Serial.write_health Serial.Health_ping in
      (match Serial.read_health (Serial.reader (send_recv fd ping)) with
      | Serial.Health_ack { ha_ok = true; _ } -> ()
      | _ -> Alcotest.fail "front must ack pings");
      let t0 = Wire.now () in
      let stopper = Thread.create (fun () -> Supervisor.stop sup) () in
      let res = Wire.recv_frame fd ~deadline:(t0 +. 5.0) in
      let waited = Wire.now () -. t0 in
      Thread.join stopper;
      (match res with
      | Error Wire.Closed -> ()
      | Error f -> Alcotest.failf "connection not closed at stop: %s" (Wire.fault_name f)
      | Ok _ -> Alcotest.fail "unexpected frame at stop");
      Alcotest.(check bool)
        (Printf.sprintf "closed within about 1 s (%.2f s)" waited)
        true (waited < 1.5))

let suite =
  [
    ( "net",
      [
        Alcotest.test_case "REQ1/RSP1 roundtrip over unix socket" `Quick test_roundtrip;
        Alcotest.test_case "inflight cap answers typed Overloaded" `Quick
          test_backpressure_typed_overload;
        Alcotest.test_case "corrupt frame: typed answer, connection survives" `Quick
          test_corrupt_frame_keeps_connection;
        Alcotest.test_case "injected wire faults recover via retry" `Quick
          test_fault_injection_recovers;
        Alcotest.test_case "supervisor: spawn, kill, restart, route around" `Quick
          test_supervisor_state_machine;
        Alcotest.test_case "dedupe: replayed id answered bit-identically" `Quick
          test_dedup_bit_identical_replay;
        Alcotest.test_case "CNCL cancels an in-flight request over the wire" `Quick
          test_cancel_inflight_over_wire;
        Alcotest.test_case "hedged requests: fast sibling wins, loser cancelled" `Quick
          test_hedged_requests_cut_tail_latency;
        Alcotest.test_case "inflight cap holds under concurrent REQ1s" `Quick
          test_inflight_cap_concurrent;
        Alcotest.test_case "connect: full unix backlog gives up at the deadline" `Quick
          (test_connect_full_backlog (Wire.Unix_sock (sock_path "fb")));
        Alcotest.test_case "connect: full tcp backlog gives up at the deadline" `Quick
          (test_connect_full_backlog (Wire.Tcp ("127.0.0.1", 0)));
        Alcotest.test_case "supervisor: hung shard SIGKILLed and respawned" `Quick
          test_supervisor_kills_hung_shard;
        Alcotest.test_case "supervisor: sentinel-rejected answers fail over (unhedged)" `Quick
          (test_integrity_failover ~hedge_delay_s:0.0);
        Alcotest.test_case "supervisor: sentinel-rejected answers fail over (hedged)" `Quick
          (test_integrity_failover ~hedge_delay_s:0.05);
        Alcotest.test_case "front door: stalled frame gets typed Deadline_exceeded" `Slow
          test_front_stalled_frame;
        Alcotest.test_case "front door: truncated frame gets typed Corrupt_frame" `Quick
          test_front_truncated_frame;
        Alcotest.test_case "front door: corrupt frame and unknown tag typed, connection survives"
          `Quick test_front_corrupt_frames;
        Alcotest.test_case "front door: stop closes an idle connection" `Quick
          test_front_stop_closes_idle;
      ] );
  ]

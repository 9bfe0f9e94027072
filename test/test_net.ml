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
         fake in-process "processes" (threads serving the same protocol).

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
    dep_degraded = false;
    dep_scales = seal_opts.Compiler.scales;
    dep_plan = Lazy.force plan;
    dep_cost_ms = None;
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
    breaker_threshold = 3;
    breaker_cooldown_ms = 60_000.0;
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
let with_server ?(shard = 3) ?(max_inflight = 8) ?ladder name f =
  let addr = Wire.Unix_sock (sock_path name) in
  let ladder = Option.value ladder ~default:[ clean_dep () ] in
  let svc = Service.create (quick_cfg ()) ~circuit:micro ~ladder in
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

let test_corrupt_frame_keeps_connection () =
  with_server "cf" (fun server addr ->
      let fd =
        match Wire.connect addr with
        | Ok fd -> fd
        | Error f -> Alcotest.failf "connect failed: %s" (Wire.fault_name f)
      in
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
          let w = Serial.writer () in
          Serial.write_request w (sample_request ());
          let payload = Bytes.of_string (Serial.contents w) in
          let mid = Bytes.length payload - 8 in
          Bytes.set payload mid (Char.chr (Char.code (Bytes.get payload mid) lxor 0x10));
          let rsp = Serial.read_response (Serial.reader (send_recv fd (Bytes.to_string payload))) in
          (match rsp.Serial.rs_result with
          | Error (Herr.Corrupt_frame { frame; _ }, _) ->
              Alcotest.(check string) "rejection names REQ1" "REQ1" frame
          | _ -> Alcotest.fail "flipped bit must answer Corrupt_frame");
          (* 3: the SAME connection still serves a clean request *)
          let w = Serial.writer () in
          Serial.write_request w (sample_request ~id:77 ());
          let rsp = Serial.read_response (Serial.reader (send_recv fd (Serial.contents w))) in
          Alcotest.(check int) "same connection answers" 77 rsp.Serial.rs_id;
          (match rsp.Serial.rs_result with
          | Ok _ -> ()
          | Error (e, c) -> Alcotest.failf "clean request failed: %s" (Herr.to_string (e, c)));
          let s = Net_server.stats server in
          Alcotest.(check int) "one connection total" 1 s.Net_server.srv_accepted;
          Alcotest.(check int) "both corruptions counted" 2 s.Net_server.srv_corrupt))

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

(* --- (e) supervisor over fake in-process processes ------------------ *)

(* A fake worker "process": a real Net_server + Service on the shard's
   socket, with kill/poll closures over an atomic status — the supervisor
   cannot tell it from a forked worker. *)
type fake_proc = {
  fp_server : Net_server.t;
  fp_service : Service.t;
  fp_status : Unix.process_status option Atomic.t;
}

let fake_spawn ?(slow = fun _shard -> 0.0) spawned_log : Supervisor.spawn =
 fun ~shard ~addr ->
  let dep =
    let delay = slow shard in
    if delay <= 0.0 then clean_dep ()
    else
      {
        (clean_dep ()) with
        Service.dep_backend =
          Service.Per_attempt
            (fun ~req_seed:_ ~attempt:_ ->
              Unix.sleepf delay;
              clear_backend ());
      }
  in
  let svc = Service.create (quick_cfg ()) ~circuit:micro ~ladder:[ dep ] in
  let cfg =
    { (Net_server.default_config ~shard addr) with Net_server.srv_read_deadline_s = 0.5 }
  in
  let fp = { fp_server = Net_server.start cfg svc; fp_service = svc; fp_status = Atomic.make None } in
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
      let deadline = Wire.now () +. 15.0 in
      let restarted () =
        match Client.health front (Serial.Health_report { hr_uptime_s = 0.0; hr_shards = [] }) with
        | Ok (Serial.Health_report { hr_shards; _ }) ->
            List.exists
              (fun s -> s.Serial.hs_shard = 0 && s.Serial.hs_up && s.Serial.hs_restarts >= 1)
              hr_shards
        | _ -> false
      in
      let rec wait () =
        if restarted () then true
        else if Wire.now () >= deadline then false
        else begin
          Thread.delay 0.05;
          wait ()
        end
      in
      Alcotest.(check bool) "shard 0 restarted and back up" true (wait ());
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
      let fd =
        match Wire.connect addr with
        | Ok fd -> fd
        | Error f -> Alcotest.failf "connect failed: %s" (Wire.fault_name f)
      in
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
  let gated =
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
  in
  with_server ~ladder:[ gated ] "cncl" (fun server addr ->
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
      ] );
  ]

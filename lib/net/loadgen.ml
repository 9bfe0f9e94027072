(* Fault-injecting load generator for the networked serving stack.

   Drives [total] REQ1 requests at [concurrency] from client threads against
   one address (a shard directly, or the supervisor front door), optionally
   mangling every [fault_every]-th request on the wire (rotating truncate /
   bit-flip / stall) and optionally asking the supervisor to SIGKILL a shard
   mid-run — the full chaos drill of DESIGN.md §12's failure matrix. The
   assertion the numbers back up: every request gets an answer (an [Ok]
   tensor or a typed error), zero hangs, and the percentile spread shows
   what the retries cost.

   Deterministic apart from scheduling: request images, seeds and fault
   choices all derive from [lg_seed]; latencies are wall-clock. *)

module Serial = Chet_crypto.Serial
module Herr = Chet_herr.Herr
module Service = Chet_serve.Service
module Jsonx = Chet_obs.Jsonx

type config = {
  lg_addr : Wire.addr;
  lg_total : int;
  lg_concurrency : int;
  lg_shape : int array;  (** request tensor shape, e.g. the model's input *)
  lg_deadline_ms : float;
  lg_seed : int;
  lg_retries : int;
  lg_io_deadline_s : float;
  lg_fault_every : int;  (** mangle every k-th request; 0 disables *)
  lg_stall_s : float;  (** stall duration when that fault rotates in *)
  lg_kill_at : (Wire.addr * int * int) option;
      (** [(control, after, shard)]: once [after] requests have completed,
          ask [control] to SIGKILL [shard] — the mid-run crash of the drill *)
  lg_verify : (float array -> bool) option;
      (** client-side sentinel re-verification (DESIGN.md §16): applied to
          each ok answer's [rs_sentinel] lane, independent of the shard's own
          claim. When set, an ok answer with no lane at all also counts as
          rejected — the caller demanded verified answers. [None] trusts the
          wire. *)
}

let default_config ~addr ~shape =
  {
    lg_addr = addr;
    lg_total = 50;
    lg_concurrency = 4;
    lg_shape = shape;
    lg_deadline_ms = 30_000.0;
    lg_seed = 42;
    lg_retries = 5;
    lg_io_deadline_s = 30.0;
    lg_fault_every = 0;
    lg_stall_s = 0.05;
    lg_kill_at = None;
    lg_verify = None;
  }

type results = {
  r_total : int;
  r_ok : int;
  r_degraded : int;  (** of the ok answers, served by a degraded rung *)
  r_errors : (string * int) list;  (** typed error name -> count *)
  r_faults_injected : int;
  r_wire_attempts : int;  (** total attempts including retries *)
  r_latencies_ms : float array;  (** one entry per request, answered or not *)
  r_wall_s : float;
  r_kills_sent : int;
  r_verified : int;  (** ok answers that arrived with a sentinel lane *)
  r_client_rejected : int;
      (** ok answers whose lane failed the independent client-side
          re-verification ([lg_verify]) — each one is a corruption the
          server-side guard missed; the chaos drill requires zero *)
  r_integrity_errors : int;
      (** answers rejected as typed [Integrity_violation] — corruptions the
          serving side itself caught (also present in [r_errors] by name) *)
  r_min_margin_bits : float;  (** worst verified margin seen; [nan] if none *)
}

let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

let image_for cfg i =
  let numel = Array.fold_left ( * ) 1 cfg.lg_shape in
  let data = Array.make numel 0.0 in
  let s = ref (lcg (cfg.lg_seed + (i * 7919))) in
  for k = 0 to numel - 1 do
    s := lcg !s;
    data.(k) <- (float_of_int (!s mod 2000) /. 1000.0) -. 1.0
  done;
  data

let fault_for cfg i =
  if cfg.lg_fault_every <= 0 || i = 0 || i mod cfg.lg_fault_every <> 0 then None
  else
    match i / cfg.lg_fault_every mod 3 with
    | 0 -> Some Client.Truncate
    | 1 -> Some (Client.Bitflip i)
    | _ -> Some (Client.Stall cfg.lg_stall_s)

let run cfg : results =
  if cfg.lg_total < 1 then invalid_arg "Loadgen.run: lg_total must be >= 1";
  if cfg.lg_concurrency < 1 then invalid_arg "Loadgen.run: lg_concurrency must be >= 1";
  let next = Atomic.make 0 in
  let completions = Atomic.make 0 in
  let kills_sent = Atomic.make 0 in
  let lock = Mutex.create () in
  let ok = ref 0 in
  let degraded = ref 0 in
  let errors : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let faults = ref 0 in
  let attempts = ref 0 in
  let verified = ref 0 in
  let client_rejected = ref 0 in
  let integrity_errors = ref 0 in
  let min_margin = ref Float.nan in
  let latencies = Array.make cfg.lg_total 0.0 in
  let record f = Mutex.protect lock f in
  let client_cfg =
    {
      (Client.default_config cfg.lg_addr) with
      Client.cl_retries = cfg.lg_retries;
      cl_io_deadline_s = cfg.lg_io_deadline_s;
      cl_seed = cfg.lg_seed;
    }
  in
  let maybe_kill () =
    match cfg.lg_kill_at with
    | Some (control, after, shard) when Atomic.get completions >= after ->
        if Atomic.compare_and_set kills_sent 0 1 then
          ignore (Client.health control (Serial.Health_kill shard))
    | _ -> ()
  in
  let worker () =
    let rec pull () =
      let i = Atomic.fetch_and_add next 1 in
      if i < cfg.lg_total then begin
        let fault = fault_for cfg i in
        let req =
          {
            Serial.rq_id = i;
            rq_seed = cfg.lg_seed + i;
            rq_hedge = 0;
            rq_deadline_ms = cfg.lg_deadline_ms;
            rq_shape = cfg.lg_shape;
            rq_image = image_for cfg i;
          }
        in
        let t0 = Wire.now () in
        let meta = Client.request ?fault client_cfg req in
        let dt_ms = (Wire.now () -. t0) *. 1000.0 in
        record (fun () ->
            latencies.(i) <- dt_ms;
            attempts := !attempts + meta.Client.rm_attempts;
            if fault <> None then incr faults;
            match meta.Client.rm_response with
            | Ok { Serial.rs_result = Ok _; rs_degraded; rs_margin_bits; rs_sentinel; _ } ->
                incr ok;
                if rs_degraded then incr degraded;
                if rs_sentinel <> [||] then begin
                  incr verified;
                  if Float.is_nan !min_margin || rs_margin_bits < !min_margin then
                    min_margin := rs_margin_bits
                end;
                (match cfg.lg_verify with
                | Some check -> if rs_sentinel = [||] || not (check rs_sentinel) then incr client_rejected
                | None -> ())
            | Ok { Serial.rs_result = Error (err, _); _ } | Error (err, _) ->
                (match err with Herr.Integrity_violation _ -> incr integrity_errors | _ -> ());
                let name = Herr.error_name err in
                Hashtbl.replace errors name (1 + Option.value ~default:0 (Hashtbl.find_opt errors name)));
        Atomic.incr completions;
        maybe_kill ();
        pull ()
      end
    in
    pull ()
  in
  let t0 = Wire.now () in
  let threads = List.init cfg.lg_concurrency (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let wall = Wire.now () -. t0 in
  {
    r_total = cfg.lg_total;
    r_ok = !ok;
    r_degraded = !degraded;
    r_errors = List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) errors []);
    r_faults_injected = !faults;
    r_wire_attempts = !attempts;
    r_latencies_ms = latencies;
    r_wall_s = wall;
    r_kills_sent = Atomic.get kills_sent;
    r_verified = !verified;
    r_client_rejected = !client_rejected;
    r_integrity_errors = !integrity_errors;
    r_min_margin_bits = !min_margin;
  }

(* Nearest-rank percentile on a sorted copy. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
  end

let to_json r : Jsonx.t =
  Jsonx.Obj
    [
      ("requests", Jsonx.Num (float_of_int r.r_total));
      ("ok", Jsonx.Num (float_of_int r.r_ok));
      ("degraded", Jsonx.Num (float_of_int r.r_degraded));
      ( "errors",
        Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Num (float_of_int v))) r.r_errors) );
      ("faults_injected", Jsonx.Num (float_of_int r.r_faults_injected));
      ("wire_attempts", Jsonx.Num (float_of_int r.r_wire_attempts));
      ("kills_sent", Jsonx.Num (float_of_int r.r_kills_sent));
      ("verified", Jsonx.Num (float_of_int r.r_verified));
      ("client_rejected", Jsonx.Num (float_of_int r.r_client_rejected));
      ("integrity_errors", Jsonx.Num (float_of_int r.r_integrity_errors));
      ( "min_margin_bits",
        if Float.is_nan r.r_min_margin_bits then Jsonx.Null else Jsonx.Num r.r_min_margin_bits );
      ("wall_s", Jsonx.Num r.r_wall_s);
      ("requests_per_s", Jsonx.Num (float_of_int r.r_total /. Float.max 1e-9 r.r_wall_s));
      ("p50_ms", Jsonx.Num (percentile r.r_latencies_ms 50.0));
      ("p95_ms", Jsonx.Num (percentile r.r_latencies_ms 95.0));
      ("p99_ms", Jsonx.Num (percentile r.r_latencies_ms 99.0));
    ]

let write_bench ~path r = Jsonx.to_file path (Jsonx.Obj [ ("loadgen", to_json r) ])

let pp fmt r =
  Format.fprintf fmt "loadgen: %d requests, %d ok (%d degraded), %d faults injected, %d attempts@."
    r.r_total r.r_ok r.r_degraded r.r_faults_injected r.r_wire_attempts;
  if r.r_verified > 0 || r.r_integrity_errors > 0 || r.r_client_rejected > 0 then
    Format.fprintf fmt
      "  integrity: %d verified, %d client-rejected, %d typed violations, min margin %.2f bits@."
      r.r_verified r.r_client_rejected r.r_integrity_errors r.r_min_margin_bits;
  List.iter (fun (k, v) -> Format.fprintf fmt "  error %-20s %d@." k v) r.r_errors;
  Format.fprintf fmt "  wall %.2fs  %.1f req/s  p50 %.1fms  p95 %.1fms  p99 %.1fms@." r.r_wall_s
    (float_of_int r.r_total /. Float.max 1e-9 r.r_wall_s)
    (percentile r.r_latencies_ms 50.0) (percentile r.r_latencies_ms 95.0)
    (percentile r.r_latencies_ms 99.0)

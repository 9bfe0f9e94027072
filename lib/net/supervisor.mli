(** Shard supervisor: fork N workers, watch them, restart them, route around
    them (DESIGN.md §12).

    The supervisor owns no FHE state. Each worker process rebuilds its
    deployment from the durable store bundle (warm restart, DESIGN.md §11),
    which is what makes SIGKILL survivable: the supervisor notices death
    (waitpid for crashes, health pings for hangs), restarts with capped
    exponential backoff, and keeps the front door honest while a shard is
    down. When nothing is routable the client gets a typed [Overloaded],
    never a hang.

    Routing is one coordinator per request. Each leg forwards to a shard on
    its own thread, through that shard's circuit breaker, and one function
    decides what the shard's reply means: an answer (returned; every other
    leg in flight is cancelled with a CNCL frame), a cancellation (final
    once no started leg can still answer), or a failover (shed, damaged,
    sentinel-rejected or lost in transport). When every leg started has
    failed over, the next leg goes to a routable shard this request has not
    used. A hedge (DESIGN.md §13) is that failover started early: with
    [sup_hedge_delay_s > 0], a second leg starts once the delay has passed
    with the first leg still silent. Each leg is bounded by
    [sup_forward_deadline_s], connect included.

    The front door is an {!Endpoint} with the shard's default limits
    ({!Endpoint.default_limits}), so its transport behaves like a shard's:
    the same idle timeout and per-frame budget, the same typed goodbye on a
    stalled or truncated frame, and every open connection shut at {!stop}.
    Its handlers route REQ1s, relay CNCL frames to every live shard and
    answer the HLTH control frames.

    Result integrity (DESIGN.md §16): a forwarded answer rejected by the
    shard's own sentinel lane is never the system's answer — the request
    fails over to another shard, and the offender goes under suspicion.
    Suspect shards are unroutable; the health loop sends them a
    [Health_selftest] probe, and a shard whose probe does not verify is
    quarantined (SIGKILL into the ordinary backoff-restart machinery, so a
    persistent corrupter decays to the capped restart cadence instead of
    flapping). Counted by [chet_integrity_failures_total] and
    [chet_shard_quarantines_total]. *)

(** Handle on one spawned worker process (or a fake in tests). *)
type spawned = {
  sp_pid : int;
  sp_kill : int -> unit;  (** deliver this signal *)
  sp_poll : unit -> Unix.process_status option;  (** [None] while running *)
}

type spawn = shard:int -> addr:Wire.addr -> spawned

val exec_spawn : argv_for:(shard:int -> addr:Wire.addr -> string array) -> spawn
(** The production spawn: fork/exec this very binary as [chet shard-worker].
    [argv_for] closes over model/state-dir/tuning flags at the CLI layer. *)

type config = {
  sup_shards : int;
  sup_shard_addr : int -> Wire.addr;
  sup_front_addr : Wire.addr;  (** REQ1 proxy + HLTH control socket *)
  sup_backoff_base_ms : float;
  sup_backoff_cap_ms : float;
  sup_health_interval_s : float;  (** ping cadence; also the monitor tick *)
  sup_ping_deadline_s : float;
  sup_hang_pings : int;  (** consecutive failed pings before SIGKILL *)
  sup_forward_deadline_s : float;
      (** transport budget per leg: connect, send and receive *)
  sup_breaker_threshold : int;
  sup_breaker_cooldown_s : float;
  sup_hedge_delay_s : float;
      (** hedged requests (DESIGN.md §13): if the first leg has not
          answered within this delay, start the failover leg early on
          another breaker-healthy shard — first acceptable answer wins, the
          other leg is cancelled with a CNCL frame. [<= 0] disables
          hedging: a second leg then starts only when the first has failed. *)
}

val default_config :
  shards:int -> shard_addr:(int -> Wire.addr) -> front_addr:Wire.addr -> config

type t

val start : spawn:spawn -> config -> t
(** Spawn every shard, open the front door, and start the monitor and
    accept threads.
    @raise Invalid_argument when [sup_shards < 1]. *)

val await_ready : t -> ?n:int -> timeout_s:float -> unit -> bool
(** Block until at least [n] shards (default: all) answer pings, or
    [timeout_s] elapses. *)

val metrics_snapshot : t -> string
(** Prometheus-style exposition of the supervisor's counters, including
    [chet_integrity_failures_total] and [chet_shard_quarantines_total]. *)

val stop : t -> unit
(** Close the front door and its open connections, stop monitoring, then
    SIGTERM each worker, giving a graceful drain a moment before insisting
    with SIGKILL. *)

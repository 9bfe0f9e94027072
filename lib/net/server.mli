(** Shard server: the socket front of one [Chet_serve.Service] (DESIGN.md §12).

    The transport is the shared {!Endpoint}: thread-per-connection, typed
    [Corrupt_frame] answers for unparseable frames and unknown tags, a typed
    goodbye on a transport fault, every connection shut at {!stop}. This
    module supplies the handlers. A REQ1 is submitted to the service and
    awaited. A CNCL frame trips the cancel token of an in-flight request by
    id, and HLTH frames answer pings and selftest probes. Duplicate REQ1 ids
    are answered bit-identically from a bounded dedupe cache
    (DESIGN.md §13), so client retries and supervisor hedges are idempotent.

    Over [srv_max_inflight] admitted-but-unanswered requests, or with the
    service draining, the answer is a typed [Overloaded] RSP1, not a dropped
    connection. *)

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
      (** how long a connection may sit quiet {e between} frames before the
          server closes it — a benign hang-up, not a fault *)
  srv_write_deadline_s : float;
  srv_dedup_cap : int;
      (** entries in the request-id dedupe cache; [0] disables caching *)
}

val default_config : ?shard:int -> Wire.addr -> config

type stats = {
  srv_accepted : int;  (** connections accepted *)
  srv_served : int;  (** RSP1 answers carrying [Ok] *)
  srv_rejected : int;  (** RSP1 answers carrying a typed error *)
  srv_corrupt : int;  (** of those, [Corrupt_frame] rejections *)
  srv_dedup_hits : int;  (** REQ1s answered bit-identically from the dedupe cache *)
  srv_cancelled : int;  (** CNCL frames that found their request in flight *)
}

type t

val start : ?selftest:(unit -> (float, string) result) -> config -> Chet_serve.Service.t -> t
(** Bind, listen, and serve until {!stop}. HLTH pings are acked; the
    supervisor-only frames are declined with [ha_ok = false].
    [selftest] is the sentinel-only probe inference of DESIGN.md §16 —
    [Ok margin_bits] when the shard's own lane verifies, [Error detail] when
    it does not; it answers [Health_selftest] frames. When absent, selftest
    probes are answered [ha_ok = false] ("no sentinel deployment") — the
    supervisor treats that as non-exonerating. *)

val stats : t -> stats

val stop : t -> unit
(** Stop accepting, close the listen socket and every tracked connection,
    and join the accept thread. Idempotent in effect. *)

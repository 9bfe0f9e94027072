(** Circuit breaker (DESIGN.md §12).

    The supervisor keeps one per shard. [threshold] consecutive
    failures trip it [Open]; after [cooldown] seconds it half-opens and
    admits one probe request — a probe success closes it, a probe failure
    re-opens it. Thread-safe; the clock is
    injected so tests can drive the state machine without sleeping. *)

type state = Closed | Open | Half_open

val state_name : state -> string

type t

val create : ?threshold:int -> ?cooldown:float -> ?now:(unit -> float) -> unit -> t
(** Defaults: [threshold = 3], [cooldown = 30.0], monotonic clock.
    @raise Invalid_argument if [threshold < 1]. *)

val state : t -> state
val trip_count : t -> int
(** Lifetime count of Closed/Half_open → Open transitions. *)

val allow : t -> bool
(** May this request use the guarded deployment? Also performs the
    Open → Half_open transition once the cooldown has elapsed; that
    admission {e is} the probe, and further [allow] calls are refused until
    it resolves or releases its slot. *)

val release : t -> unit
(** Return an admitted probe's slot without a verdict (deadline fired or
    caller abandoned the request before any attempt concluded). *)

val record_success : t -> unit
val record_failure : t -> unit

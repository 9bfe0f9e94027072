(** Per-deployment circuit breaker (DESIGN.md §9).

    Each rung of the degradation ladder owns one. [threshold] consecutive
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

(** {1 Persistence (DESIGN.md §11)}

    Clock-free snapshot: [Open] carries its {e remaining} cooldown, not an
    absolute timestamp, because the monotonic clock restarts with the
    process. A [Half_open] snapshot restores as [Open] with the cooldown
    already elapsed (its in-flight probe died with the old process). *)

type snapshot = {
  sn_state : state;
  sn_consecutive_failures : int;
  sn_trips : int;
  sn_cooldown_remaining : float;  (** seconds left before probing; 0 unless [Open] *)
}

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

(** Fault-injecting load generator for the networked serving stack.

    Drives [lg_total] REQ1 requests at [lg_concurrency] from client threads
    against one address (a shard directly, or the supervisor front door),
    optionally mangling every k-th request on the wire and optionally asking
    the supervisor to SIGKILL a shard mid-run — the chaos drill of
    DESIGN.md §12's failure matrix. The assertion the numbers back up:
    every request gets an answer (an [Ok] tensor or a typed error), zero
    hangs, and the percentile spread shows what the retries cost.

    With [lg_verify] set, the drill extends to result integrity
    (DESIGN.md §16): every ok answer's sentinel lane is re-verified
    client-side, independent of the shard's own claim.

    Deterministic apart from scheduling: request images, seeds and fault
    choices all derive from [lg_seed]; latencies are wall-clock. *)

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

val default_config : addr:Wire.addr -> shape:int array -> config

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

val run : config -> results
(** Run the drill to completion.
    @raise Invalid_argument on a non-positive total or concurrency. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100]; nearest-rank on a sorted copy;
    [nan] on empty input. *)

val to_json : results -> Chet_obs.Jsonx.t

val write_bench : path:string -> results -> unit
(** Write [{"loadgen": to_json r}] to [path], replacing any file there
    ([chet loadgen --bench-out]). *)

val pp : Format.formatter -> results -> unit

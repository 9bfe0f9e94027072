(* Circuit breaker (DESIGN.md §12).

   The supervisor keeps one per shard. It records a *failure* when the
   shard's transport fails, it refuses a request, its sentinel lane rejects
   its answer or its process dies, and a *success* when it answers (a typed
   FHE error is an answer too). After [threshold] consecutive failures the breaker trips
   [Open]: the shard is skipped entirely — no point spending the request's
   deadline on a shard that keeps failing. After [cooldown] seconds the
   breaker half-opens and admits one probe request; a probe success closes
   it again, a probe failure re-opens it for another cooldown.

   The clock is injected so tests can drive the state machine without
   sleeping. Thread-safe: the supervisor consults breakers from many
   threads. *)

type state = Closed | Open | Half_open

type t = {
  mutex : Mutex.t;
  threshold : int;  (** consecutive failures that trip the breaker *)
  cooldown : float;  (** seconds [Open] before probing again *)
  now : unit -> float;
  mutable st : state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable probing : bool;  (** the one [Half_open] probe is outstanding *)
  mutable trips : int;  (** lifetime Closed/Half_open -> Open transitions *)
}

(* Default clock is monotonic (Chet_obs.Clock): a wall-clock step (NTP slew,
   manual adjustment) must not spuriously hold a breaker open or snap it
   half-open early. Tests still inject their own [now]. *)
let create ?(threshold = 3) ?(cooldown = 30.0) ?(now = Chet_obs.Clock.now_s) () =
  if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
  {
    mutex = Mutex.create ();
    threshold;
    cooldown;
    now;
    st = Closed;
    consecutive_failures = 0;
    opened_at = neg_infinity;
    probing = false;
    trips = 0;
  }

let with_lock b f =
  Mutex.lock b.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock b.mutex) f

let state b = with_lock b (fun () -> b.st)
let trip_count b = with_lock b (fun () -> b.trips)

let trip b =
  b.st <- Open;
  b.opened_at <- b.now ();
  b.probing <- false;
  b.trips <- b.trips + 1

(* May this request use the guarded shard? Also the place where an
   [Open] breaker past its cooldown transitions to [Half_open]: admission is
   the only event that needs to observe the timeout.

   Exactly-one-probe invariant: while [Half_open], at most one admission
   may be outstanding at any instant — the Open->Half_open transition *is*
   that admission, and every further [allow] is refused until the probe
   resolves ([record_success], [record_failure]) or hands its slot back
   ([release]). Concurrent callers race on the mutex, never on the state:
   whichever domain takes the transition gets the probe, the loser observes
   [Half_open] with the probe out. test/test_net.ml hammers this from 2 domains. *)
let allow b =
  with_lock b (fun () ->
      match b.st with
      | Closed -> true
      | Open when b.now () -. b.opened_at >= b.cooldown ->
          b.st <- Half_open;
          b.probing <- true;
          true
      | Open -> false
      | Half_open when not b.probing ->
          b.probing <- true;
          true
      | Half_open -> false)

(* An admitted probe that reaches no verdict — its request's deadline fired
   (or the caller abandoned it) before any attempt produced a success or
   failure — must return its slot, or the breaker would sit [Half_open] with
   a phantom probe forever and the shard could never be probed again. *)
let release b =
  with_lock b (fun () ->
      match b.st with
      | Half_open -> b.probing <- false
      | Open | Closed -> ())

let record_success b =
  with_lock b (fun () ->
      b.consecutive_failures <- 0;
      match b.st with
      | Half_open | Open ->
          (* a probe (or straggler from before the trip) came back healthy *)
          b.st <- Closed;
          b.probing <- false
      | Closed -> ())

let record_failure b =
  with_lock b (fun () ->
      match b.st with
      | Half_open -> trip b (* failed probe: back to cooldown *)
      | Open -> () (* straggler failure while already open *)
      | Closed ->
          b.consecutive_failures <- b.consecutive_failures + 1;
          if b.consecutive_failures >= b.threshold then trip b)

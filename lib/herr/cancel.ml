(* Cooperative cancellation token (DESIGN.md §13).

   One token per request, created by the serving layer and threaded through
   the pool into the plan executor, which polls it at every step boundary
   — the granularity at which per-step spans already hook. FHE ops are
   expensive enough (tens of ms to seconds each, CHET Table 1) that
   step-boundary polling frees a worker within one step instead of one full
   encrypted inference, while costing one atomic load per step when the
   token is armed.

   The token is seeded-clock-friendly: it carries an optional absolute
   deadline *on an injected clock* ([now] is a closure, monotonic in
   production, manual in tests), so deadline expiry trips it without any
   watcher thread. Explicit trips ([trip]) carry a typed reason; the first
   trip wins and later trips are ignored, so the reason a worker observes is
   the reason the request actually died of.

   This module lives next to [Herr] in the dependency-free error library:
   the executor (above the HISA) and the serving/net layers (above the
   executor) must share one token type without a dependency cycle. *)

type reason =
  | Deadline  (** the request's latency budget ran out *)
  | Abandoned  (** the caller stopped waiting for the result *)
  | Superseded  (** a hedge sibling already produced the answer *)
  | Requested of string  (** explicit client cancel, e.g. a CNCL frame *)

let reason_label = function
  | Deadline -> "deadline"
  | Abandoned -> "abandoned"
  | Superseded -> "superseded"
  | Requested r -> if r = "" then "requested" else r

type t = {
  tripped : reason option Atomic.t;
  deadline : float option;  (** absolute seconds on [now]'s clock *)
  now : unit -> float;
}

let make ?deadline ?(now = fun () -> 0.0) () = { tripped = Atomic.make None; deadline; now }

(* A token that can never trip — for callers that want the cancellable code
   path without cancellation (ablation runs, the compiler's analysis
   executions). *)
let never () = make ()

(* First trip wins: a request that was explicitly cancelled and *then* blew
   its deadline reports the cancel, not the deadline. *)
let trip t reason = ignore (Atomic.compare_and_set t.tripped None (Some reason))

let status t =
  match Atomic.get t.tripped with
  | Some _ as r -> r
  | None -> (
      match t.deadline with
      | Some d when t.now () >= d ->
          (* latch, so the reported reason stays stable even if an explicit
             trip races in afterwards *)
          trip t Deadline;
          Atomic.get t.tripped
      | _ -> None)

let tripped t = status t <> None

(* The executor's per-step poll: raise the typed taxonomy error carrying the
   node at which the worker noticed the trip. *)
let check ?(backend = "executor") ?layer ~node_id t =
  match status t with
  | None -> ()
  | Some r ->
      Herr.raise_err ~backend ~node_id ?layer ~op:"cancel"
        (Herr.Cancelled { node_id = Some node_id; reason = reason_label r })

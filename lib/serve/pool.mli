(** OCaml 5 domain worker pool over a bounded {!Queue} (DESIGN.md §9).

    Each worker is one [Domain.t] looping pop → run. Jobs must not let
    exceptions escape; if one does anyway the worker catches it, reports it
    through [on_crash], and keeps serving. Workers exit when the queue is
    closed and drained.

    Distinct from {!Chet_crypto.Kpool}: this pool runs whole inference jobs
    (coarse, queue-fed, long-lived); Kpool fans the residue channels of a
    single ring operation across domains. A Kpool-parallel kernel running
    {e inside} a Pool job composes without oversubscription because Kpool
    falls back to sequential execution on nested entry. *)

type job = worker:int -> unit

type t

val create : ?on_crash:(worker:int -> exn -> unit) -> domains:int -> job Queue.t -> t
(** Spawn [domains] workers consuming from the queue.
    @raise Invalid_argument if [domains < 1]. *)

val shutdown : t -> unit
(** Close the queue, drain what is left, join every domain. Idempotent. *)

(* OCaml 5 domain worker pool over a bounded {!Queue} (DESIGN.md §9).

   Each worker is one [Domain.t] looping [Queue.pop -> job]. A job is a
   closure that must *not* let exceptions escape (the service converts every
   failure into a typed outcome before the job returns); if one escapes
   anyway — a bug in a backend, not a typed FHE failure — the worker catches
   it, reports it through [on_crash], and keeps serving. Workers only exit
   when the queue is closed and drained.

   Nothing here knows about inference: the pool moves [worker:int -> unit]
   thunks so tests can drive it with plain closures. The worker id is passed
   through so jobs can use worker-private resources (e.g. a per-domain
   backend instance). *)

type job = worker:int -> unit

type t = { queue : job Queue.t; domains : unit Domain.t array }

let worker_loop queue on_crash id =
  let rec loop () =
    match Queue.pop queue with
    | None -> () (* closed and drained: clean exit *)
    | Some job ->
        (try job ~worker:id
         with exn ->
           (* never let a job take the worker down with it *)
           (try on_crash ~worker:id exn with _ -> ()));
        loop ()
  in
  loop ()

let create ?(on_crash = fun ~worker:_ _ -> ()) ~domains queue =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let spawn id = Domain.spawn (fun () -> worker_loop queue on_crash id) in
  { queue; domains = Array.init domains spawn }

(* Graceful shutdown: stop admitting, drain what is queued, join every
   domain. Idempotent ([Domain.join] on a finished domain returns). *)
let shutdown pool =
  Queue.close pool.queue;
  Array.iter Domain.join pool.domains

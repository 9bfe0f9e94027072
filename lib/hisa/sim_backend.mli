(** Simulation backend: wraps another HISA backend and advances a latency
    clock per operation according to a cost model calibrated against the real
    scheme implementations. This is how "measured" latencies are produced for
    configurations too large to run through the real schemes here
    (DESIGN.md §2). *)

type clock = {
  mutable elapsed : float;  (** seconds of simulated latency *)
  mutable op_count : int;
  mutable rotate_elapsed : float;  (** rotation share (Figure 7 baseline) *)
  mutable rotate_count : int;
}

type config = {
  n : int;  (** ring dimension (slots = n/2) *)
  scheme : Hisa.scheme_kind;
  costs : Hisa.cost_model;
}

val make_over : Hisa.t -> config -> Hisa.t * clock
(** Wrap an arbitrary backend; each op is charged at the modulus status the
    backend's [env_of] reports for its operands. Only [costs] is read. *)

val make : config -> Hisa.t * clock
(** Over the value-free {!Shape_backend} (fast; default for benches). *)

val make_with_values : config -> Hisa.t * clock
(** Over {!Clear_backend}, when the simulated run's outputs matter. *)

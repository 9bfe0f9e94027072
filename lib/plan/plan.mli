(** Compiled execution plans (DESIGN.md §14).

    A plan is the ahead-of-time half of running a circuit: a topologically
    scheduled array of steps over a fixed ciphertext arena, with layout
    conversions made explicit, slot lifetimes precomputed (so live
    ciphertext memory is bounded by the arena high-water mark), and fusion
    opportunities counted. {!Plan_exec} stages and replays it against a
    HISA backend; it is the only executor, so deployments, the compiler's
    analyses and sentinel verification all run plans.

    The records are deliberately transparent: the executor, the serving
    layer and the tests all inspect (and the prepare pass mutates
    [p_stats] of) a plan directly. *)

module Circuit = Chet_nn.Circuit
module Layout = Chet_runtime.Layout

type op =
  | Op_node  (** run the circuit node's own kernel *)
  | Op_convert of Layout.kind  (** layout-convert the node's raw value *)

type step = {
  st_id : int;  (** position in the schedule *)
  st_node : Circuit.node;  (** circuit node this step computes (or converts) *)
  st_op : op;
  st_kind : Layout.kind;  (** layout kind of the result *)
  st_srcs : int array;  (** arena slots read *)
  st_dst : int;  (** arena slot written *)
  st_release : int array;  (** slots dead after this step (never contains [st_dst]) *)
  st_meta : Layout.meta;  (** static layout of the result *)
  st_last : bool;
      (** a dense step whose output no later dense layer reads, directly or
          through other layers: it may fold once over any input lattice
          ({!Chet_runtime.Kernels.dense_fold}'s [last]); false for every
          other step *)
}

type stats = {
  mutable fused_mul_rescale : int;
  mutable fused_rot_acc : int;
  mutable fused_mul_acc : int;
}

type t = {
  p_circuit : Circuit.t;
  p_policy : Layout.layout_policy option;
      (** [None] for a plan built from an arbitrary per-node assignment *)
  p_slots : int;
  p_margin : int;
  p_twin : bool;  (** interleaved sentinel geometry (DESIGN.md §16) *)
  p_input_meta : Layout.meta;
  p_steps : step array;
  p_arena : int;  (** arena size = ciphertext-tensor high-water mark *)
  p_output : int;  (** arena slot holding the circuit output after the last step *)
  p_stats : stats;  (** fusion counts, filled in by [Plan_exec.prepare] *)
}

val build :
  ?margin:int -> ?twin:bool -> slots:int -> policy:Layout.layout_policy -> Circuit.t -> t
(** Schedule the circuit under the given layout policy: one step per node
    in topological order, conversion steps emitted on demand before their
    first consumer and shared by later ones, then arena slots assigned by
    a liveness pass. [margin] defaults to {!Layout.required_margin};
    [twin] (default false) lays every tensor out on the interleaved
    sentinel geometry. *)

val build_assigned :
  ?margin:int -> ?twin:bool -> slots:int -> kind_of:(Circuit.node -> Layout.kind) -> Circuit.t -> t
(** {!build} from an arbitrary per-node layout assignment instead of one of
    the four policies (the exhaustive layout-search ablation). *)

val validate : t -> (unit, string) result
(** Structural soundness: schedule order, slot bounds, no read of a dead
    or released slot, output alive at the end. *)

val summary : t -> string

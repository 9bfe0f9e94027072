(** Tensor circuits: the DAG of tensor operations CHET compiles (§2.6, §3.2).
    Circuits are built with the smart constructors below; the input schema
    (shape, encrypted flag, fixed-point scale) comes with the input node, as
    in Figure 2. *)

module Tensor = Chet_tensor.Tensor

type node = { id : int; op : op; shape : int array (* inferred output shape *) }

and op =
  | Input of { name : string; encrypted : bool }
  | Conv2d of {
      input : node;
      weights : Tensor.t;
      bias : float array option;
      stride : int;
      padding : Tensor.padding;
    }
  | MatMul of { input : node; weights : Tensor.t; bias : float array option }
  | AvgPool of { input : node; ksize : int; stride : int }
  | GlobalAvgPool of node
  | PolyAct of { input : node; a : float; b : float }  (** [a·x² + b·x] *)
  | Square of node
  | BatchNorm of { input : node; scale : float array; shift : float array }
  | Flatten of node

type t = {
  name : string;
  input : node;
  output : node;
  node_count : int;
}

(** {1 Builders} — shapes are checked at construction *)

type builder

val builder : unit -> builder
val input : builder -> name:string -> ?encrypted:bool -> int array -> node

val conv2d :
  builder -> node -> weights:Tensor.t -> ?bias:float array -> stride:int -> padding:Tensor.padding -> unit -> node

val matmul : builder -> node -> weights:Tensor.t -> ?bias:float array -> unit -> node
val avg_pool : builder -> node -> ksize:int -> stride:int -> node
val global_avg_pool : builder -> node -> node
val poly_act : builder -> node -> a:float -> b:float -> node
val square : builder -> node -> node
val batch_norm : builder -> node -> scale:float array -> shift:float array -> node
val flatten : builder -> node -> node
val finish : builder -> name:string -> output:node -> t

(** {1 Traversal} *)

val topo_order : t -> node list
(** Topological order, inputs first, each node exactly once. *)

val layer_counts : t -> int * int * int
(** [(convolutions, fully-connected, activations)] — the layer statistics of
    Table 3. *)

val multiplicative_depth : t -> int
(** Ciphertext multiplicative depth of the circuit, counting plaintext
    (weight and mask-free) multiplies as depth 1 each; activations using [x²]
    add ciphertext–ciphertext depth. *)

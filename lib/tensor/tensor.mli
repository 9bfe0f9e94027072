(** Dense float tensors and the neural-network operations CHET's tensor
    circuits use. This is the unencrypted reference engine: the homomorphic
    kernels in [lib/runtime] are tested against these semantics, and the
    profile-guided scale selection compares encrypted output against it.

    Layout convention: images are [\[channels; height; width\]] (batch size 1
    throughout, as in the paper's latency experiments). *)

type t = { shape : int array; data : float array }

val create : int array -> t
val of_array : int array -> float array -> t
val numel : t -> int
val numel_of_shape : int array -> int
val copy : t -> t
val get : t -> int array -> float
val set : t -> int array -> float -> unit
val get3 : t -> int -> int -> int -> float
val set3 : t -> int -> int -> int -> float -> unit
val map : (float -> float) -> t -> t
val equal_shape : t -> t -> bool
val max_abs_diff : t -> t -> float
val max_abs : t -> float
val pp : Format.formatter -> t -> unit

type padding = Same | Valid

val conv2d : input:t -> weights:t -> ?bias:float array -> stride:int -> padding:padding -> unit -> t
(** [input]: [\[cin; h; w\]]; [weights]: [\[cout; cin; kh; kw\]]; [bias] one
    per output channel. [Same] zero-pads so that stride 1 preserves [h; w];
    kernel sides must be odd for [Same]. *)

val conv_output_dim : int -> int -> int -> padding -> int
(** [conv_output_dim size k stride padding]. *)

val matmul_vec : weights:t -> ?bias:float array -> t -> t
(** [weights]: [\[out_dim; in_dim\]]; input is flattened first. *)

val avg_pool2d : input:t -> ksize:int -> stride:int -> t
val global_avg_pool : t -> t
(** [\[c; h; w\] -> \[c; 1; 1\]]. *)

val poly_act : a:float -> b:float -> t -> t
(** The paper's HE-compatible activation [f(x) = a·x² + b·x]. *)

val square : t -> t
val batch_norm : scale:float array -> shift:float array -> t -> t
(** Per-channel affine (folded inference-time batch norm). *)

val flatten : t -> t
val concat_channels : t list -> t
val argmax : t -> int

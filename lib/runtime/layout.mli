(** Physical layouts of encrypted tensors (§4.2): how a logical
    [\[c; h; w\]] tensor maps onto a vector of ciphertexts, each a flat
    vector of [slots] values.

    - [HW]: one channel per ciphertext, row-major with inter-row gaps
      (margin) so that convolution rotations read zeros across borders.
    - [CHW]: several channels per ciphertext, each in its own block.

    Strides are explicit so that striding operations (pool / strided conv)
    are metadata updates: outputs live at dilated positions and later
    operations simply use larger [col_stride]/[row_stride] (§4.2's "CHET
    avoids or delays these expensive operations").

    Invariant maintained by the kernels: every slot that is not a valid
    logical position holds zero.

    Sentinel twin layouts ([twin = true], DESIGN.md §16) interleave: logical
    position [s] lives at physical slot [2s] and slot [2s+1] carries a
    sentinel copy of the same position (a known probe input packed at
    encrypt time). All strides and offsets are doubled, so every rotation
    amount a kernel derives from the meta is even — and even rotations
    preserve slot parity even across wrap-around, which isolates the
    primary (even) and sentinel (odd) computations unconditionally. *)

type kind = HW | CHW

type meta = {
  kind : kind;
  channels : int;
  height : int;
  width : int;
  offset : int;  (** physical slot of logical [(c mod ch_per_ct = 0, 0, 0)] *)
  col_stride : int;
  row_stride : int;
  ch_stride : int;  (** slots between channel blocks within a ciphertext *)
  ch_per_ct : int;  (** always a power of two (or 1) *)
  slots : int;
  twin : bool;  (** odd slots carry the interleaved sentinel copy *)
}

val create :
  kind:kind -> slots:int -> channels:int -> height:int -> width:int -> ?margin:int ->
  ?twin:bool -> unit -> meta
(** [margin] (default 2) is the border head-room in logical pixels on every
    side — it must be at least [⌊k/2⌋] for the largest Same-padding
    convolution applied to this tensor. [twin] (default false) interleaves
    sentinel slots (doubling the physical footprint).
    @raise Chet_herr.Herr.Fhe_error
      ([Slot_overflow]) if the tensor does not fit in [slots]. *)

val spread_of : bool -> int
(** Physical slots per logical position: 2 on twin layouts, else 1. *)

val vector_meta : slots:int -> length:int -> ?twin:bool -> unit -> meta
(** Dense vector layout (used for fully-connected outputs): [length]
    channels of 1×1, packed contiguously. *)

val num_cts : meta -> int
val ct_index : meta -> int -> int
(** Ciphertext holding a given logical channel. *)

val slot_of : meta -> c:int -> h:int -> w:int -> int
(** Physical slot (within its ciphertext) of a logical position. *)

val flat_index : meta -> c:int -> h:int -> w:int -> int
(** Row-major logical index, as [Flatten] would produce. *)

val iter_positions : meta -> (int -> int -> int -> unit) -> unit
(** Visit every logical [(c, h, w)] position. *)

val pack : ?probe:Chet_tensor.Tensor.t -> meta -> Chet_tensor.Tensor.t -> float array array
(** Lay a cleartext tensor out physically — the Encryptor side. [probe]
    (twin layouts only) is the sentinel tensor packed into the odd slots.
    @raise Chet_herr.Herr.Fhe_error
      ([Invalid_op]) if a probe is supplied without twin slots. *)

val unpack : meta -> float array array -> Chet_tensor.Tensor.t
(** Inverse of {!pack} — the Decryptor side. *)

val unpack_twin : meta -> float array array -> Chet_tensor.Tensor.t
(** The sentinel tensor the odd (twin) slots carry — what the integrity
    check compares against the clear reference prediction.
    @raise Chet_herr.Herr.Fhe_error ([Invalid_op]) without twin slots. *)

val plains : meta -> (int -> int -> int -> float) -> float array array
(** [plains meta f]: per-ciphertext plaintext vectors with [f c h w] at each
    valid position and zero elsewhere (masks, per-channel weights, biases). *)

val plain_ct : meta -> int -> (int -> int -> int -> float) -> float array
(** [plain_ct meta j f]: the single vector [plains meta f].(j) without
    building the others (the kernels' hot path at large ring dimensions). *)

val valid_mask : meta -> float array array
(** {!plains} with the constant 1. *)

val with_spatial : meta -> height:int -> width:int -> meta
(** Same physical geometry, smaller logical extent (Valid convolutions). *)

val after_stride : meta -> int -> meta
(** Dilate by a stride factor: positions [(s·i, s·j)] become the new logical
    grid (pooling and strided convolutions). *)

val with_channels : meta -> int -> meta
(** Same geometry, different channel count (convolution outputs). *)

val converted : meta -> to_kind:kind -> meta
(** The meta a {!Kernels.Make.convert} to [to_kind] produces, without
    touching ciphertexts — the plan compiler's static view of layout
    conversion. Identity when the kind already matches. *)

val max_extent : meta -> int
(** Largest physical slot index any valid logical position occupies. *)

val max_rotation_safe : meta -> int -> bool
(** Whether reading a tap at physical distance [d] can neither fall off the
    vector nor wrap into occupied slots. *)

val pp : Format.formatter -> meta -> unit

(** {1 Layout policies (§5.3)}

    Which layout kind every circuit node's output takes. Plans
    ({!Chet_plan.Plan}) are scheduled from an assignment computed here. *)

(** The four pruned layout policies of §5.3. *)
type layout_policy = All_hw | All_chw | Hw_conv_chw_rest | Chw_fc_hw_before

val policy_name : layout_policy -> string
val all_policies : layout_policy list

val assign : layout_policy -> Chet_nn.Circuit.t -> Chet_nn.Circuit.node -> kind
(** The layout kind of every node's output under a policy.
    @raise Chet_herr.Herr.Fhe_error
      ([Missing_node]) for a node outside the circuit the assignment was
      built for. *)

val required_margin : Chet_nn.Circuit.t -> int
(** Border head-room (in input-image pixels) the circuit's Same
    convolutions need, their radius scaled by the stride accumulated before
    them. *)

val op_name : Chet_nn.Circuit.node -> string
(** Human description of a node for error context ("which layer broke"). *)

(** Unencrypted reference evaluation of tensor circuits — "CHET's unencrypted
    reference inference engine" that the paper compares latencies against and
    that the profile-guided scale selection (§5.5) uses as ground truth. *)

module Tensor = Chet_tensor.Tensor

val eval : Circuit.t -> Tensor.t -> Tensor.t
(** [eval circuit image]: run the circuit on a cleartext input. *)

val max_intermediate_abs : Circuit.t -> Tensor.t -> float
(** Largest absolute value appearing at any node — the quantity that must
    stay clear of the modulus for correctness. *)

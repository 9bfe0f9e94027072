(** Executes a {!Plan.t} against a HISA backend (DESIGN.md §14) — the only
    executor. Deployments run it over real scheme backends; the compiler's
    analyses and the scale search run it over their analysis backends
    (§5.1).

    [prepare] is the expensive, per-deployment half: it stages one closure
    per step through the prepare-once kernels of
    {!Chet_runtime.Kernels.Make}, encoding weight and mask plaintexts up
    front under a plaintext budget. [run_encrypted] replays the closures
    over a fixed ciphertext arena, releasing dead slots immediately.
    test/test_golden.ml pins the outputs bit for bit. *)

module Cancel = Chet_hisa.Cancel
module Kernels = Chet_runtime.Kernels

type sentinel = {
  sn_probe : Chet_tensor.Tensor.t;  (** known input packed into the twin slots *)
  sn_verify : Chet_tensor.Tensor.t -> unit;
      (** receives the decrypted twin output; raises a typed
          [Herr.Integrity_violation] to reject the answer *)
}
(** Sentinel threading (DESIGN.md §16); {!Chet.Integrity.sentinel} builds
    one from a spec. Requires a twin plan. *)

type runner =
  ?cancel:Cancel.t -> ?sentinel:sentinel -> Chet_tensor.Tensor.t -> Chet_tensor.Tensor.t
(** A prepared plan over a fixed backend, as a full-roundtrip closure. *)

module Make (H : Chet_hisa.Hisa.S) : sig
  module K : module type of Kernels.Make (H)

  type prepared
  (** A plan with its staged per-step closures and encoded plaintexts. *)

  val plan : prepared -> Plan.t

  val prepare : ?pt_budget:int -> Kernels.scales -> Plan.t -> prepared
  (** Validates the plan, checks the backend's slot count, stages every
      step, and overwrites the plan's [p_stats] fusion counts (static per
      plan, so repeated prepares — one per worker — are idempotent).
      [pt_budget] (default 2048) bounds how many weight/mask plaintexts
      stay encoded; beyond it, kernels encode per inference. *)

  val run_encrypted : ?cancel:Cancel.t -> prepared -> K.ct_tensor -> K.ct_tensor
  (** Replay the staged closures; checks [cancel] between steps and emits
      one tracer span per step when tracing is on. The input must be
      encrypted at the plan's [p_input_meta]. *)

  val run :
    ?cancel:Cancel.t -> ?sentinel:sentinel -> prepared -> Chet_tensor.Tensor.t ->
    Chet_tensor.Tensor.t
  (** Full client–server roundtrip on a cleartext image: encrypt at the
      plan's input layout, execute, decrypt. With [sentinel] (twin plans
      only) the probe rides the odd slots and the decrypted twin output is
      verified before the primary answer is returned. *)

  val eval :
    ?sentinel:sentinel -> Kernels.scales -> Chet_nn.Circuit.t ->
    policy:Chet_runtime.Layout.layout_policy -> Chet_tensor.Tensor.t -> Chet_tensor.Tensor.t
  (** {!Plan.build} at the backend's slot count, {!prepare} and {!run} in
      one call, for one-off inferences. With [sentinel] the plan is built on
      the twin geometry. Plaintexts are encoded as they are used (budget
      0). *)
end

val prepare_runner : ?pt_budget:int -> Chet_hisa.Hisa.t -> Kernels.scales -> Plan.t -> runner
(** {!Make.prepare} over a first-class backend, returning {!Make.run}. *)

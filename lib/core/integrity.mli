(** Sentinel-slot result integrity (DESIGN.md §16): policy for the
    interleaved twin layouts of {!Chet_runtime.Layout} — probe generation,
    the clear-reference prediction, the precision tolerance, and the
    verdict. A sentinel mismatch surfaces as a typed
    [Chet_hisa.Herr.Integrity_violation]; the serving and networking layers
    turn that into same-request failover and shard quarantine. *)

module Tensor = Chet_tensor.Tensor
module Circuit = Chet_nn.Circuit

type spec = {
  it_probe : Tensor.t;  (** known input packed into the twin slots *)
  it_expected : Tensor.t;  (** [Reference.eval circuit it_probe], computed once *)
  it_tolerance : float;  (** max accepted |got - expected| per output *)
}

val default_tolerance : float
(** 0.05 — the same max-abs-deviation bar the compiled-deployment fidelity
    tests hold the real backends to. *)

val probe_for : ?seed:int -> Circuit.t -> Tensor.t
(** Deterministic probe image with the circuit's input schema. *)

val spec_for : ?seed:int -> ?tolerance:float -> Circuit.t -> spec
(** Build the deployment's sentinel spec: generate the probe and evaluate it
    through the clear reference model once. *)

val worst_deviation : spec -> Tensor.t -> int * float * float * float
(** [(flat index, expected, got, |diff|)] of the worst sentinel output; NaN
    deviations rank as infinite. *)

val margin_bits : spec -> Tensor.t -> float
(** Remaining precision headroom, [log2 (tolerance / worst deviation)],
    clamped to 60. Positive is clean; [<= 0] is a violation. *)

val verify : spec -> Tensor.t -> unit
(** @raise Chet_hisa.Herr.Fhe_error ([Integrity_violation]) if the decrypted
    twin output strays beyond the tolerance. *)

val sentinel : ?observe:(Tensor.t -> unit) -> spec -> Chet_plan.Plan_exec.sentinel
(** The executor-facing hook: pack the probe at encrypt time, verify the
    decrypted twin output, calling [observe] on it first (margin gauges,
    RSP1 sentinel forwarding). *)

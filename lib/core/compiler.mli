(** The CHET compiler (§5): given a tensor circuit and a target FHE scheme,
    select encryption parameters that are secure and correct (§5.2), the
    cheapest data layout under the scheme's cost model (§5.3), and the
    rotation keys the circuit actually uses (§5.4).

    Every pass executes the circuit's compiled plan — through the same
    {!Chet_plan.Plan_exec} deployments run — under a different
    interpretation of the HISA (§5.1): parameter selection observes modulus
    consumption through {!Chet_hisa.Shape_backend}, cost estimation runs
    {!Chet_hisa.Sim_backend} with the target's cost model, and rotation-key
    selection records rotations with {!Chet_hisa.Instrument}. *)

module Hisa = Chet_hisa.Hisa
module Circuit = Chet_nn.Circuit
module Kernels = Chet_runtime.Kernels
module Layout = Chet_runtime.Layout

type target = Seal | Heaan
type security = Standard of Chet_crypto.Security.level | Legacy_heaan

type options = {
  target : target;
  security : security;
  prime_bits : int;
      (** RNS chain prime size. The executable backend needs [<= 30] (every
          RNS prime is below [2^30]); {!keyset} and {!instantiate} raise a
          typed [Invalid_op] for more. Larger values, such as 60 to mirror
          SEAL's shipped list, serve parameter analysis
          ({!select_params}) only. *)
  value_headroom_bits : int;  (** extra modulus bits above the output scale, covering message magnitude *)
  scales : Kernels.scales;
  cost : Hisa.cost_model option;  (** default: the target's calibrated model *)
  max_n : int;  (** largest ring dimension to consider (default 65536) *)
  sentinel : bool;
      (** compile for sentinel-slot integrity checking (DESIGN.md §16): the
          deployment executes on an interleaved twin layout (odd slots carry
          a known probe), so every analysis pass — parameter selection,
          cost, rotation keys — runs on that doubled geometry *)
}

val default_options : ?target:target -> unit -> options

type params_choice =
  | Rns_params of { n : int; prime_bits : int; num_primes : int; log_q : int }
      (** [log_q] includes both key-switching special primes: the whole key
          basis [Q·P] counts towards security *)
  | Pow2_params of { n : int; log_fresh : int; log_special : int }

val params_n : params_choice -> int
val params_log_q : params_choice -> int
val pp_params : Format.formatter -> params_choice -> unit

type policy_report = {
  pr_policy : Layout.layout_policy;
  pr_params : params_choice;
  pr_cost : float;  (** estimated seconds under the cost model *)
}

type compiled = {
  circuit : Circuit.t;
  opts : options;
  policy : Layout.layout_policy;
  params : params_choice;
  rotations : (int * int) list;  (** (left-rotation amount, use count) — the keys to generate *)
  op_counters : Chet_hisa.Instrument.counters;
  reports : policy_report list;  (** one per layout policy (Tables 5–6) *)
}

exception Compilation_failure of string

val scheme_of_params : options -> params_choice -> Hisa.scheme_kind
(** The virtual scheme an analysis backend should emulate for these
    parameters (used by the cost, rotation and scale-selection passes). *)

val select_params : options -> Circuit.t -> policy:Layout.layout_policy -> params_choice
(** §5.2 as a standalone pass (re-run per layout choice by {!compile}). *)

val estimate_cost : options -> Circuit.t -> policy:Layout.layout_policy -> params:params_choice -> float
(** §5.3's cost analysis for one layout choice. *)

val select_rotations :
  options -> Circuit.t -> policy:Layout.layout_policy -> params:params_choice ->
  (int * int) list * Chet_hisa.Instrument.counters
(** §5.4: distinct rotation amounts used (with use counts). *)

val compile : options -> Circuit.t -> compiled
(** The full pipeline: explore all four layout policies, pick the cheapest,
    fix parameters and rotation keys. *)

val pp_compiled : Format.formatter -> compiled -> unit

(** {1 Deployment}

    One key generation per deployment ({!keyset}): a real backend configured
    exactly as compiled — ring dimension, modulus chain, and only the
    selected rotation keys (or, with [Power_of_two_keys], the scheme-default
    power-of-two set instead — the Figure 7 baseline). Every backend a
    deployment runs on is a view over that keyset. *)

type rotation_key_policy = Selected_keys | Power_of_two_keys

type keyset = {
  ks_seed : int;  (** deployment seed: root of every request's randomness *)
  ks_view : Chet_crypto.Sampling.t -> Hisa.t;
      (** a cheap backend view over the shared (immutable, domain-safe)
          context and keys, drawing encryption randomness from the given
          sampler *)
  ks_scheme : Hisa.scheme_kind;
      (** the {e actual} scheme of the instantiated context (its real
          modulus chain / fresh logQ) — what {!Chet_hisa.Checked_backend.wrap}
          validates a view against. It differs from {!scheme_of_params}: the
          deployment reserves the two largest primes of the candidate chain
          as the key-switching special modulus. *)
  ks_key_bytes : int;
      (** residue bytes of the relinearisation and rotation keys the keyset
          holds ({!Chet_crypto.Rns_ckks.key_bytes}); 0 for HEAAN and
          cleartext keysets *)
}

val keyset :
  compiled -> seed:int -> ?rotation_keys:rotation_key_policy -> ?keys:string ->
  with_secret:bool -> unit -> keyset
(** Key generation once. With [keys] (an {!export_keys} payload; RNS
    targets only) the rotation-key bulk is loaded instead of regenerated —
    the warm-restart path; the cheap base keygen still re-derives the
    secret key from [seed], so the restored deployment is bit-identical to
    the one {!export_keys} saw.
    @raise Chet_crypto.Serial.Corrupt if the key payload is damaged. *)

val view : keyset -> req_seed:int -> Hisa.t
(** A fresh view of the keyset whose sampler is seeded for request
    [req_seed] (see {!reseed}). Wrap it in {!Chet_hisa.Checked_backend.wrap}
    [~scheme:ks.ks_scheme] for a deployment on which every HISA op validates
    its pre- and postconditions. *)

val instantiate :
  compiled -> seed:int -> ?rotation_keys:rotation_key_policy -> with_secret:bool -> unit -> Hisa.t
(** {!keyset} for a single user: the backend draws its encryption randomness
    from the key-generation sampler itself, continuing its stream. *)

val clear_keyset : compiled -> keyset
(** The cleartext stand-in for a deployment: views of
    {!Chet_hisa.Clear_backend} at the compiled ring dimension and virtual
    scheme (no randomness, no secrets — an availability-over-confidentiality
    fallback). *)

val reseed : keyset -> Chet_crypto.Sampling.t -> req_seed:int -> unit
(** Point a view's sampler at the stream of request [req_seed]: a view
    reseeded this way draws exactly what {!view} for that request would, so
    a request's ciphertexts do not depend on which worker runs it or in
    what order. *)

(** {1 Durable deployments}

    Compile-once / infer-many (§3.2) made persistent: the offline artifacts
    — the compiled configuration and the public evaluation keys — serialise
    through {!Chet_crypto.Serial}'s checksummed frames so a deployment
    survives a process restart without repeating parameter selection,
    layout search or (for RNS targets) rotation-key generation.
    {!Chet_store.Bundle} composes these into an on-disk bundle. *)

val write_compiled : Chet_crypto.Serial.writer -> compiled -> unit
(** Everything in {!compiled} except the circuit itself (stored by name),
    as a [CMPD] integrity frame: options, chosen policy and parameters,
    rotation selection, op counters and the per-policy reports. The cost
    model override ([opts.cost]) is not persisted: the reports already
    carry the costs it gave. *)

val read_compiled : circuit:Circuit.t -> Chet_crypto.Serial.reader -> compiled
(** @raise Chet_crypto.Serial.Corrupt on any integrity or structural
    violation, including a frame compiled for a different circuit name. *)

val policy_tag : Layout.layout_policy -> int
(** The [CMPD] frame's layout-policy tag. *)

val export_keys : compiled -> seed:int -> ?rotation_keys:rotation_key_policy -> unit -> string option
(** Run {!keyset}'s key generation for this deployment and serialise the
    {e public} evaluation material (public + relin + selected rotation
    keys) as an [RKY3] frame. The secret key is deliberately never exported
    — a durable deployment re-derives it from [seed] at restore time. [None]
    for power-of-two (HEAAN) targets, whose key material has no wire
    format; those deployments re-run keygen from [seed] on restore. *)

(** {1 Compiled execution plans}

    The circuit lowered once into an explicit schedule over a ciphertext
    arena ({!Chet_plan.Plan}, DESIGN.md §14) and executed through
    prepare-once staged kernels with fused HISA dispatch
    ({!Chet_plan.Plan_exec}) — the only executor. *)

val plan : compiled -> Chet_plan.Plan.t
(** Lower the compiled policy into an executable plan at the compiled ring
    dimension, on the twin geometry when [opts.sentinel] is set. Pure
    metadata (no keys or ciphertexts) and a function of the compiled
    decisions alone, so bundles do not store it: every deployment,
    including a warm restart, calls this. *)

(** Profile-guided fixed-point scale selection (§5.5), with graceful
    degradation.

    Instead of asking the user for the four fixed-point scaling factors
    (image [Pc], plaintext weights [Pw], scalar weights [Pu], masks [Pm]),
    CHET searches for the smallest acceptable ones given representative
    inputs and an output tolerance. Candidate configurations are evaluated by
    running the circuit's plan on the quantising cleartext backend —
    wrapped in {!Chet_hisa.Checked_backend}, so a candidate that violates an
    FHE invariant surfaces as a typed [Chet_herr.Herr.Fhe_error] — and
    comparing against the reference engine.

    The search is the paper's round-robin: all four exponents start high and
    each is decremented in turn as long as every test input stays within
    tolerance, until no exponent can shrink.

    Hardening beyond the paper: when the deployment's encryption parameters
    are pinned ([fixed_params]), the candidate scales must live within that
    fixed modulus budget; a too-large starting candidate then fails with
    [Modulus_exhausted], and instead of aborting the search logs the typed
    rejection and retries smaller fallback candidates. Every rejected
    configuration is recorded in {!result.rejections} with its structured
    reason. *)

module Herr = Chet_hisa.Herr
module Kernels = Chet_runtime.Kernels
module Layout = Chet_runtime.Layout
module Circuit = Chet_nn.Circuit
module Tensor = Chet_tensor.Tensor

type verdict =
  | Accepted
  | Tolerance_exceeded of float  (** worst max-abs deviation over the test images *)
  | Fhe_rejected of Herr.error * Herr.context
      (** the candidate violated an FHE invariant (typically
          [Modulus_exhausted] under pinned parameters) *)
  | Infeasible of string  (** parameter selection itself failed *)

val verdict_reason : verdict -> string

type rejection = { rej_exponents : int * int * int * int; rej_verdict : verdict }

type result = {
  scales : Kernels.scales;
  exponents : int * int * int * int;  (** (log2 Pc, log2 Pw, log2 Pu, log2 Pm) *)
  evaluations : int;  (** number of candidate configurations tried *)
  rejections : rejection list;  (** rejected candidates, in evaluation order *)
}

val evaluate :
  ?fixed_params:Compiler.params_choice -> Compiler.options -> Circuit.t ->
  policy:Layout.layout_policy -> images:Tensor.t list -> tolerance:float -> Kernels.scales ->
  verdict
(** Evaluate one candidate configuration. [fixed_params] pins the encryption
    parameters (a deployed modulus budget) instead of re-running §5.2; the
    virtual modulus is then enforced strictly, making [Modulus_exhausted]
    reachable. *)

val acceptable :
  ?fixed_params:Compiler.params_choice -> Compiler.options -> Circuit.t ->
  policy:Layout.layout_policy -> images:Tensor.t list -> tolerance:float -> Kernels.scales ->
  bool
(** [evaluate] collapsed to a boolean: does this configuration keep every
    test image's output within [tolerance] (max-abs) of the unencrypted
    reference (and within the modulus budget, if pinned)? *)

val search :
  ?fixed_params:Compiler.params_choice -> ?log:(string -> unit) -> Compiler.options -> Circuit.t ->
  policy:Layout.layout_policy -> images:Tensor.t list -> tolerance:float ->
  ?start_exponents:int * int * int * int -> unit -> result
(** [log] receives one line per rejected candidate (structured reason
    included). If the starting configuration is rejected, a ladder of
    smaller fallback starts is tried before giving up.
    @raise Compiler.Compilation_failure if no starting configuration is
    acceptable. *)

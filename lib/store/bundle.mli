(** Deployment bundles: the compile-once / infer-many artifacts (§3.2) as a
    {!Store} generation.

    A bundle holds only what a warm restart reads to skip the offline
    pipeline: the compiled decisions (parameters, layout policy, rotation
    selection, per-policy cost reports — a [CMPD] frame inside [meta.chet]'s
    [BNDL] frame, version 2) and the public evaluation keys ([keys.rky3], an
    [RKY3] frame; absent for power-of-two targets, which re-derive keys from
    the seed). Everything derivable is rebuilt instead: the execution plan
    is {!Compiler.plan} of the restored compile (DESIGN.md §11), and the
    secret key is {e never} part of a bundle — it is re-derived
    deterministically from the deployment seed at restore. *)

module Compiler = Chet.Compiler
module Circuit = Chet_nn.Circuit
module Herr = Chet_herr.Herr

type t = {
  b_seed : int;  (** deployment seed: keygen and per-request randomness root *)
  b_rotation_policy : Compiler.rotation_key_policy;
  b_compiled : Compiler.compiled;
  b_keys : string option;  (** [RKY3] public evaluation material; [None] for HEAAN *)
}

val circuit_name : t -> string

val build :
  ?with_keys:bool -> Compiler.compiled -> seed:int -> ?rotation_keys:Compiler.rotation_key_policy ->
  unit -> t
(** Assemble a bundle from a compile, running key generation once to export
    the public material (see {!Compiler.export_keys}). [with_keys:false]
    (default true) skips the export — for cleartext deployments, or when the
    restart is allowed to re-derive everything from the seed. *)

val files : t -> (string * string) list
(** The payload files ({!Store.save} input): [meta.chet], and when present
    [keys.rky3]. *)

val save : Store.t -> t -> int
(** {!files} written as a fresh store generation; returns the generation id. *)

type loaded = {
  l_generation : int;
  l_bytes : int;  (** total verified payload bytes (the restore span's size) *)
  l_bundle : t;
}

val load : Store.t -> circuit:Circuit.t -> loaded option
(** Read back the newest store generation that passes checksum verification
    and parse it against [circuit]. [None] when the store holds no valid
    generation.
    @raise Herr.Fhe_error with {!Herr.Corrupt_bundle} when a generation
    passes the store's checksums but its schema is damaged or it was
    compiled for a different circuit — callers (the CLI) treat this like an
    empty store and fall back to a cold compile. A generation written with
    an older [BNDL] version is refused the same way. *)

val peek_meta : string -> string * int
(** [(circuit name, seed)] from a [meta.chet] payload without needing the
    circuit — what [chet store ls] prints per generation.
    @raise Chet_crypto.Serial.Corrupt on damage. *)

val restore_keyset : t -> with_secret:bool -> Compiler.keyset
(** The warm-restart deployment: {!Compiler.keyset} with the bundle's seed,
    policy and stored keys (which skip rotation-key generation) —
    bit-identical to the deployment that produced the bundle. Serve it as
    a service's one deployment ({!Chet_serve.Service.ladder_of_keyset}), or
    take per-request backends from it with {!Compiler.view}. *)

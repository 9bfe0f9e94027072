(** Samplers for RLWE key material and noise.

    All sampling is driven by an explicit [Random.State.t] so that key
    generation and encryption are reproducible under a fixed seed (the tests
    and benchmarks rely on this). *)

type t

val create : seed:int -> t

val reseed : t -> seed:int -> unit
(** Reset the sampler to exactly the stream [create ~seed] would start:
    subsequent draws are bit-identical to those from a fresh sampler. Lets a
    long-lived backend (a prepared plan executor) be re-pointed at a request's
    randomness instead of being rebuilt. *)

val state : t -> Random.State.t

val ternary : t -> int -> int array
(** Length-[n] vector with entries uniform in [{-1, 0, 1}] (the secret-key
    distribution of SEAL and HEAAN). *)

val gaussian : t -> sigma:float -> int -> int array
(** Length-[n] vector of centered discrete Gaussian samples (Box–Muller,
    rounded), truncated to [±6σ]. *)

val uniform_poly : t -> modulus:int -> int -> int array
(** Length-[n] vector uniform mod [modulus]. *)

val uniform_bigint_poly : t -> modulus:Chet_bigint.Bigint.t -> int -> Chet_bigint.Bigint.t array

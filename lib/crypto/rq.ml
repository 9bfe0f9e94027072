(* The unified polynomial-ring interface (DESIGN.md §15).

   Two ring representations implement this signature:
   - {!Rq_rns}: double-CRT (RNS residues per word-sized prime, NTT form for
     products) — the representation behind the SEAL-style backend;
   - {!Rq_big}: single big-integer modulus [2^logq] with CRT/NTT products —
     the HEAAN-style backend.

   The [mode] type is what parameterises an element's modulus within a
   context: a basis of prime indices for RNS, a bit-width for the
   power-of-two ring. Scheme layers ([Rns_ckks], [Big_ckks]) and everything
   above them program against this shape, so the storage representation
   (boxed int arrays vs unboxed Bigarray buffers) never leaks past
   lib/crypto. Conformance of both instances is checked in {!Rq_conform}. *)

module Bigint = Chet_bigint.Bigint

module type S = sig
  type ctx
  type mode
  (** What selects an element's modulus inside a context: a residue basis
      (int array of prime indices) for RNS, a modulus bit-width for the
      big-integer ring. *)

  type t

  val n : ctx -> int
  val mode_of : t -> mode
  val zero : ctx -> mode -> t
  val copy : t -> t
  val of_centered_coeffs : ctx -> mode -> int array -> t
  val of_bigint_coeffs : ctx -> mode -> Bigint.t array -> t
  val to_bigint_coeffs : ctx -> t -> Bigint.t array
  val to_centered_bigint_coeffs : ctx -> t -> Bigint.t array
  val modulus : ctx -> mode -> Bigint.t

  val to_eval : ctx -> t -> t
  (** Move to the evaluation (NTT/pointwise) domain; the identity for
      representations whose products do not expose a transform domain. *)

  val from_eval : ctx -> t -> t
  val add : ctx -> t -> t -> t
  val sub : ctx -> t -> t -> t
  val neg : ctx -> t -> t
  val mul : ctx -> t -> t -> t
  val mul_scalar : ctx -> t -> int -> t
  val automorphism : ctx -> t -> g:int -> t

  val rescale : ctx -> t -> divisor:int -> t
  (** Divide by [divisor] with rounding, shrinking the modulus by the same
      factor. RNS: [divisor] must be a product of trailing basis primes;
      big ring: a power of two. *)

  val mod_down : ctx -> t -> mode -> t
  (** Forget modulus down to a smaller [mode] (no rounding). *)

  val equal : t -> t -> bool
  val to_bytes : ctx -> t -> string
  val of_bytes : ctx -> string -> t
end

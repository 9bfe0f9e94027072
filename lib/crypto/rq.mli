(** The unified polynomial-ring signature.

    {!Rq_rns} (double-CRT over word-sized primes) and {!Rq_big} (single
    power-of-two big-integer modulus) both implement {!module-type-S}; the
    scheme layers program against that shape so the underlying storage
    (unboxed Bigarray buffers) never leaks past lib/crypto. See
    {!Rq_conform} for the conformance checks and DESIGN.md §15 for the
    storage and reduction strategy. *)

module Bigint = Chet_bigint.Bigint

module type S = sig
  type ctx
  type mode
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
  val from_eval : ctx -> t -> t
  val add : ctx -> t -> t -> t
  val sub : ctx -> t -> t -> t
  val neg : ctx -> t -> t
  val mul : ctx -> t -> t -> t
  val mul_scalar : ctx -> t -> int -> t
  val automorphism : ctx -> t -> g:int -> t
  val rescale : ctx -> t -> divisor:int -> t
  val mod_down : ctx -> t -> mode -> t
  val equal : t -> t -> bool
  val to_bytes : ctx -> t -> string
  val of_bytes : ctx -> string -> t
end

module Bigint = Chet_bigint.Bigint

(* Mutable so a long-lived sampler (e.g. a prepared plan executor shared
   across requests) can be [reseed]ed to exactly the stream a fresh
   [create] would produce — bit-identical randomness without rebuilding
   the backend that holds it. *)
type t = { mutable st : Random.State.t }

let fresh_state ~seed = Random.State.make [| seed; 0x43484554 (* "CHET" *) |]
let create ~seed = { st = fresh_state ~seed }
let reseed t ~seed = t.st <- fresh_state ~seed
let state t = t.st

let ternary t n = Array.init n (fun _ -> Random.State.int t.st 3 - 1)

let gaussian t ~sigma n =
  let sample () =
    let u1 = Random.State.float t.st 1.0 +. 1e-12 in
    let u2 = Random.State.float t.st 1.0 in
    let g = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) *. sigma in
    let bound = 6.0 *. sigma in
    let g = Float.max (-.bound) (Float.min bound g) in
    int_of_float (Float.round g)
  in
  Array.init n (fun _ -> sample ())

let uniform_poly t ~modulus n = Array.init n (fun _ -> Random.State.int t.st modulus)

let uniform_bigint_poly t ~modulus n =
  let rand31 () = Random.State.bits t.st in
  Array.init n (fun _ -> Bigint.random_below rand31 modulus)

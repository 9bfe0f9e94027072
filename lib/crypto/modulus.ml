(* A ciphertext's modulus state and §5.2's rescale rule, written once. Both
   schemes ask it which level a rescale lands on before doing the ring
   work, and the analysis interpretations (Shape, Clear, Checked) track
   their virtual modulus with it, so every interpretation applies exactly
   the rule of the scheme it stands for. *)

module Herr = Chet_herr.Herr

type kind = Rns_chain of int array | Pow2_modulus of int
type level = Rns_level of int | Logq of int

let fresh = function
  | Rns_chain primes -> Rns_level (Array.length primes)
  | Pow2_modulus logq -> Logq logq

let count = function Rns_level l | Logq l -> l

let meet ~backend ~op a b =
  match (a, b) with
  | Rns_level x, Rns_level y -> Rns_level (Stdlib.min x y)
  | Logq x, Logq y -> Logq (Stdlib.min x y)
  | _ ->
      Herr.raise_err ~backend ~op (Herr.Invalid_op { reason = "mixed scheme budgets (RNS vs pow2)" })

let mismatch fn = invalid_arg (Printf.sprintf "Modulus.%s: level does not match the scheme kind" fn)

let max_rescale kind level ub =
  match (kind, level) with
  | Rns_chain primes, Rns_level level ->
      (* the longest run of next chain primes whose product stays <= ub;
         the last prime is never dropped *)
      let rec walk prod l =
        if l <= 1 then prod
        else
          let q = primes.(l - 1) in
          if prod <= ub / q && prod * q <= ub then walk (prod * q) (l - 1) else prod
      in
      walk 1 level
  | Pow2_modulus _, Logq logq ->
      (* the largest power of two <= ub that leaves at least one bit *)
      let rec up k = if 1 lsl (k + 1) <= ub && k + 1 < logq then up (k + 1) else k in
      if ub < 2 then 1 else 1 lsl up 0
  | _ -> mismatch "max_rescale"

let log2_int n =
  let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

let rescale ~backend kind level x =
  let err e = Herr.raise_err ~backend ~op:"rescale" e in
  if x < 1 then err (Herr.Illegal_rescale { divisor = x; reason = "divisor must be >= 1" });
  match (kind, level) with
  | _ when x = 1 -> level
  | Rns_chain primes, Rns_level level ->
      let rec walk rem l =
        if rem = 1 then Rns_level l
        else begin
          if l < 1 then err (Herr.Modulus_exhausted { level; requested = x });
          if l > Array.length primes then
            err
              (Herr.Invalid_op
                 {
                   reason =
                     Printf.sprintf "level %d exceeds the declared %d-prime chain" l
                       (Array.length primes);
                 });
          let q = primes.(l - 1) in
          if rem mod q <> 0 then
            err
              (Herr.Illegal_rescale
                 {
                   divisor = x;
                   reason = Printf.sprintf "not a product of the next chain primes (next is %d)" q;
                 });
          walk (rem / q) (l - 1)
        end
      in
      walk x level
  | Pow2_modulus _, Logq logq ->
      if x land (x - 1) <> 0 then
        err (Herr.Illegal_rescale { divisor = x; reason = "divisor must be a power of two" });
      let k = log2_int x in
      if k >= logq then err (Herr.Modulus_exhausted { level = logq; requested = k });
      Logq (logq - k)
  | _ -> mismatch "rescale"

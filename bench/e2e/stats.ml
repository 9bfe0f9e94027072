(* Pure statistics for chetbench: order statistics, run-to-run spread, the
   answer oracle, failure accounting and the --compare verdict. Nothing here
   touches a backend, so test_stats.ml checks it on fixed inputs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles as Python's [statistics.quantiles xs ~n:4] computes them (its
   default "exclusive" method), so the spread printed here is the spread the
   acceptance rule in README.md is stated in. One sample has no spread. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then if q3 -. q1 = 0.0 then 0.0 else infinity else (q3 -. q1) /. Float.abs q2

(* --- the answer oracle ---------------------------------------------- *)

let argmax (a : float array) =
  let best = ref 0 in
  Array.iteri (fun i x -> if x > a.(!best) then best := i) a;
  !best

type check = { class_expected : int; class_got : int; max_err : float; ok : bool }

(* An answer is right when no output is farther than [tolerance] from the
   reference (NaN outputs are wrong). The class is reported but not judged:
   within the tolerance it can differ from the reference's only when the
   reference's two best classes are closer than twice the error, a tie at
   the precision the compiler promises. *)
let check ~tolerance ~expected ~got =
  if Array.length expected <> Array.length got then invalid_arg "Stats.check: length mismatch";
  let max_err = ref 0.0 in
  Array.iteri
    (fun i e ->
      let d = Float.abs (got.(i) -. e) in
      if Float.is_nan d then max_err := infinity else if d > !max_err then max_err := d)
    expected;
  { class_expected = argmax expected; class_got = argmax got; max_err = !max_err;
    ok = !max_err <= tolerance }

(* Bits of precision an answer kept: -log2 of its worst output error. An
   exact answer is capped at 52 bits, a double's mantissa. *)
let precision_bits max_err = if max_err <= 0.0 then 52.0 else Float.min 52.0 (-.Float.log2 max_err)

(* --- failure accounting --------------------------------------------- *)

type failure = Wrong_answer | Typed_error | Deadline_miss | Shed | Degraded

type tally = {
  mutable attempted : int;
  mutable wrong : int;
  mutable errors : int;
  mutable deadline_misses : int;
  mutable shed : int;
  mutable degraded : int;
}

let tally () = { attempted = 0; wrong = 0; errors = 0; deadline_misses = 0; shed = 0; degraded = 0 }

(* Every answer is recorded, failed or not: a run never stops on a wrong
   answer, it counts it. *)
let record t = function
  | None -> t.attempted <- t.attempted + 1
  | Some f -> (
      t.attempted <- t.attempted + 1;
      match f with
      | Wrong_answer -> t.wrong <- t.wrong + 1
      | Typed_error -> t.errors <- t.errors + 1
      | Deadline_miss -> t.deadline_misses <- t.deadline_misses + 1
      | Shed -> t.shed <- t.shed + 1
      | Degraded -> t.degraded <- t.degraded + 1)

let failed t = t.wrong + t.errors + t.deadline_misses + t.shed + t.degraded

let failed_share t =
  if t.attempted = 0 then 1.0 else float_of_int (failed t) /. float_of_int t.attempted

(* --- the --compare verdict ------------------------------------------ *)

type better = Lower | Higher
type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [a] is the base side's runs, [b] the candidate's. With a bound (a share of
   the base median), a side whose spread exceeds it leaves the metric
   unresolved unless every candidate run beats every base run; otherwise a
   median move past the bound decides. Without a bound (per-layer metrics),
   only a complete separation of the two sides counts as a change. *)
let verdict ~better ?bound a b =
  let gain x y = match better with Lower -> y < x | Higher -> y > x in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> gain x y) a) b in
  let all_worse = List.for_all (fun y -> List.for_all (fun x -> gain y x) a) b in
  if a = [] || b = [] then Unresolved
  else
    match bound with
    | None -> if all_better then Better else if all_worse then Worse else Unchanged
    | Some bound ->
        if spread a > bound || spread b > bound then if all_better then Better else Unresolved
        else begin
          let ma = median a and mb = median b in
          let rel =
            if ma <> 0.0 then (mb -. ma) /. Float.abs ma
            else if mb > ma then infinity
            else if mb < ma then neg_infinity
            else 0.0
          in
          let improvement = match better with Lower -> -.rel | Higher -> rel in
          if improvement < -.bound then Worse else if improvement > bound then Better else Unchanged
        end

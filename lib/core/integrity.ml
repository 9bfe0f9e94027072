(* Sentinel-slot result integrity (DESIGN.md §16).

   CHET's §4.1 batching observation — the CKKS slot count vastly exceeds the
   image extent — leaves most of every ciphertext unused. We spend that
   slack on an end-to-end integrity channel: the layout interleaves a twin
   copy of every logical position (Layout.twin), the encryptor packs a
   *known* probe image into the twin slots, the homomorphic circuit
   transforms probe and user data side by side under the exact same ops and
   keys, and at decrypt time the twin output is compared against the clear
   reference model's prediction. Any silent corruption of the ciphertext
   stream — a bit flip, a buggy kernel, a faulty shard — perturbs the twin
   slots along with the primary ones and surfaces as a typed
   [Herr.Integrity_violation] instead of being served as a valid answer.

   This module owns the policy half: probe generation, the reference
   prediction, the tolerance, and the verdict. The mechanism half (twin
   layouts, parity isolation, packing) lives in Chet_runtime.Layout. *)

module Tensor = Chet_tensor.Tensor
module Dataset = Chet_tensor.Dataset
module Circuit = Chet_nn.Circuit
module Reference = Chet_nn.Reference
module Herr = Chet_hisa.Herr
module Plan_exec = Chet_plan.Plan_exec

type spec = {
  it_probe : Tensor.t;  (* packed into the twin slots at encrypt time *)
  it_expected : Tensor.t;  (* Reference.eval circuit it_probe, computed once *)
  it_tolerance : float;  (* max |got - expected| accepted per output *)
}

(* Matches the fidelity bar the compiled-deployment tests hold the real
   backends to (max abs output deviation 0.05): a clean inference sits well
   inside it, while the smallest silent fault worth injecting (Fault_backend
   perturbs slots by ~10x this) sails past it. *)
let default_tolerance = 0.05

let probe_for ?(seed = 0x5e9719) circuit =
  match circuit.Circuit.input.Circuit.shape with
  | [| c; h; w |] -> Dataset.image ~seed ~channels:c ~height:h ~width:w
  | shape ->
      Herr.raise_err ~backend:"integrity" ~op:"probe_for"
        (Herr.Shape_mismatch
           {
             expected = "[c; h; w]";
             got =
               "[" ^ String.concat "; " (Array.to_list (Array.map string_of_int shape)) ^ "]";
           })

let spec_for ?seed ?(tolerance = default_tolerance) circuit =
  let probe = probe_for ?seed circuit in
  { it_probe = probe; it_expected = Reference.eval circuit probe; it_tolerance = tolerance }

(* Worst sentinel deviation: (flat output index, expected, got, |diff|). *)
let worst_deviation spec (got : Tensor.t) =
  let e = spec.it_expected.Tensor.data in
  let g = got.Tensor.data in
  let n = Stdlib.min (Array.length e) (Array.length g) in
  let idx = ref 0 and dev = ref 0.0 in
  for i = 0 to n - 1 do
    let d = Float.abs (g.(i) -. e.(i)) in
    (* NaN poisoning must rank as the worst possible deviation, but NaN
       comparisons are all false — map it to infinity explicitly *)
    let d = if Float.is_nan d then Float.infinity else d in
    if d > !dev then begin
      dev := d;
      idx := i
    end
  done;
  if Array.length e <> Array.length g then (0, 0.0, Float.nan, Float.infinity)
  else (!idx, e.(!idx), g.(!idx), !dev)

(* Remaining headroom in bits: log2(tolerance / worst deviation). Positive
   means the sentinel is comfortably clean; <= 0 is a violation. Clamped so
   a perfectly clean probe does not export an infinite gauge. *)
let margin_bits spec got =
  let _, _, _, dev = worst_deviation spec got in
  if dev <= 0.0 then 60.0
  else Stdlib.min 60.0 (Float.log (spec.it_tolerance /. dev) /. Float.log 2.0)

let verify spec got =
  let slot, expected, got_v, dev = worst_deviation spec got in
  if not (dev <= spec.it_tolerance) then
    Herr.raise_err ~backend:"integrity" ~op:"sentinel_verify"
      (Herr.Integrity_violation { slot; expected; got = got_v })

(* The executor-facing hook: packs the probe, verifies the twin output, and
   (optionally) hands the raw twin tensor to [observe] first — the serving
   layer uses that to export margin gauges and to forward the decrypted
   sentinels in RSP1 for independent supervisor-side verification. *)
let sentinel ?observe spec =
  {
    Plan_exec.sn_probe = spec.it_probe;
    sn_verify =
      (fun twin ->
        (match observe with Some f -> f twin | None -> ());
        verify spec twin);
  }

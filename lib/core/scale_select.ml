module Hisa = Chet_hisa.Hisa
module Herr = Chet_hisa.Herr
module Clear = Chet_hisa.Clear_backend
module Checked = Chet_hisa.Checked_backend
module Kernels = Chet_runtime.Kernels
module Layout = Chet_runtime.Layout
module Plan = Chet_plan.Plan
module Plan_exec = Chet_plan.Plan_exec
module Circuit = Chet_nn.Circuit
module Reference = Chet_nn.Reference
module Tensor = Chet_tensor.Tensor

type verdict =
  | Accepted
  | Tolerance_exceeded of float  (** worst max-abs deviation over the test images *)
  | Fhe_rejected of Herr.error * Herr.context
      (** the candidate violated an FHE invariant (typically
          [Modulus_exhausted] under pinned parameters) *)
  | Infeasible of string  (** parameter selection itself failed *)

let verdict_reason = function
  | Accepted -> "accepted"
  | Tolerance_exceeded d -> Printf.sprintf "output tolerance exceeded (max-abs %.3g)" d
  | Fhe_rejected (e, c) -> Herr.to_string (e, c)
  | Infeasible msg -> msg

type rejection = { rej_exponents : int * int * int * int; rej_verdict : verdict }

type result = {
  scales : Kernels.scales;
  exponents : int * int * int * int;
  evaluations : int;
  rejections : rejection list;
}

let scales_of (ec, ew, eu, em) =
  { Kernels.pc = 1 lsl ec; pw = 1 lsl ew; pu = 1 lsl eu; pm = 1 lsl em }

(* Evaluate one candidate on the quantising cleartext backend, run under
   {!Checked_backend} so that any scale/level desynchronisation the candidate
   causes is caught as a typed error, never as garbage in the comparison.
   The candidate's plan is prepared once at its scales and run per image.

   The ring dimension only has to be large enough for the layout, so we let
   parameter selection find it once per call (scales change modulus
   consumption, but not whether the layout fits) — unless the deployment's
   parameters are pinned ([fixed_params]), in which case the candidate must
   live within that fixed modulus budget and a too-large scale genuinely
   exhausts it ([Modulus_exhausted], §5.2's failure mode). *)
let evaluate ?fixed_params opts circuit ~policy ~images ~tolerance (scales : Kernels.scales) =
  let opts = { opts with Compiler.scales } in
  match
    match fixed_params with
    | Some params -> Ok params
    | None -> (
        try Ok (Compiler.select_params opts circuit ~policy)
        with Compiler.Compilation_failure msg -> Error msg)
  with
  | Error msg -> Infeasible msg
  | Ok params -> (
      let n = Compiler.params_n params in
      let scheme = Compiler.scheme_of_params opts params in
      (* pinned parameters are a hard budget: enforce exhaustion strictly *)
      let strict_modulus = fixed_params <> None in
      let backend =
        Checked.wrap ~scheme
          (Clear.make { Clear.slots = n / 2; scheme; strict_modulus; encode_noise = true })
      in
      let module H = (val backend) in
      let module PE = Plan_exec.Make (H) in
      try
        let prepared = PE.prepare scales (Plan.build ~slots:H.slots ~policy circuit) in
        let worst = ref 0.0 in
        List.iter
          (fun image ->
            let expected = Reference.eval circuit image in
            let got = PE.run prepared image in
            let d = Tensor.max_abs_diff (Tensor.flatten expected) (Tensor.flatten got) in
            if d > !worst then worst := d)
          images;
        if !worst <= tolerance then Accepted else Tolerance_exceeded !worst
      with
      | Herr.Fhe_error (e, c) -> Fhe_rejected (e, c)
      | Invalid_argument msg -> Infeasible msg)

let acceptable ?fixed_params opts circuit ~policy ~images ~tolerance scales =
  match evaluate ?fixed_params opts circuit ~policy ~images ~tolerance scales with
  | Accepted -> true
  | Tolerance_exceeded _ | Fhe_rejected _ | Infeasible _ -> false

(* The candidate ladder tried when a starting configuration is rejected:
   §5.5's search assumes the first (largest) scales are valid, but under a
   pinned modulus budget the largest scales may exhaust the chain — the
   compiler degrades gracefully by logging the typed rejection and retrying
   the next, smaller, candidate instead of aborting. *)
let fallback_starts (ec, ew, eu, em) =
  List.init 12 (fun i ->
      let d = 2 * (i + 1) in
      (Stdlib.max 8 (ec - d), Stdlib.max 6 (ew - d / 2), Stdlib.max 6 (eu - d / 2), Stdlib.max 6 (em - d / 2)))

let search ?fixed_params ?log opts circuit ~policy ~images ~tolerance
    ?(start_exponents = (40, 30, 30, 20)) () =
  let evaluations = ref 0 in
  let rejections = ref [] in
  let note exps verdict =
    rejections := { rej_exponents = exps; rej_verdict = verdict } :: !rejections;
    match log with
    | Some f ->
        let ec, ew, eu, em = exps in
        f
          (Printf.sprintf "scale search: rejected (Pc,Pw,Pu,Pm)=2^(%d,%d,%d,%d): %s" ec ew eu em
             (verdict_reason verdict))
    | None -> ()
  in
  let try_candidate exps =
    incr evaluations;
    match evaluate ?fixed_params opts circuit ~policy ~images ~tolerance (scales_of exps) with
    | Accepted -> true
    | v ->
        note exps v;
        false
  in
  (* find a feasible starting point, degrading along the ladder *)
  let start =
    if try_candidate start_exponents then start_exponents
    else begin
      match List.find_opt try_candidate (fallback_starts start_exponents) with
      | Some s -> s
      | None ->
          raise
            (Compiler.Compilation_failure
               (Printf.sprintf
                  "scale search: no starting scaling factors are acceptable (%d candidates \
                   rejected; last: %s)"
                  !evaluations
                  (match !rejections with
                  | { rej_verdict; _ } :: _ -> verdict_reason rej_verdict
                  | [] -> "none tried")))
    end
  in
  (* no scale exponent is shaved below 2^4 *)
  let min_exponent = 4 in
  let current = ref start in
  let progress = ref true in
  (* round-robin: shave one bit off each factor in turn while acceptable *)
  while !progress do
    progress := false;
    for i = 0 to 3 do
      let ec, ew, eu, em = !current in
      let candidate =
        match i with
        | 0 -> (ec - 1, ew, eu, em)
        | 1 -> (ec, ew - 1, eu, em)
        | 2 -> (ec, ew, eu - 1, em)
        | _ -> (ec, ew, eu, em - 1)
      in
      let c0, c1, c2, c3 = candidate in
      if c0 >= min_exponent && c1 >= min_exponent && c2 >= min_exponent && c3 >= min_exponent
         && try_candidate candidate
      then begin
        current := candidate;
        progress := true
      end
    done
  done;
  {
    scales = scales_of !current;
    exponents = !current;
    evaluations = !evaluations;
    rejections = List.rev !rejections;
  }

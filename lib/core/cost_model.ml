(* Cost models for the HISA primitives (Table 1), with constants tuned
   against timings of this repository's own scheme implementations
   (`chet profile` refits them on the machine it runs on; the defaults
   below were fitted on the development machine).

   The RNS-CKKS model is in terms of (N, r); the CKKS model in terms of
   (N, logQ) with M(Q) = logQ^1.58 for big-integer multiplication. *)

module Hisa = Chet_hisa.Hisa

type constants = {
  k_add : float;
  k_scalar_mul : float;
  k_plain_mul : float;
  k_cipher_mul : float;
  k_rotate : float;
  k_rot_hoisted : float;
  k_rescale : float;
}

(* seconds per elementary unit of the Table 1 asymptotic term, fitted
   against this repository's scheme implementations; `chet profile` writes
   a machine's own *)
let seal_defaults =
  {
    k_add = 5.97e-8;
    k_scalar_mul = 1.95e-8;
    k_plain_mul = 1.88e-8;
    k_cipher_mul = 2.76e-8;
    k_rotate = 3.42e-8;
    (* `chet profile` measured k_rot_hoisted/k_rotate = 2.7 (1.1e-8 over
       4.05e-9, 2-vCPU VM); scaled here to the shipped k_rotate *)
    k_rot_hoisted = 9.3e-8;
    k_rescale = 2.0e-8;
  }

let heaan_defaults =
  {
    k_add = 2.22e-9;
    k_scalar_mul = 1.48e-8;
    k_plain_mul = 7.04e-8;
    k_cipher_mul = 2.27e-7;
    k_rotate = 9.10e-8;
    k_rot_hoisted = 9.10e-8;
    k_rescale = 5.0e-9;
  }

(* ---- Table 1 ---------------------------------------------------------------- *)

type scheme = [ `Seal | `Heaan ]

(* Cost-model op class for a timed HISA op name, or [None] for ops outside
   Table 1 (encode / encrypt / decrypt / decode are client-side). *)
type op_class = Add | Scalar_mul | Plain_mul | Cipher_mul | Rotate | Rot_hoisted | Rescale

let class_of_op = function
  | "add" | "add_plain" | "add_scalar" -> Some Add
  | "mul_scalar" | "fma_scalar" -> Some Scalar_mul
  | "mul_plain" | "fma_plain" -> Some Plain_mul
  | "mul" -> Some Cipher_mul
  | "rot_left" | "fma_rot" -> Some Rotate
  | "rot_many" -> Some Rot_hoisted
  | "rescale" -> Some Rescale
  | _ -> None

(* The fused HISA ops decompose as a main-class op plus an addition; a timed
   fma cell is a sample of that composite term, not of the main class alone. *)
let fused_main_class = function
  | "fma_scalar" -> Some Scalar_mul
  | "fma_plain" -> Some Plain_mul
  | "fma_rot" -> Some Rotate
  | _ -> None

let logf n = log (float_of_int n) /. log 2.0

(* The asymptotic term of each (scheme, class) pair: Table 1 written once.
   A model is a constant per class times its term. *)
let term_of scheme cls =
  let n e = float_of_int e.Hisa.env_n in
  let r e = float_of_int (Stdlib.max 1 e.Hisa.env_r) in
  let lq e = float_of_int (Stdlib.max 1 e.Hisa.env_log_q) in
  let m_q e = lq e ** 1.58 /. 64.0 in
  match scheme with
  | `Seal -> begin
      match cls with
      | Add -> fun e -> n e *. r e
      | Scalar_mul -> fun e -> n e *. r e
      | Plain_mul -> fun e -> n e *. r e
      | Cipher_mul -> fun e -> n e *. logf e.Hisa.env_n *. r e *. r e
      | Rotate -> fun e -> n e *. logf e.Hisa.env_n *. r e *. r e
      (* per amount: the inner product with its key (N·r²) and the
         mod-down (N·logN·r); the shared digit decomposition is amortised *)
      | Rot_hoisted -> fun e -> n e *. r e *. (r e +. logf e.Hisa.env_n)
      | Rescale -> fun e -> n e *. logf e.Hisa.env_n *. r e
    end
  | `Heaan -> begin
      match cls with
      | Add -> fun e -> n e *. lq e
      | Scalar_mul -> fun e -> n e *. m_q e
      | Plain_mul -> fun e -> n e *. logf e.Hisa.env_n *. m_q e
      | Cipher_mul -> fun e -> n e *. logf e.Hisa.env_n *. m_q e
      | Rotate | Rot_hoisted -> fun e -> n e *. logf e.Hisa.env_n *. m_q e
      | Rescale -> fun e -> n e *. lq e
    end

let model scheme c =
  let t cls k =
    let term = term_of scheme cls in
    fun e -> k *. term e
  in
  {
    Hisa.cm_add = t Add c.k_add;
    cm_scalar_mul = t Scalar_mul c.k_scalar_mul;
    cm_plain_mul = t Plain_mul c.k_plain_mul;
    cm_cipher_mul = t Cipher_mul c.k_cipher_mul;
    cm_rotate = t Rotate c.k_rotate;
    cm_rot_hoisted = t Rot_hoisted c.k_rot_hoisted;
    cm_rescale = t Rescale c.k_rescale;
  }

let seal ?(c = seal_defaults) () = model `Seal c
let heaan ?(c = heaan_defaults) () = model `Heaan c

(* ---- Profile-driven calibration (the `chet profile` path) ---------------- *)

(* Calibration: given measured (env, seconds, weight) samples for one op and
   that op's asymptotic term, the constant is the weighted least-squares
   ratio. Each sample's weight is how many timed operations it averages
   over, so heavily exercised (op, env) cells pull the fit harder than cells
   observed once. *)
let fit_constant_weighted term samples =
  let num =
    List.fold_left (fun acc (env, t, w) -> acc +. (w *. t *. term env)) 0.0 samples
  in
  let den =
    List.fold_left (fun acc (env, _, w) -> acc +. (w *. term env *. term env)) 0.0 samples
  in
  if den = 0.0 then 0.0 else num /. den

let defaults_of = function `Seal -> seal_defaults | `Heaan -> heaan_defaults

(* Fit Table-1 constants from timed-backend cells
   [(op, env, count, mean_seconds)]. Classes with no samples keep the
   scheme's shipped defaults, so a partial profile still yields a usable
   model. *)
let calibrate_from ~scheme cells =
  let d = defaults_of scheme in
  let pure_samples cls =
    List.filter_map
      (fun (op, env, count, mean_s) ->
        match (fused_main_class op, class_of_op op) with
        | None, Some c when c = cls && count > 0 && mean_s > 0.0 ->
            Some (env, mean_s, float_of_int count)
        | _ -> None)
      cells
  in
  let fit_pure cls fallback =
    match pure_samples cls with
    | [] -> fallback
    | samples ->
        let k = fit_constant_weighted (term_of scheme cls) samples in
        if k > 0.0 then k else fallback
  in
  let k_add = fit_pure Add d.k_add in
  (* a fused cell is a composite sample (main term + Add term): credit the
     addition at the just-fitted k_add and fold the residual into the main
     class, so fused timings keep the unfused constants honest *)
  let fused_samples cls =
    List.filter_map
      (fun (op, env, count, mean_s) ->
        match fused_main_class op with
        | Some c when c = cls && count > 0 && mean_s > 0.0 ->
            let residual = mean_s -. (k_add *. term_of scheme Add env) in
            if residual > 0.0 then Some (env, residual, float_of_int count) else None
        | _ -> None)
      cells
  in
  let fit cls fallback =
    match pure_samples cls @ fused_samples cls with
    | [] -> fallback
    | samples ->
        let k = fit_constant_weighted (term_of scheme cls) samples in
        if k > 0.0 then k else fallback
  in
  {
    k_add;
    k_scalar_mul = fit Scalar_mul d.k_scalar_mul;
    k_plain_mul = fit Plain_mul d.k_plain_mul;
    k_cipher_mul = fit Cipher_mul d.k_cipher_mul;
    k_rotate = fit Rotate d.k_rotate;
    k_rot_hoisted = fit Rot_hoisted d.k_rot_hoisted;
    k_rescale = fit Rescale d.k_rescale;
  }

(* ---- Persistence ---------------------------------------------------------
   {"version": 1,
    "constants": {"seal": {"k_add": ..., ...}, "heaan": {...}}} *)

module Jsonx = Chet_obs.Jsonx

type calibration = { seal_c : constants; heaan_c : constants }

let default_calibration = { seal_c = seal_defaults; heaan_c = heaan_defaults }

let constants_to_json c =
  Jsonx.Obj
    [
      ("k_add", Jsonx.Num c.k_add);
      ("k_scalar_mul", Jsonx.Num c.k_scalar_mul);
      ("k_plain_mul", Jsonx.Num c.k_plain_mul);
      ("k_cipher_mul", Jsonx.Num c.k_cipher_mul);
      ("k_rotate", Jsonx.Num c.k_rotate);
      ("k_rot_hoisted", Jsonx.Num c.k_rot_hoisted);
      ("k_rescale", Jsonx.Num c.k_rescale);
    ]

(* [k_rot_hoisted] postdates the first calibration files: absent, it keeps
   the scheme's shipped default *)
let constants_of_json ~defaults j =
  let f name =
    match Jsonx.num_member name j with
    | Some v -> v
    | None -> failwith (Printf.sprintf "calibration file: missing constant %S" name)
  in
  {
    k_add = f "k_add";
    k_scalar_mul = f "k_scalar_mul";
    k_plain_mul = f "k_plain_mul";
    k_cipher_mul = f "k_cipher_mul";
    k_rotate = f "k_rotate";
    k_rot_hoisted =
      Option.value (Jsonx.num_member "k_rot_hoisted" j) ~default:defaults.k_rot_hoisted;
    k_rescale = f "k_rescale";
  }

let calibration_to_json cal =
  Jsonx.Obj
    [
      ("version", Jsonx.Num 1.0);
      ( "constants",
        Jsonx.Obj
          [
            ("seal", constants_to_json cal.seal_c);
            ("heaan", constants_to_json cal.heaan_c);
          ] );
    ]

let calibration_of_json j =
  (match Jsonx.member "version" j with
  | Some (Jsonx.Num v) when v = 1.0 -> ()
  | Some (Jsonx.Num v) ->
      failwith (Printf.sprintf "unsupported calibration version %g (expected 1)" v)
  | _ -> failwith "calibration file: missing \"version\"");
  match Jsonx.member "constants" j with
  | None -> failwith "calibration file: missing \"constants\""
  | Some consts ->
      let section name fallback =
        match Jsonx.member name consts with
        | None -> fallback
        | Some s -> constants_of_json ~defaults:fallback s
      in
      {
        seal_c = section "seal" seal_defaults;
        heaan_c = section "heaan" heaan_defaults;
      }

let save_calibration path cal = Jsonx.to_file path (calibration_to_json cal)
let load_calibration path = calibration_of_json (Jsonx.of_file path)

let model_for scheme cal =
  match scheme with
  | `Seal -> seal ~c:cal.seal_c ()
  | `Heaan -> heaan ~c:cal.heaan_c ()

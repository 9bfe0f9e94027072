module Compiler = Chet.Compiler
module Circuit = Chet_nn.Circuit
module Herr = Chet_herr.Herr
module Serial = Chet_crypto.Serial

type t = {
  b_seed : int;
  b_rotation_policy : Compiler.rotation_key_policy;
  b_compiled : Compiler.compiled;
  b_keys : string option;
}

let circuit_name t = t.b_compiled.Compiler.circuit.Circuit.name

let build ?(with_keys = true) compiled ~seed ?(rotation_keys = Compiler.Selected_keys) () =
  {
    b_seed = seed;
    b_rotation_policy = rotation_keys;
    b_compiled = compiled;
    b_keys = (if with_keys then Compiler.export_keys compiled ~seed ~rotation_keys () else None);
  }

(* ------------------------------------------------------------------ *)
(* meta.chet: BNDL frame                                                *)
(* ------------------------------------------------------------------ *)

(* Version 2 dropped the scale-summary and calibration records. Version 3
   marks the dense-layer fold over lattices: a rebuilt plan may rotate by
   amounts an older generation's stored rotation selection and keys lack.
   An older frame is refused as corrupt, and the caller cold-compiles. *)
let bundle_version = 3
let meta_file = "meta.chet"
let keys_file = "keys.rky3"

let int_of_rotation_policy = function Compiler.Selected_keys -> 0 | Compiler.Power_of_two_keys -> 1

let rotation_policy_of_int = function
  | 0 -> Compiler.Selected_keys
  | 1 -> Compiler.Power_of_two_keys
  | k -> raise (Serial.Corrupt (Printf.sprintf "BNDL: unknown rotation-key policy %d" k))

(* The circuit name and seed lead the frame so [peek_meta] can stop there. *)
let meta_bytes t =
  let w = Serial.writer () in
  Serial.write_frame w "BNDL" (fun w ->
      Serial.write_int w bundle_version;
      Serial.write_string w (circuit_name t);
      Serial.write_int w t.b_seed;
      Serial.write_int w (int_of_rotation_policy t.b_rotation_policy);
      Serial.write_int w (if t.b_keys = None then 0 else 1);
      Compiler.write_compiled w t.b_compiled);
  Serial.contents w

type meta_head = {
  mh_name : string;
  mh_seed : int;
  mh_policy : Compiler.rotation_key_policy;
  mh_has_keys : bool;
}

let read_meta ~circuit bytes =
  let r = Serial.reader bytes in
  let v =
    Serial.read_frame r "BNDL" (fun r ->
        let version = Serial.read_int r in
        if version <> bundle_version then
          raise (Serial.Corrupt (Printf.sprintf "BNDL: unsupported version %d" version));
        let mh_name = Serial.read_string r in
        let mh_seed = Serial.read_int r in
        let mh_policy = rotation_policy_of_int (Serial.read_int r) in
        let mh_has_keys = Serial.read_int r <> 0 in
        let head = { mh_name; mh_seed; mh_policy; mh_has_keys } in
        let compiled = Compiler.read_compiled ~circuit r in
        (head, compiled))
  in
  if not (Serial.reader_eof r) then raise (Serial.Corrupt "BNDL: trailing bytes");
  v

let peek_meta bytes =
  let r = Serial.reader bytes in
  Serial.read_frame_prefix r "BNDL" (fun r ->
      let version = Serial.read_int r in
      if version <> bundle_version then
        raise (Serial.Corrupt (Printf.sprintf "BNDL: unsupported version %d" version));
      let name = Serial.read_string r in
      let seed = Serial.read_int r in
      (name, seed))

(* ------------------------------------------------------------------ *)
(* Store composition                                                    *)
(* ------------------------------------------------------------------ *)

let files t =
  (meta_file, meta_bytes t)
  :: (match t.b_keys with Some k -> [ (keys_file, k) ] | None -> [])

let save store t = Store.save store ~files:(files t)

type loaded = { l_generation : int; l_bytes : int; l_bundle : t }

let corrupt ~gen ~file reason =
  Herr.raise_err ~backend:"store" ~op:"bundle-load"
    (Herr.Corrupt_bundle
       { path = Printf.sprintf "gen-%06d/%s" gen file; reason })

let load store ~circuit =
  match Store.load store with
  | None -> None
  | Some (gen, payload) ->
      let l_bytes = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 payload in
      let meta =
        match List.assoc_opt meta_file payload with
        | Some m -> m
        | None -> corrupt ~gen ~file:meta_file "bundle has no meta.chet"
      in
      let head, compiled =
        try read_meta ~circuit meta
        with Serial.Corrupt reason -> corrupt ~gen ~file:meta_file reason
      in
      let keys =
        match (head.mh_has_keys, List.assoc_opt keys_file payload) with
        | false, _ -> None
        | true, Some k -> Some k
        | true, None -> corrupt ~gen ~file:keys_file "meta promises evaluation keys, file absent"
      in
      Some
        {
          l_generation = gen;
          l_bytes;
          l_bundle =
            {
              b_seed = head.mh_seed;
              b_rotation_policy = head.mh_policy;
              b_compiled = compiled;
              b_keys = keys;
            };
        }

let restore_keyset t ~with_secret =
  Compiler.keyset t.b_compiled ~seed:t.b_seed ~rotation_keys:t.b_rotation_policy ?keys:t.b_keys
    ~with_secret ()

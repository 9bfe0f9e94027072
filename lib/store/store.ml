(* Crash-safe generation store. Interface documentation in store.mli;
   bundle schema on top of it in bundle.ml; architecture in DESIGN.md §11.

   Write discipline: payload to <name>.tmp -> flush -> rename, MANIFEST the
   same way last, so the manifest rename is the single commit point. Reads
   trust nothing: a generation only serves after every length and FNV-1a-64
   digest in its manifest re-verifies against the bytes on disk. *)

module Herr = Chet_herr.Herr
module Serial = Chet_crypto.Serial

(* ------------------------------------------------------------------ *)
(* Kill points                                                          *)
(* ------------------------------------------------------------------ *)

type kill_point =
  | Pre_gen_dir
  | Pre_file_tmp of string
  | Mid_file_write of string
  | Pre_file_rename of string
  | Post_file_rename of string
  | Pre_manifest_tmp
  | Mid_manifest_write
  | Pre_manifest_rename
  | Post_manifest_rename

exception Killed of kill_point

let kill_point_name = function
  | Pre_gen_dir -> "pre-gen-dir"
  | Pre_file_tmp f -> "pre-tmp:" ^ f
  | Mid_file_write f -> "mid-write:" ^ f
  | Pre_file_rename f -> "pre-rename:" ^ f
  | Post_file_rename f -> "post-rename:" ^ f
  | Pre_manifest_tmp -> "pre-manifest-tmp"
  | Mid_manifest_write -> "mid-manifest-write"
  | Pre_manifest_rename -> "pre-manifest-rename"
  | Post_manifest_rename -> "post-manifest-rename"

let kill_points ~files =
  Pre_gen_dir
  :: List.concat_map
       (fun f -> [ Pre_file_tmp f; Mid_file_write f; Pre_file_rename f; Post_file_rename f ])
       files
  @ [ Pre_manifest_tmp; Mid_manifest_write; Pre_manifest_rename; Post_manifest_rename ]

(* The armed hook fires once then disarms, like Fault_backend's one-shot
   injection: a single save exercises exactly one abort. *)
let armed : kill_point option ref = ref None
let arm_kill_point p = armed := p

let with_kill_point p f =
  (match !armed with
  | Some q when q = p ->
      armed := None;
      raise (Killed p)
  | _ -> ());
  f ()

let check p = with_kill_point p (fun () -> ())
let check_opt = function Some p -> check p | None -> ()

(* ------------------------------------------------------------------ *)
(* Filesystem plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let manifest_name = "MANIFEST"
let quarantine_dirname = "quarantine"

let mkdir_p path =
  let rec make p =
    if not (Sys.file_exists p) then begin
      make (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec write_all fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)
  end

(* Durability of the rename itself needs the parent directory flushed;
   best-effort (some filesystems refuse fsync on a directory fd). *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* tmp-write / flush / rename, with the three per-file kill checkpoints.
   [Mid_file_write] observes the first half of the payload on disk — the
   torn write the manifest checksum must later reject. *)
let write_atomic ?pre_tmp ?mid ?pre_rename ~dir ~name bytes =
  check_opt pre_tmp;
  let tmp = Filename.concat dir (name ^ ".tmp") in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let half = String.length bytes / 2 in
      write_all fd bytes 0 half;
      check_opt mid;
      write_all fd bytes half (String.length bytes - half);
      Unix.fsync fd);
  check_opt pre_rename;
  Sys.rename tmp (Filename.concat dir name);
  fsync_dir dir

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* ------------------------------------------------------------------ *)
(* Generations and manifests                                            *)
(* ------------------------------------------------------------------ *)

type t = { st_root : string; st_keep : int }

let root t = t.st_root
let gen_dirname id = Printf.sprintf "gen-%06d" id
let gen_path t id = Filename.concat t.st_root (gen_dirname id)
let quarantine_path t = Filename.concat t.st_root quarantine_dirname

let gen_id_of_dirname name =
  if String.length name = 10 && String.sub name 0 4 = "gen-" then
    match int_of_string_opt (String.sub name 4 6) with
    | Some id when id > 0 -> Some id
    | _ -> None
  else None

let list_generations t =
  (if Sys.file_exists t.st_root then Sys.readdir t.st_root else [||])
  |> Array.to_list
  |> List.filter_map (fun name ->
         if Sys.is_directory (Filename.concat t.st_root name) then gen_id_of_dirname name else None)
  |> List.sort (fun a b -> compare b a)

let generations = list_generations

let manifest_version = 1

type entry = { e_name : string; e_len : int; e_hash : int64 }

let write_manifest_bytes ~gen_id entries =
  let w = Serial.writer () in
  Serial.write_frame w "MFST" (fun w ->
      Serial.write_int w manifest_version;
      Serial.write_int w gen_id;
      Serial.write_int w (List.length entries);
      List.iter
        (fun e ->
          Serial.write_string w e.e_name;
          Serial.write_int w e.e_len;
          Serial.write_raw_int64 w e.e_hash)
        entries);
  Serial.contents w

let read_manifest_bytes bytes =
  let r = Serial.reader bytes in
  let v =
    Serial.read_frame r "MFST" (fun r ->
        let version = Serial.read_int r in
        if version <> manifest_version then
          raise (Serial.Corrupt (Printf.sprintf "unsupported manifest version %d" version));
        let gen_id = Serial.read_int r in
        let count = Serial.read_int r in
        if count < 0 || count > 4096 then raise (Serial.Corrupt "bad manifest entry count");
        let entries =
          List.init count (fun _ ->
              let e_name = Serial.read_string r in
              let e_len = Serial.read_int r in
              if e_len < 0 then raise (Serial.Corrupt "bad manifest entry length");
              let e_hash = Serial.read_raw_int64 r in
              { e_name; e_len; e_hash })
        in
        (gen_id, entries))
  in
  if not (Serial.reader_eof r) then raise (Serial.Corrupt "MFST: trailing bytes after manifest");
  v

let corrupt ~path reason = Herr.Corrupt_bundle { path; reason }

(* Verify one generation bottom-up: manifest frame first, then every listed
   file's existence, length and digest. Returns the verified contents so
   [load] never reads a byte it has not checksummed. *)
let verify_generation t id : (int * (string * string) list, Herr.error) result =
  let dir = gen_path t id in
  let mpath = Filename.concat dir manifest_name in
  if not (Sys.file_exists mpath) then Error (corrupt ~path:(gen_dirname id) "missing MANIFEST")
  else
    match read_manifest_bytes (read_file mpath) with
    | exception Serial.Corrupt reason -> Error (corrupt ~path:(gen_dirname id) reason)
    | exception Sys_error reason -> Error (corrupt ~path:(gen_dirname id) reason)
    | mid, _ when mid <> id ->
        Error (corrupt ~path:(gen_dirname id) (Printf.sprintf "manifest names generation %d" mid))
    | _, entries -> (
        let verify_entry e =
          let fpath = Filename.concat dir e.e_name in
          let rel = Filename.concat (gen_dirname id) e.e_name in
          if not (Sys.file_exists fpath) then Error (corrupt ~path:rel "listed file missing")
          else
            match read_file fpath with
            | exception Sys_error reason -> Error (corrupt ~path:rel reason)
            | bytes ->
                if String.length bytes <> e.e_len then
                  Error
                    (corrupt ~path:rel
                       (Printf.sprintf "length mismatch: manifest says %d, file has %d" e.e_len
                          (String.length bytes)))
                else if
                  not (Int64.equal (Serial.fnv1a64 bytes ~pos:0 ~len:e.e_len) e.e_hash)
                then Error (corrupt ~path:rel "checksum mismatch")
                else Ok (e.e_name, bytes)
        in
        let rec walk acc bytes = function
          | [] -> Ok (bytes, List.rev acc)
          | e :: rest -> (
              match verify_entry e with
              | Error err -> Error err
              | Ok ((_, b) as file) -> walk (file :: acc) (bytes + String.length b) rest)
        in
        match walk [] 0 entries with Ok r -> Ok r | Error e -> Error e)

type status = { g_id : int; g_result : (int, Herr.error) result }

let verify t =
  List.map
    (fun id ->
      {
        g_id = id;
        g_result =
          (match verify_generation t id with
          | Ok (bytes, _) -> Ok bytes
          | Error e -> Error e);
      })
    (list_generations t)

(* ------------------------------------------------------------------ *)
(* Quarantine                                                           *)
(* ------------------------------------------------------------------ *)

(* Move a damaged entry (generation dir or sidecar file) under quarantine/,
   keeping it for post-mortem instead of deleting evidence; the typed reason
   is written alongside so `chet store ls` can display it. *)
let quarantine_entry t ~name (reason : Herr.error) =
  mkdir_p (quarantine_path t);
  let src = Filename.concat t.st_root name in
  let rec fresh_dest k =
    let d =
      Filename.concat (quarantine_path t) (if k = 0 then name else Printf.sprintf "%s-%d" name k)
    in
    if Sys.file_exists d then fresh_dest (k + 1) else d
  in
  let dest = fresh_dest 0 in
  Sys.rename src dest;
  let reason_path =
    if Sys.is_directory dest then Filename.concat dest "QUARANTINE" else dest ^ ".reason"
  in
  (try
     let oc = open_out_bin reason_path in
     output_string oc (Herr.error_name reason ^ ": " ^ Herr.error_detail reason ^ "\n");
     close_out_noerr oc
   with Sys_error _ -> ());
  Filename.basename dest

(* ------------------------------------------------------------------ *)
(* Open & recovery                                                      *)
(* ------------------------------------------------------------------ *)

type report = {
  r_active : int option;
  r_verified_bytes : int;
  r_quarantined : (string * Herr.error) list;
  r_removed_tmp : int;
}

let open_ ?(keep = 3) ?(create = true) rt =
  if keep < 1 then invalid_arg "Store.open_: keep must be >= 1";
  if (not create) && not (Sys.file_exists rt && Sys.is_directory rt) then
    Herr.raise_err ~backend:"store" ~op:"open"
      (corrupt ~path:rt "no store at this path (nothing created)");
  mkdir_p rt;
  mkdir_p (Filename.concat rt quarantine_dirname);
  let t = { st_root = rt; st_keep = keep } in
  (* stray *.tmp at the root (sidecar writes that never committed) are
     uncommitted by construction: delete *)
  let removed = ref 0 in
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then begin
        remove_tree (Filename.concat rt name);
        incr removed
      end)
    (Sys.readdir rt);
  (* verify newest-first; the first generation that proves itself becomes
     active, every generation that fails is quarantined with its typed
     reason — old or new, a lying bundle must never be served later *)
  let quarantined = ref [] in
  let active = ref None in
  let active_bytes = ref 0 in
  List.iter
    (fun id ->
      match verify_generation t id with
      | Ok (bytes, _) ->
          if !active = None then begin
            active := Some id;
            active_bytes := bytes
          end
      | Error reason ->
          let moved = quarantine_entry t ~name:(gen_dirname id) reason in
          quarantined := (moved, reason) :: !quarantined)
    (list_generations t);
  ( t,
    {
      r_active = !active;
      r_verified_bytes = !active_bytes;
      r_quarantined = List.rev !quarantined;
      r_removed_tmp = !removed;
    } )

let load t =
  let rec first = function
    | [] -> None
    | id :: rest -> (
        match verify_generation t id with
        | Ok (_, files) -> Some (id, files)
        | Error _ -> first rest)
  in
  first (list_generations t)

(* ------------------------------------------------------------------ *)
(* GC                                                                   *)
(* ------------------------------------------------------------------ *)

let quarantine_cap = 16

let gc t ~keep =
  if keep < 1 then invalid_arg "Store.gc: keep must be >= 1";
  let removed = ref [] in
  let rm_root name =
    remove_tree (Filename.concat t.st_root name);
    removed := name :: !removed
  in
  (match list_generations t with
  | gens when List.length gens > keep ->
      List.iteri (fun i id -> if i >= keep then rm_root (gen_dirname id)) gens
  | _ -> ());
  (* cap quarantine debris too: oldest (lexicographically-first, since
     generation names sort by id) entries go once the box overflows *)
  let qdir = quarantine_path t in
  if Sys.file_exists qdir then begin
    let entries =
      Sys.readdir qdir |> Array.to_list
      |> List.filter (fun n -> not (Filename.check_suffix n ".reason"))
      |> List.sort compare
    in
    let excess = List.length entries - quarantine_cap in
    if excess > 0 then
      List.iteri
        (fun i n ->
          if i < excess then begin
            remove_tree (Filename.concat qdir n);
            let reason = Filename.concat qdir (n ^ ".reason") in
            if Sys.file_exists reason then Sys.remove reason;
            removed := Filename.concat quarantine_dirname n :: !removed
          end)
        entries
  end;
  List.rev !removed

(* ------------------------------------------------------------------ *)
(* Save                                                                 *)
(* ------------------------------------------------------------------ *)

let valid_name name =
  name <> "" && name <> manifest_name
  && (not (Filename.check_suffix name ".tmp"))
  && name.[0] <> '.'
  && String.for_all (fun c -> c <> '/' && c <> '\\' && c <> '\000') name

let save t ~files =
  if files = [] then invalid_arg "Store.save: empty file list";
  List.iter
    (fun (name, _) ->
      if not (valid_name name) then
        invalid_arg (Printf.sprintf "Store.save: unusable file name %S" name))
    files;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (name, _) ->
      if Hashtbl.mem seen name then
        invalid_arg (Printf.sprintf "Store.save: duplicate file name %S" name);
      Hashtbl.add seen name ())
    files;
  let id = match list_generations t with [] -> 1 | newest :: _ -> newest + 1 in
  let dir = gen_path t id in
  check Pre_gen_dir;
  mkdir_p dir;
  List.iter
    (fun (name, bytes) ->
      write_atomic ~pre_tmp:(Pre_file_tmp name) ~mid:(Mid_file_write name)
        ~pre_rename:(Pre_file_rename name) ~dir ~name bytes;
      check (Post_file_rename name))
    files;
  let entries =
    List.map
      (fun (name, bytes) ->
        {
          e_name = name;
          e_len = String.length bytes;
          e_hash = Serial.fnv1a64 bytes ~pos:0 ~len:(String.length bytes);
        })
      files
  in
  write_atomic ~pre_tmp:Pre_manifest_tmp ~mid:Mid_manifest_write ~pre_rename:Pre_manifest_rename
    ~dir ~name:manifest_name
    (write_manifest_bytes ~gen_id:id entries);
  check Post_manifest_rename;
  ignore (gc t ~keep:t.st_keep);
  id

(* ------------------------------------------------------------------ *)
(* Sidecar state files                                                  *)
(* ------------------------------------------------------------------ *)

let state_frame bytes =
  let w = Serial.writer () in
  Serial.write_frame w "STAT" (fun w -> Serial.write_string w bytes);
  Serial.contents w

let parse_state_frame bytes =
  let r = Serial.reader bytes in
  let v = Serial.read_frame r "STAT" Serial.read_string in
  if not (Serial.reader_eof r) then raise (Serial.Corrupt "STAT: trailing bytes");
  v

let save_state t ~name bytes =
  if not (valid_name name) || gen_id_of_dirname name <> None || name = quarantine_dirname then
    invalid_arg (Printf.sprintf "Store.save_state: unusable sidecar name %S" name);
  write_atomic ~pre_tmp:(Pre_file_tmp name) ~mid:(Mid_file_write name)
    ~pre_rename:(Pre_file_rename name) ~dir:t.st_root ~name (state_frame bytes)

let load_state t ~name =
  let path = Filename.concat t.st_root name in
  if not (Sys.file_exists path) then None
  else
    match parse_state_frame (read_file path) with
    | bytes -> Some (Ok bytes)
    | exception Serial.Corrupt reason ->
        let err = corrupt ~path:name reason in
        ignore (quarantine_entry t ~name err);
        Some (Error err)
    | exception Sys_error reason -> Some (Error (corrupt ~path:name reason))

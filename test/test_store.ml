(* The durable-deployment store's crash-safety contract (DESIGN.md §11):

     (a) save/load round trip through numbered generations, newest wins;
     (b) kill-point matrix: a save aborted at EVERY enumerated point of the
         write sequence leaves, after recovery, either the old or the new
         bundle fully intact — never a torn hybrid — and the store accepts
         new writes afterwards;
     (c) a corrupted newest generation is quarantined with a typed
         [Corrupt_bundle] and the previous generation is served;
     (d) fuzz: the MANIFEST frame rejects truncation at every byte boundary
         and seeded single-bit flips with a typed error — no exception ever
         escapes verification;
     (e) deployment bundles round trip, and a warm-restarted factory
         (stored public keys + seed-re-derived secret key) is bit-identical
         to the deployment that wrote the bundle;
     (f) a store written by an older version, with its [service.state]
         sidecar, opens cleanly and warm-restarts; the sidecar is left
         alone. *)

module Store = Chet_store.Store
module Bundle = Chet_store.Bundle
module Compiler = Chet.Compiler
module Models = Chet_nn.Models
module Herr = Chet_herr.Herr
module Serial = Chet_crypto.Serial
module Hisa = Chet_hisa.Hisa
module T = Chet_tensor.Tensor

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                  *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

let with_store_dir f =
  incr dir_counter;
  let dir =
    Printf.sprintf "%s/chet-store-test-%d-%d"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !dir_counter
  in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () ->
      Store.arm_kill_point None;
      rm_rf dir)
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let flip_bit path ~pos ~bit =
  let b = Bytes.of_string (read_file path) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  write_file path (Bytes.to_string b)

let files_v1 =
  [
    ("alpha.bin", "the first payload \x00\x01\x02");
    ("beta.bin", String.init 257 (fun i -> Char.chr (i mod 251)));
  ]

let files_v2 = [ ("alpha.bin", "second generation alpha"); ("beta.bin", "short") ]
let check_files name expected got = Alcotest.(check (list (pair string string))) name expected got

(* ------------------------------------------------------------------ *)
(* (a) round trip                                                       *)
(* ------------------------------------------------------------------ *)

let test_save_load_roundtrip () =
  with_store_dir (fun dir ->
      let store, report = Store.open_ dir in
      Alcotest.(check (option int)) "fresh store has no active generation" None report.Store.r_active;
      Alcotest.(check int) "first generation id" 1 (Store.save store ~files:files_v1);
      (match Store.load store with
      | Some (1, files) -> check_files "v1 read back" files_v1 files
      | _ -> Alcotest.fail "generation 1 not served");
      Alcotest.(check int) "second generation id" 2 (Store.save store ~files:files_v2);
      (match Store.load store with
      | Some (2, files) -> check_files "newest generation wins" files_v2 files
      | _ -> Alcotest.fail "generation 2 not served");
      (* reopen: recovery re-verifies every checksum and keeps both *)
      let _, r = Store.open_ dir in
      Alcotest.(check (option int)) "active after reopen" (Some 2) r.Store.r_active;
      Alcotest.(check int) "nothing quarantined" 0 (List.length r.Store.r_quarantined);
      Alcotest.(check bool) "verified bytes counted" true (r.Store.r_verified_bytes > 0))

let test_save_rejects_bad_names () =
  with_store_dir (fun dir ->
      let store, _ = Store.open_ dir in
      let rejected name files =
        match Store.save store ~files with
        | _ -> Alcotest.failf "%s: accepted" name
        | exception Invalid_argument _ -> ()
      in
      rejected "empty file list" [];
      rejected "manifest collision" [ ("MANIFEST", "x") ];
      rejected "path separator" [ ("a/b", "x") ];
      rejected "leading dot" [ (".hidden", "x") ];
      rejected "tmp suffix" [ ("a.tmp", "x") ];
      rejected "duplicate name" [ ("a", "x"); ("a", "y") ])

(* ------------------------------------------------------------------ *)
(* (b) kill-point matrix                                                *)
(* ------------------------------------------------------------------ *)

let test_kill_point_matrix () =
  let points = Store.kill_points ~files:(List.map fst files_v2) in
  Alcotest.(check int) "matrix enumerates the whole write sequence" 13 (List.length points);
  List.iter
    (fun kp ->
      let name = Store.kill_point_name kp in
      with_store_dir (fun dir ->
          let store, _ = Store.open_ dir in
          let g1 = Store.save store ~files:files_v1 in
          Store.arm_kill_point (Some kp);
          (match Store.save store ~files:files_v2 with
          | _ -> Alcotest.failf "%s: save survived its kill point" name
          | exception Store.Killed p ->
              Alcotest.(check string) (name ^ ": fired where armed") name (Store.kill_point_name p));
          (* the process died here; a fresh one runs recovery *)
          let store2, report = Store.open_ dir in
          List.iter
            (fun (entry, e) ->
              match e with
              | Herr.Corrupt_bundle _ -> ()
              | e -> Alcotest.failf "%s: %s quarantined with %s" name entry (Herr.error_name e))
            report.Store.r_quarantined;
          (match Store.load store2 with
          | None -> Alcotest.failf "%s: no generation survived the crash" name
          | Some (id, files) ->
              if kp = Store.Post_manifest_rename then begin
                (* the commit rename happened: the new bundle must be served *)
                Alcotest.(check int) (name ^ ": new generation active") (g1 + 1) id;
                check_files (name ^ ": new bundle intact") files_v2 files
              end
              else begin
                (* not yet committed: the old bundle must be fully intact *)
                Alcotest.(check int) (name ^ ": old generation active") g1 id;
                check_files (name ^ ": old bundle intact") files_v1 files
              end);
          (* recovery leaves a writable store *)
          let g3 = Store.save store2 ~files:files_v1 in
          match Store.load store2 with
          | Some (id, files) when id = g3 -> check_files (name ^ ": post-recovery save") files_v1 files
          | _ -> Alcotest.failf "%s: store not writable after recovery" name))
    points

(* ------------------------------------------------------------------ *)
(* (c) corruption -> quarantine + fallback                              *)
(* ------------------------------------------------------------------ *)

let test_corrupt_newest_falls_back () =
  with_store_dir (fun dir ->
      let store, _ = Store.open_ dir in
      ignore (Store.save store ~files:files_v1);
      ignore (Store.save store ~files:files_v2);
      ignore store;
      flip_bit (Filename.concat dir "gen-000002/alpha.bin") ~pos:3 ~bit:4;
      let store2, report = Store.open_ dir in
      Alcotest.(check (option int)) "fell back to previous generation" (Some 1) report.Store.r_active;
      (match report.Store.r_quarantined with
      | [ (entry, Herr.Corrupt_bundle { path; reason }) ] ->
          Alcotest.(check bool) "quarantine entry names the generation" true
            (String.length entry >= 10 && String.sub entry 0 10 = "gen-000002");
          Alcotest.(check string) "typed reason" "checksum mismatch" reason;
          Alcotest.(check bool) "path names the damaged file" true
            (path = "gen-000002/alpha.bin")
      | _ -> Alcotest.fail "expected exactly one typed quarantined generation");
      (* the damaged bytes were moved, not destroyed: evidence for post-mortem *)
      Alcotest.(check bool) "quarantine keeps the bytes" true
        (Sys.file_exists (Filename.concat dir "quarantine/gen-000002/alpha.bin"));
      match Store.load store2 with
      | Some (1, files) -> check_files "previous generation served" files_v1 files
      | _ -> Alcotest.fail "previous generation not served")

(* ------------------------------------------------------------------ *)
(* (d) MANIFEST fuzz: truncation + bit flips                            *)
(* ------------------------------------------------------------------ *)

let newest_status store =
  match Store.verify store with
  | s :: _ -> s
  | [] -> Alcotest.fail "store unexpectedly empty"

let test_manifest_truncation_sweep () =
  with_store_dir (fun dir ->
      let store, _ = Store.open_ dir in
      ignore (Store.save store ~files:files_v1);
      let mpath = Filename.concat dir "gen-000001/MANIFEST" in
      let pristine = read_file mpath in
      for len = 0 to String.length pristine - 1 do
        write_file mpath (String.sub pristine 0 len);
        match (newest_status store).Store.g_result with
        | Error (Herr.Corrupt_bundle _) -> ()
        | Ok _ -> Alcotest.failf "manifest truncated to %d bytes accepted" len
        | Error e ->
            Alcotest.failf "manifest truncated to %d bytes: wrong error %s" len (Herr.error_name e)
      done;
      write_file mpath pristine;
      match (newest_status store).Store.g_result with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "pristine manifest no longer verifies")

let test_manifest_bitflip_fuzz () =
  with_store_dir (fun dir ->
      let store, _ = Store.open_ dir in
      ignore (Store.save store ~files:files_v1);
      let mpath = Filename.concat dir "gen-000001/MANIFEST" in
      let pristine = read_file mpath in
      let n = String.length pristine in
      let state = ref 0xC0FFEE in
      let next () =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state
      in
      for _ = 1 to 256 do
        write_file mpath pristine;
        let pos = next () mod n and bit = next () mod 8 in
        flip_bit mpath ~pos ~bit;
        match (newest_status store).Store.g_result with
        | Error (Herr.Corrupt_bundle _) -> ()
        | Ok _ -> Alcotest.failf "bit flip at byte %d bit %d accepted" pos bit
        | Error e ->
            Alcotest.failf "bit flip at byte %d bit %d: wrong error %s" pos bit (Herr.error_name e)
      done;
      write_file mpath pristine)

let test_payload_truncation_sweep () =
  with_store_dir (fun dir ->
      let store, _ = Store.open_ dir in
      ignore (Store.save store ~files:files_v2);
      let fpath = Filename.concat dir "gen-000001/alpha.bin" in
      let pristine = read_file fpath in
      for len = 0 to String.length pristine - 1 do
        write_file fpath (String.sub pristine 0 len);
        match (newest_status store).Store.g_result with
        | Error (Herr.Corrupt_bundle _) -> ()
        | Ok _ -> Alcotest.failf "payload truncated to %d bytes accepted" len
        | Error e ->
            Alcotest.failf "payload truncated to %d bytes: wrong error %s" len (Herr.error_name e)
      done;
      write_file fpath pristine)

(* ------------------------------------------------------------------ *)
(* Retention                                                            *)
(* ------------------------------------------------------------------ *)

let test_retention_gc () =
  with_store_dir (fun dir ->
      let store, _ = Store.open_ ~keep:2 dir in
      List.iter
        (fun i -> ignore (Store.save store ~files:[ ("only", Printf.sprintf "generation %d" i) ]))
        [ 1; 2; 3; 4; 5 ];
      Alcotest.(check (list int)) "save applies keep=2" [ 5; 4 ] (Store.generations store);
      let removed = Store.gc store ~keep:1 in
      Alcotest.(check (list int)) "gc to keep=1" [ 5 ] (Store.generations store);
      Alcotest.(check int) "one directory removed" 1 (List.length removed))

(* ------------------------------------------------------------------ *)
(* (e) compiled configurations and deployment bundles                   *)
(* ------------------------------------------------------------------ *)

let micro = Models.micro.Models.build ()
let compiled = lazy (Compiler.compile (Compiler.default_options ()) micro)

(* The real compile targets N=16384 (128-bit security); real keygen and
   inference there cost tens of seconds. The durable-deployment contract is
   about persistence, not parameter security, so the bundle tests shrink
   the ring to N=512 — same modulus chain, same circuit, fast keys. *)
let small_compiled () =
  let c = Lazy.force compiled in
  match c.Compiler.params with
  | Compiler.Rns_params { n = _; prime_bits; num_primes; log_q } ->
      { c with Compiler.params = Compiler.Rns_params { n = 512; prime_bits; num_primes; log_q } }
  | Compiler.Pow2_params _ -> Alcotest.fail "expected an RNS compile"

let test_compiled_roundtrip () =
  let c = Lazy.force compiled in
  let w = Serial.writer () in
  Compiler.write_compiled w c;
  let bytes = Serial.contents w in
  let r = Serial.reader bytes in
  let c' = Compiler.read_compiled ~circuit:micro r in
  Alcotest.(check bool) "frame fully consumed" true (Serial.reader_eof r);
  Alcotest.(check bool) "policy" true (c'.Compiler.policy = c.Compiler.policy);
  Alcotest.(check bool) "params" true (c'.Compiler.params = c.Compiler.params);
  Alcotest.(check (list (pair int int))) "rotations" c.Compiler.rotations c'.Compiler.rotations;
  Alcotest.(check bool) "op counters" true (c'.Compiler.op_counters = c.Compiler.op_counters);
  Alcotest.(check int) "reports" (List.length c.Compiler.reports) (List.length c'.Compiler.reports);
  Alcotest.(check bool) "scales" true
    (c'.Compiler.opts.Compiler.scales = c.Compiler.opts.Compiler.scales);
  (* a frame compiled for a different circuit is a typed rejection *)
  let other = Models.cryptonets.Models.build () in
  match Compiler.read_compiled ~circuit:other (Serial.reader bytes) with
  | _ -> Alcotest.fail "accepted a frame compiled for a different circuit"
  | exception Serial.Corrupt _ -> ()

let test_bundle_fields_roundtrip () =
  with_store_dir (fun dir ->
      let c = small_compiled () in
      let bundle = Bundle.build ~with_keys:false c ~seed:9 () in
      (match List.assoc_opt "meta.chet" (Bundle.files bundle) with
      | Some meta ->
          let name, seed = Bundle.peek_meta meta in
          Alcotest.(check string) "peek: circuit name" "micro" name;
          Alcotest.(check int) "peek: seed" 9 seed
      | None -> Alcotest.fail "bundle has no meta.chet");
      let store, _ = Store.open_ dir in
      ignore (Bundle.save store bundle);
      (match Bundle.load store ~circuit:micro with
      | Some l ->
          let b = l.Bundle.l_bundle in
          Alcotest.(check bool) "no keys stored" true (b.Bundle.b_keys = None);
          Alcotest.(check bool) "compiled params restored" true
            (b.Bundle.b_compiled.Compiler.params = c.Compiler.params)
      | None -> Alcotest.fail "bundle load failed");
      (* schema damage *below* the store's checksums (a wrong-but-intact
         frame) surfaces as a typed Corrupt_bundle, not a crash; so does an
         intact frame of the retired version 1, which carried scale-summary
         and calibration flags between the key flag and the CMPD frame, and
         one of version 2, whose stored rotation selection predates the
         plan a restart rebuilds (here: one of the plan's amounts missing,
         so its keys could not serve a request) *)
      let frame tag body =
        let w = Serial.writer () in
        Serial.write_frame w tag body;
        Serial.contents w
      in
      let not_a_bundle = frame "STAT" (fun w -> Serial.write_string w "not a bundle") in
      let bndl_v1 =
        frame "BNDL" (fun w ->
            Serial.write_int w 1;
            Serial.write_string w "micro";
            (* seed, rotation policy, no keys, no calibration, no scale summary *)
            List.iter (Serial.write_int w) [ 9; 0; 0; 0; 0 ];
            Compiler.write_compiled w c)
      in
      let bndl_v2 =
        let stale = { c with Compiler.rotations = List.tl c.Compiler.rotations } in
        frame "BNDL" (fun w ->
            Serial.write_int w 2;
            Serial.write_string w "micro";
            (* seed, rotation policy, no keys *)
            List.iter (Serial.write_int w) [ 9; 0; 0 ];
            Compiler.write_compiled w stale)
      in
      List.iter
        (fun (what, meta) ->
          ignore (Store.save store ~files:[ ("meta.chet", meta) ]);
          match Bundle.load store ~circuit:micro with
          | exception Herr.Fhe_error (Herr.Corrupt_bundle _, _) -> ()
          | _ -> Alcotest.failf "%s not reported as typed Corrupt_bundle" what)
        [
          ("schema damage", not_a_bundle);
          ("a version-1 BNDL frame", bndl_v1);
          ("a version-2 BNDL frame with rotations older than the plan", bndl_v2);
        ])

let test_bundle_warm_restart_bit_identical () =
  with_store_dir (fun dir ->
      let c = small_compiled () in
      let seed = 1234 in
      let bundle = Bundle.build c ~seed () in
      Alcotest.(check bool) "public keys exported for RNS" true (bundle.Bundle.b_keys <> None);
      let store, _ = Store.open_ dir in
      ignore (Bundle.save store bundle);
      match Bundle.load store ~circuit:micro with
      | None -> Alcotest.fail "bundle load failed"
      | Some l ->
          Alcotest.(check bool) "restore accounted its bytes" true (l.Bundle.l_bytes > 0);
          let b = l.Bundle.l_bundle in
          Alcotest.(check int) "seed restored" seed b.Bundle.b_seed;
          let img = Models.input_for Models.micro ~seed:501 in
          let run ks =
            let module H = (val Compiler.view ks ~req_seed:77 : Hisa.S) in
            let module E = Chet_plan.Plan_exec.Make (H) in
            E.eval c.Compiler.opts.Compiler.scales micro ~policy:c.Compiler.policy img
          in
          let fresh = Compiler.keyset c ~seed ~with_secret:true () in
          let restored = Bundle.restore_keyset b ~with_secret:true in
          let a = run fresh in
          let r = run restored in
          Alcotest.(check (float 0.0))
            "warm-restarted inference is bit-identical" 0.0
            (T.max_abs_diff (T.flatten a) (T.flatten r)))

(* ------------------------------------------------------------------ *)
(* (f) upgrade: a state dir written by an older version                 *)
(* ------------------------------------------------------------------ *)

(* Older versions persisted the serving layer's breaker memory as a
   [service.state] sidecar (a [STAT] checksum frame) beside the
   generations. Nothing reads it any more: the store must open with nothing
   quarantined, warm-restart the bundle, and leave the file as it was. *)
let test_upgrade_leftover_sidecar () =
  with_store_dir (fun dir ->
      let c = small_compiled () in
      let store, _ = Store.open_ dir in
      let gen = Bundle.save store (Bundle.build ~with_keys:false c ~seed:9 ()) in
      let leftover =
        let w = Serial.writer () in
        Serial.write_frame w "STAT" (fun w -> Serial.write_string w "breaker bytes");
        Serial.contents w
      in
      let sidecar = Filename.concat dir "service.state" in
      write_file sidecar leftover;
      let store2, report = Store.open_ dir in
      Alcotest.(check (list string)) "nothing quarantined" []
        (List.map fst report.Store.r_quarantined);
      Alcotest.(check (option int)) "the generation is active" (Some gen) report.Store.r_active;
      (match Bundle.load store2 ~circuit:micro with
      | Some l ->
          Alcotest.(check int) "warm restart from the generation" gen l.Bundle.l_generation;
          Alcotest.(check bool) "compiled params restored" true
            (l.Bundle.l_bundle.Bundle.b_compiled.Compiler.params = c.Compiler.params)
      | None -> Alcotest.fail "bundle not restored");
      Alcotest.(check string) "leftover sidecar left alone" leftover (read_file sidecar))

let suite =
  [
    ( "store",
      [
        Alcotest.test_case "save/load round trip" `Quick test_save_load_roundtrip;
        Alcotest.test_case "unusable names rejected" `Quick test_save_rejects_bad_names;
        Alcotest.test_case "kill-point matrix: old or new, never torn" `Quick
          test_kill_point_matrix;
        Alcotest.test_case "corrupt newest quarantined, previous served" `Quick
          test_corrupt_newest_falls_back;
        Alcotest.test_case "manifest truncation sweep" `Quick test_manifest_truncation_sweep;
        Alcotest.test_case "manifest bit-flip fuzz" `Quick test_manifest_bitflip_fuzz;
        Alcotest.test_case "payload truncation sweep" `Quick test_payload_truncation_sweep;
        Alcotest.test_case "retention + gc" `Quick test_retention_gc;
        Alcotest.test_case "older store with a service.state sidecar opens" `Quick
          test_upgrade_leftover_sidecar;
        Alcotest.test_case "compiled CMPD frame round trip" `Quick test_compiled_roundtrip;
        Alcotest.test_case "bundle fields round trip + schema damage typed" `Quick
          test_bundle_fields_roundtrip;
        Alcotest.test_case "warm restart bit-identical (real keys, small ring)" `Slow
          test_bundle_warm_restart_bit_identical;
      ] );
  ]

(** Crash-safe on-disk deployment store (DESIGN.md §11).

    A store is a directory of immutable numbered {e generations}
    ([gen-000001/], [gen-000002/], …), each holding a set of named payload
    files plus a [MANIFEST] — a checksummed [MFST] frame recording every
    file's byte length and FNV-1a-64 digest. Writes follow atomic-rename
    discipline end to end: every payload is written to [<name>.tmp],
    flushed and renamed; the [MANIFEST] is written the same way {e last},
    making its rename the commit point. A crash at any instant therefore
    leaves either the previous generation or the new one fully intact —
    never a torn hybrid, which {!open_}'s recovery pass proves by
    re-verifying every checksum.

    On open, generations that fail verification (missing manifest, torn
    file, flipped bit) are moved into [quarantine/] with a typed
    {!Chet_herr.Herr.Corrupt_bundle} reason instead of crashing the
    process, and the newest generation that {e does} verify becomes the
    active one — the fall-back-to-previous-generation contract. Old
    generations beyond a retention budget are garbage-collected.

    Nothing else is written: the store holds generations and the
    quarantine. Other files in the root (such as the [service.state]
    sidecar an older version wrote) are neither read nor touched, except
    uncommitted [*.tmp] debris, which {!open_} deletes.

    The kill-point hook ({!arm_kill_point}, mirroring
    {!Chet_hisa.Fault_backend}'s seeded-injection style) aborts the write
    sequence at any enumerated instant so tests can prove the recovery
    contract at every point of the write sequence. *)

module Herr = Chet_herr.Herr

(** {1 Kill points}

    Every checkpoint of {!save}'s write sequence, in execution order.
    [Mid_file_write f] fires with the first half of [f]'s bytes already on
    disk — the torn-write case the manifest checksums must catch. *)

type kill_point =
  | Pre_gen_dir  (** before the generation directory exists *)
  | Pre_file_tmp of string  (** before [<name>.tmp] is created *)
  | Mid_file_write of string  (** half of [<name>.tmp] written and flushed *)
  | Pre_file_rename of string  (** [<name>.tmp] complete, not yet renamed *)
  | Post_file_rename of string  (** [<name>] committed, manifest still absent *)
  | Pre_manifest_tmp
  | Mid_manifest_write
  | Pre_manifest_rename  (** everything but the commit rename done *)
  | Post_manifest_rename  (** committed; old-generation GC still pending *)

exception Killed of kill_point

val kill_point_name : kill_point -> string

val kill_points : files:string list -> kill_point list
(** The full write sequence for a bundle with these payload names, in the
    order {!save} traverses it — the enumeration the recovery tests sweep. *)

val arm_kill_point : kill_point option -> unit
(** Arm the hook: the next time {!save} reaches the
    given point it raises {!Killed} — once; the hook disarms on firing.
    [None] disarms. Test-only machinery, like [Fault_backend.wrap]. *)

val with_kill_point : kill_point -> (unit -> 'a) -> 'a
(** Run the thunk at a kill point: raises {!Killed} first if the armed hook
    matches. The store's own write sequence is built from this; exposed so
    tests (or embedders with custom write sequences) can add checkpoints. *)

(** {1 The store} *)

type t

type report = {
  r_active : int option;  (** generation chosen to serve after recovery *)
  r_verified_bytes : int;  (** payload bytes checksummed in the active generation *)
  r_quarantined : (string * Herr.error) list;  (** moved entry, typed reason *)
  r_removed_tmp : int;  (** stray [*.tmp] debris deleted *)
}

val open_ : ?keep:int -> ?create:bool -> string -> t * report
(** Open (creating if needed) the store rooted at the given directory and
    run recovery: delete uncommitted [*.tmp] debris, verify every
    generation's manifest and checksums, quarantine the ones that fail,
    pick the newest valid generation as active. [keep] (default 3) is the
    retention budget {!save} applies to old generations. Never raises on
    damaged contents — damage is reported, typed, in the report.
    @raise Herr.Fhe_error ([Corrupt_bundle]) with [create:false] (default
    true) when the directory does not exist; nothing is created then. *)

val root : t -> string

val save : t -> files:(string * string) list -> int
(** Write [(name, bytes)] pairs as a fresh generation (atomic as described
    above), then garbage-collect generations beyond the retention budget.
    Returns the new generation id.
    @raise Invalid_argument on an empty file list or an unusable name
    (path separators, ["MANIFEST"], leading dot, [".tmp"] suffix).
    @raise Killed when the test hook is armed. *)

val load : t -> (int * (string * string) list) option
(** Re-verify and read back the newest valid generation ([None] if the
    store holds no valid generation). Checksums are checked again at read
    time; a generation that rotted since {!open_} is skipped, not served. *)

val generations : t -> int list
(** Existing generation ids, newest first (valid or not). *)

type status = { g_id : int; g_result : (int, Herr.error) result }
(** [g_result] is [Ok bytes] (payload bytes verified) or the typed reason
    verification failed. *)

val verify : t -> status list
(** Verify every generation in place, newest first. Read-only: corrupt
    generations are reported, not quarantined (that happens on {!open_}). *)

val gc : t -> keep:int -> string list
(** Remove generations beyond the [keep] newest and cap quarantine debris;
    returns the removed directory names. *)

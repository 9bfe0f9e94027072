(** Minimal JSON value type, writer and parser (RFC 8259 subset; \u escapes
    are BMP-only). Shared by the Chrome trace exporter, the cost-model
    calibration files, [chet loadgen --bench-out] and the [bench/e2e]
    harness. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact serialisation. Non-finite numbers become [null] (JSON has no
    NaN/Infinity and Chrome refuses files containing them). *)

val to_channel : out_channel -> t -> unit

val to_file : string -> t -> unit
(** Write the value plus a trailing newline. *)

val of_string : string -> t
(** @raise Parse_error on malformed input (with byte offset). *)

val of_file : string -> t

(** {1 Accessors} — all total, returning [None] on kind mismatch. *)

val member : string -> t -> t option
val to_num : t -> float option
val to_str : t -> string option
val to_arr : t -> t list option
val num_member : string -> t -> float option
val str_member : string -> t -> string option

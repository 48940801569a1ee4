(** Minimal JSON values for the serve protocol: a printer (stable field
    order, [\u00XX]-escaped control characters — every document fits on
    one line, as JSON-lines framing requires) and a strict
    recursive-descent parser.  Numbers without fraction or exponent parse
    as [Int]; protocol strings are byte strings (escapes decode to
    UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** One line, no trailing newline. *)

val of_string : string -> t
(** Raises {!Parse_error} on malformed input (including trailing
    garbage). *)

val of_string_result : string -> (t, string) result

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_int_opt : t -> int option
val to_str_opt : t -> string option
val to_list_opt : t -> t list option

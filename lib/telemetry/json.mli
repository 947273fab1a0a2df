(** The one JSON reader and writer. Every document the system emits
    ([BENCH_*.json], [METRICS.json], Chrome traces) is built as a {!t} and
    printed by {!to_string}; the regression gate reads them back with
    {!parse}. Printing a value with only finite numbers and parsing the
    text gives the same value back. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num] of an integer. *)

val to_string : t -> string
(** A newline-terminated document. Array elements go one per line,
    indented by nesting depth; everything else is compact (no spaces
    around [:] or [,]). Integral numbers below 1e15 print without a
    fraction, other finite numbers with the fewest of 15 or 17
    significant digits that read back exactly, and non-finite numbers as
    [null]. Strings escape double quotes, backslashes and every control
    character below U+0020; other bytes pass through. *)

val parse : string -> (t, string) result
(** Strict about structure, and rejects raw control characters inside
    strings; [\u] escapes decode to UTF-8 (BMP only). The error names the
    offending offset. *)

val member : string -> t -> t option
(** Field of an object; [None] for a missing field or a non-object. *)

(** Minimal JSON reader.

    Just enough to validate and introspect the JSON this repository
    emits ({!Metrics.to_json}, [BENCH_scale.json], [--metrics-out]
    files): objects, arrays, strings (common escapes incl. [\uXXXX]),
    numbers, booleans, null.  Not a streaming parser; intended for small
    configuration/metrics files. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing non-whitespace is an error. *)

val parse_file : string -> (t, string) result

val render : t -> string
(** Compact, deterministic serialization.  Strings escape every control
    character below 0x20 ([\n], [\t], ... or [\u00XX]) plus the quote
    and backslash characters,
    so [parse (to_string v)] reproduces [v] for arbitrary byte strings.
    Numbers print integrally when integral, with 17 significant digits
    otherwise (exact double round-trip); non-finite numbers render as
    [null]. *)

val escape : string -> string
(** The writer's string escaping, without the surrounding quotes. *)

val number_to_string : float -> string
(** The writer's number rendering (exposed for line-oriented emitters
    that format records by hand). *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing key or non-object. *)

val to_float : t -> float option

val to_int : t -> int option
(** [Some] only for numbers with integral value. *)

val to_string : t -> string option

val to_list : t -> t list option

val keys : t -> string list
(** Object keys in order; [[]] for non-objects. *)

(** Minimal JSON document builder.

    Just enough to emit machine-readable benchmark artifacts (metrics
    dumps, Chrome trace files, figure tables) without an external
    dependency.  Non-finite floats serialize as [null], since JSON has no
    NaN/infinity literals. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization. *)

val parse : string -> (t, string) result
(** Parse one JSON document (the whole string; trailing non-whitespace is
    an error).  Numbers without [.]/exponent parse as [Int], everything
    else as [Float]; [\uXXXX] escapes decode to UTF-8.  Enough to read
    back our own artifacts — BENCH baselines, schema round-trips — not a
    general validator. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup; [None] on non-objects or missing keys. *)

val to_float_opt : t -> float option
(** [Int] and [Float] both convert. *)

val to_int_opt : t -> int option

val to_string_opt : t -> string option

val to_list_opt : t -> t list option

val to_bool_opt : t -> bool option

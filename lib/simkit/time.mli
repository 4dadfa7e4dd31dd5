(** Simulated time.

    Timestamps and spans are integer nanoseconds.  A 63-bit OCaml [int]
    holds about 292 simulated years of nanoseconds, far beyond any run we
    perform, and integer arithmetic keeps every run bit-for-bit
    deterministic. *)

type t = int
(** A point in simulated time, in nanoseconds since the start of the run. *)

type span = int
(** A duration in nanoseconds.  Spans and timestamps share representation
    so that [t + span] is ordinary integer addition. *)

val zero : t

val ns : int -> span
val us : int -> span
val ms : int -> span
val sec : int -> span

val us_f : float -> span
(** [us_f x] is [x] microseconds rounded to the nearest nanosecond. *)

val sec_f : float -> span

val to_ms : t -> float
val to_sec : t -> float

val pp : Format.formatter -> t -> unit
(** Pretty-print with an auto-selected unit, e.g. ["12.5us"], ["3.2ms"]. *)

val to_string : t -> string

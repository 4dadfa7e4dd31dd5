(** Failure flight recorder.

    Two bounded rings — the most recent finished spans and a sequence of
    fault marks (injections, detections, gate trips) — that together are
    the black box a failed drill dumps: the window of causal history
    that explains what the system was doing when a safety gate tripped.
    Memory is fixed at creation; a recorder can run armed for the whole
    drill at ring-buffer cost. *)

type t

val create : ?spans:int -> ?marks:int -> unit -> t
(** Ring capacities: [spans] (default 2048) finished span records,
    [marks] (default 256) fault marks. *)

val attach : t -> Span.t -> unit
(** Stream a collector into the recorder via {!Span.subscribe}, next to
    any other subscriber. *)

val mark : t -> time:Time.t -> string -> unit
(** Record a fault event — an injection firing, a detection, a gate
    verdict — at simulated [time]. *)

val span_count : t -> int
(** Spans ever observed (not just those still in the ring). *)

val mark_count : t -> int

val recent_spans : t -> Span.record list
(** Ring contents, oldest first. *)

val recent_marks : t -> (Time.t * string) list
(** Ring contents, oldest first. *)

val to_json : t -> Json.t
(** [{spans_seen, marks_seen, marks:[{time_ns,label}], spans:[...]}] —
    the dump a failed drill writes next to its report. *)

(** Observability context: one {!Metrics} registry plus one {!Span}
    collector, passed together through a system's constructors so every
    subsystem reports into the same place.

    Subsystems that accept [?obs] default to a private context, so
    instrumentation code stays unconditional: metrics land in a registry
    nobody reads (cheap) and spans hit a disabled collector (one flag
    check). *)

type t

val create : ?metrics:Metrics.t -> ?spans:Span.t -> unit -> t

val metrics : t -> Metrics.t

val spans : t -> Span.t

val set_clock : t -> (unit -> Time.t) -> unit
(** Convenience for [Span.set_clock (spans t)]. *)

(** {1 Global telemetry level}

    Re-export of {!Level}: one process-wide gate checked on hot paths
    before any telemetry allocation.  Default [Spans] (everything on);
    [Counters] suppresses span and label allocation; [Off] is the
    zero-cost path that also skips hot-path stat/probe/sample updates. *)

type level = Level.t = Off | Counters | Spans

val set_level : level -> unit

val level : unit -> level

val spans_on : unit -> bool

(** Observability context: one {!Metrics} registry plus one {!Span}
    collector and the clock both run against, passed together through a
    system's constructors so every subsystem reports into the same
    place.

    This module is the one door to telemetry.  A component takes an
    [Obs.t option] where it is built and reaches spans, stats, counters,
    probes and gauges only through the functions below, which take that
    option as it is.  The contract:

    - {e No context, no registry work.}  With [None] every span function
      returns or absorbs {!Span.null} and every registration returns
      [None] or does nothing, without a lookup or an allocation of its
      own.  (Arguments the caller builds, such as a gauge's closure or a
      path joined from a component's name, are still built.)
    - {e One level check.}  Every update of a registered instrument
      ({!note}, {!incr}, {!add}, {!bump}, and the {!Probe} updates)
      sits behind the global {!Level}: at [Off] a context records
      nothing, at [Spans] it records everything. *)

type t

val create : unit -> t
(** A fresh registry and a disabled span collector, both on a clock that
    reads zero until {!set_clock}. *)

val metrics : t -> Metrics.t

val spans : t -> Span.t

val set_clock : t -> (unit -> Time.t) -> unit
(** Timestamp spans, and the depth integral of every probe registered
    from now on, against [clock]. *)

(** {1 Spans} *)

val start : t option -> track:string -> ?parent:Span.span -> string -> Span.span
(** {!Span.start} on the context's collector; {!Span.null} without one. *)

val root : t option -> track:string -> string -> Span.span
(** {!Span.root} on the context's collector; {!Span.null} without one. *)

val finish : t option -> Span.span -> unit

(** {1 Registration}

    Find-or-create under a registry path, as {!Metrics} does: components
    that register the same path share one instrument. *)

val stat : t option -> string -> Stat.t option

val stat_or_private : t option -> ?name:string -> string -> Stat.t
(** For a stat the component reads back itself: the registry's stat at
    [path] with a context, else a private stat called [name]. *)

val counter : t option -> string -> Stat.Counter.t option

val probe : t option -> string -> Probe.t option
(** A probe runs its depth integral against the clock the context had
    when the probe was created. *)

val gauge : t option -> string -> (unit -> float) -> unit
(** Register (or replace) a gauge. *)

val ratio :
  t option -> string -> num:Stat.Counter.t option -> den:Stat.Counter.t option -> unit
(** Register a gauge reading [num / den], 0 while [den] is 0. *)

(** {1 Updates} *)

val note : Stat.t option -> Time.span -> unit
(** Record a span in a registered stat. *)

val incr : Stat.Counter.t option -> unit

val add : Stat.Counter.t option -> int -> unit

val bump : t option -> string -> unit
(** Increment the counter at [path], registering it on its first bump:
    for events rare enough that the lookup costs nothing. *)

val enqueue : Probe.t option -> unit

val dequeue : Probe.t option -> unit

val busy : Probe.t option -> Time.span -> unit

val served : Probe.t option -> Time.span -> unit
(** A request leaves after [dt] of service: {!busy} then {!dequeue}. *)

(** {1 Global telemetry level}

    Re-export of {!Level}: one process-wide gate checked before any
    telemetry update.  Default [Spans] (everything on); [Off] is the
    zero-cost path. *)

type level = Level.t = Off | Spans

val set_level : level -> unit

val level : unit -> level

(** Process-wide telemetry level: the single global flag hot paths check
    before doing any observability work.

    Instrumented code has two tiers:

    - [Spans] (the default): everything — span records, annotation
      strings, per-layer stats, counters, probes, time-series sampling.
    - [Off]: the zero-cost path.  Span starts, stat/counter/probe
      updates and time-series samples are all skipped behind this one
      flag check; a run at [Off] performs no telemetry allocation on the
      hot paths.

    Code that runs without an {!Obs} context does no registry work at
    either level; the level gates what a context records.

    The level is deliberately global (the simulator is single-threaded):
    threading it through every constructor would put an option deref on
    the paths this gate exists to make free.  Toggling mid-run is
    supported but skews cumulative instruments (a probe enqueue seen at
    [Spans] may miss its dequeue at [Off]); measurement harnesses should
    set the level before building a system and restore it after.

    {!Span.enable} raises the level back to [Spans] — enabling a span
    collector is an explicit request for span data. *)

type t = Off | Spans

val set : t -> unit

val get : unit -> t

val on : unit -> bool
(** [get () = Spans]. *)

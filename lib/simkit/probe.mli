(** Busy-time / queue-depth accounting for one resource.

    A probe is the convention every simulated resource (volume, message
    server, fabric rail, PM device, CPU) uses to report the two numbers
    queueing theory cares about: how busy it was ({!busy_span}) and how
    many requests were resident over time ({!enqueue}/{!dequeue}, whose
    depth-weighted integral gives the mean queue length).  The
    time-series sampler ({!Timeseries}) turns deltas of these cumulative
    totals into per-interval utilization and mean queue length, and the
    bottleneck-attribution report ranks resources by them.

    Call {!enqueue} when a request enters the resource (arrival or
    admission to its queue), {!dequeue} when it leaves (completion or
    failure), and {!busy_span} with each span the resource spent
    actually serving.  For an aggregate probe shared by several
    components (e.g. every message server feeding one [msgsys.inbox]
    probe) utilization can legitimately exceed 1.0.

    The depth integral needs a clock, given at {!create} or attached by
    {!set_clock}; without one depth and counts still work but the
    integral stays zero. *)

type t

val create : ?clock:(unit -> Time.t) -> unit -> t

val set_clock : t -> (unit -> Time.t) -> unit
(** Attach (or replace) the clock.  Resets the depth-integral epoch to
    the clock's current reading. *)

val enqueue : t -> unit

val dequeue : t -> unit
(** Depth is floored at zero: a stray dequeue (e.g. a drain path racing
    a failure path) never drives it negative. *)

val busy_span : t -> Time.span -> unit
(** Accumulate service time.  Negative or zero spans are ignored. *)

val depth : t -> int
(** Requests currently resident. *)

val max_depth : t -> int

val enqueued : t -> int

val dequeued : t -> int

val busy_total : t -> Time.span
(** Cumulative service time. *)

val depth_integral : ?at:Time.t -> t -> float
(** The depth-weighted time integral (ns-items) up to [at] (default:
    the clock's current reading).  Divide a delta of this by the
    interval to get the mean queue length over that interval.  Pure:
    does not advance the probe's internal epoch. *)

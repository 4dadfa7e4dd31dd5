(** Self-profiler for the simulator: where does {e host} time and
    allocation go while simulated time advances?

    A profiler installs dispatch hooks on one {!Sim.t} (see
    {!Sim.set_dispatch_hooks}) and accumulates, per dispatched slice,
    wall-clock time and minor-heap words allocated, plus the event-queue
    depth high-water mark.

    One rule attributes every slice: it is charged to the {e role} of
    its owner, the process it runs (a plain callback is owned by the
    process whose slice scheduled it; see {!Sim}).  A role is the spawn
    name without its [cpu<i>:] prefix and instance numbers, so
    [cpu2:$ADP1:flusher] and [cpu3:$ADP2:flusher] share the row
    [$ADP:flusher], and [$DP2-03:worker] is [$DP2:worker]; a callback
    scheduled outside every process is charged to [toplevel].  The role
    rows therefore sum to {!wall_total}, and with the loop's own time to
    {!wall_elapsed}.  A layer's code (msgsys, fabric, PM client) is part
    of whichever role called it.

    At most one profiler is installed process-wide at a time.  When none
    is installed every entry point here is a single check with no
    allocation, so instrumentation can stay in hot code permanently; an
    installed one allocates nothing per slice.

    Determinism: slice counts and minor-word deltas are exact functions
    of the workload and seed, so tests can compare them across identical
    runs — minor words from the second run in a process on, since
    one-time lazy initialisation lands in the first.  Wall times are
    measurement, never fed back into the simulation. *)

type t

val create : unit -> t

val install : t -> Sim.t -> unit
(** Install dispatch hooks and start the wall-clock epoch.  Raises
    [Invalid_argument] if any profiler is already installed. *)

val uninstall : t -> unit
(** Remove the hooks; accumulated data remains readable. *)

val enabled : unit -> bool

(** {1 Hot-path counters} *)

val bump_envelope : unit -> unit
(** Count one msgsys envelope allocation. *)

val bump_packets : int -> unit
(** Count fabric packets for one transfer. *)

val bump_pm_write : unit -> unit
(** Count one PM client write. *)

(** {1 Report} *)

val events : t -> int
(** Total slices (events) dispatched while installed. *)

val wall_total : t -> float
(** Seconds spent inside event handlers: the sum of the role rows. *)

val minor_words : t -> float

val wall_elapsed : t -> float
(** Seconds since {!install} — the denominator for events/sec. *)

val heap_depth_hwm : t -> int

val envelope_count : t -> int

val packet_count : t -> int

val pm_write_count : t -> int

type layer_row = {
  l_name : string;  (** the role *)
  l_events : int;  (** slices charged to it *)
  l_wall : float;
  l_minor : float;
}

val layer_rows : t -> layer_row list
(** One row per role, sorted by descending wall time. *)

val now_s : unit -> float
(** The profiler's wall clock ([Unix.gettimeofday]), exposed so
    benchmark harnesses measure with the same clock. *)

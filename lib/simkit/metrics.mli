(** Process-wide metrics registry.

    Any subsystem can register or look up named instruments under a
    hierarchical dotted path — e.g. [adp.flush_latency],
    [fabric.rdma_writes], [disk.rotational_miss_ns] — and the whole
    registry dumps as a text table or a JSON document.  The find-or-create
    accessors ({!stat}, {!counter}, {!probe}) return the {e same}
    instrument for the same path, so independent components (say, four
    ADPs) naturally share one aggregate instrument. *)

type instrument =
  | Stat of Stat.t
  | Counter of Stat.Counter.t
  | Gauge of (unit -> float)
      (** Sampled at dump time — register a closure over an existing
          mutable counter instead of double-counting. *)
  | Probe of Probe.t
      (** Busy-time / queue-depth accounting; the time-series sampler
          derives per-interval utilization and mean queue length from
          its cumulative totals. *)

type t

val create : unit -> t

val stat : t -> string -> Stat.t
(** Find-or-create.  Raises [Invalid_argument] if the path is already
    registered as a different kind. *)

val counter : t -> string -> Stat.Counter.t

val probe : t -> ?clock:(unit -> Time.t) -> string -> Probe.t
(** Find-or-create, like {!stat}.  A probe created here runs its depth
    integral against [clock]; finding an existing probe leaves its clock
    as it is. *)

val register_gauge : t -> string -> (unit -> float) -> unit
(** Register (or replace) a gauge under [path]. *)

val find : t -> string -> instrument option

val instruments : t -> (string * instrument) list
(** Sorted by path. *)

val paths : t -> string list

val pp_table : Format.formatter -> t -> unit
(** One row per instrument; never raises, even on empty instruments. *)

val to_json : t -> Json.t

(** Sim-clock time-series recorder.

    Periodically snapshots every instrument in a {!Metrics.t} registry
    into a bounded ring of samples, deriving {e per-interval} views from
    cumulative sources: counters become deltas and rates, stats become
    interval count/mean/p50/p99, probes ({!Probe.t}) become utilization
    and mean queue length.  Gauges are read as-is.

    The sampler is a plain {!Sim.at} callback that re-arms itself — not a
    green process — so it never keeps {!Sim.run} alive past {!stop}, and
    it only {e reads} instruments, so enabling it cannot change workload
    results.

    Column naming, per instrument kind (for CSV headers and JSON keys):
    - gauge [p] → [p]
    - counter [p] → [p.delta], [p.rate] (per second)
    - stat [p] → [p.n], [p.mean], [p.p50], [p.p99] (interval slice; zero
      when the interval recorded nothing)
    - probe [p] → [p.util], [p.qlen], [p.depth], [p.rate] *)

type sample = {
  s_time : Time.t;  (** sim time of this sample *)
  s_dt : Time.span;  (** interval covered, [s_time - previous sample] *)
  s_values : (string * float) list;  (** sorted by column name *)
}

(** One row of the bottleneck-attribution report: a probe's share of the
    sampled window. *)
type attribution = {
  at_resource : string;
  at_utilization : float;  (** busy time / window length *)
  at_qlen : float;  (** time-weighted mean queue depth *)
  at_busy : Time.span;  (** absolute busy time in the window *)
  at_busy_share : float;  (** busy / total busy across all probes *)
}

type t

val create :
  ?capacity:int -> sim:Sim.t -> metrics:Metrics.t -> interval:Time.span -> unit -> t
(** [capacity] bounds the ring (default 4096 rows; oldest evicted).
    Raises [Invalid_argument] on a non-positive interval or capacity. *)

val start : t -> unit
(** Baseline all cumulative readings at the current sim time and arm the
    periodic tick.  Idempotent; a stopped recorder cannot be restarted. *)

val stop : t -> unit
(** Disarm the tick and take one final sample, so even a run shorter
    than one interval yields a row. *)

val mark : t -> time:Time.t -> string -> unit
(** Annotate the series with a labelled event (e.g. a fault injection);
    rendered as [# mark] comment lines in CSV and a [marks] array in
    JSON. *)

val interval : t -> Time.span
val sample_count : t -> int
val evicted : t -> int
(** Rows dropped from the ring head due to the capacity bound. *)

val samples : t -> sample list
val marks : t -> (Time.t * string) list
(** Sorted by time. *)

val paths : t -> string list
(** All column names appearing in any retained sample, sorted. *)

val attribution : t -> attribution list
(** Where the time went: one entry per registered probe, ranked by
    utilization descending (mean queue length, then path, break ties).
    Computed over the retained rows, so it stays exact under ring
    eviction.  Empty before the first sample. *)

val to_csv : t -> string
(** [# mark] comment lines, then a header row ([time_ns,dt_ns,<cols>]),
    then one row per sample.  Cells for columns a row lacks are empty;
    embedded commas/quotes are RFC-4180 quoted. *)

val json : t -> Json.t
val attribution_json : t -> Json.t

val pp_attribution : Format.formatter -> t -> unit
(** Ranked "where the time went" table. *)

open Simkit

(** The simulator performance observatory: a fixed, seed-deterministic
    workload matrix run under {!Simkit.Prof}, reported as the
    schema-versioned [BENCH_*.json] trajectory committed to [bench/].

    Each run reports one row per process role ({!Simkit.Prof}'s
    attribution rule) plus the loop's own time, which together sum to
    the run's wall time.  Wall-clock numbers vary with the host; {e event
    counts}, slice counts and minor-word totals are exact functions of
    workload + seed, so repeated runs on any machine agree on them
    bit-for-bit.  CI compares [events_per_sec] against the committed
    baseline and fails on a configurable regression. *)

val schema : string
(** ["odsbench-perf"]. *)

val schema_version : int

val workload_names : string list
(** The matrix, in run order: ["hot-stock-disk"], ["hot-stock-pm"],
    ["drill-pm"], ["fig1-cell"]. *)

type run_report = {
  r_name : string;
  r_seed : int64;
  r_events : int;  (** dispatched simulator events *)
  r_sim_elapsed_s : float;  (** simulated load-phase seconds *)
  r_wall_s : float;
  r_events_per_sec : float;
  r_wall_ms_per_sim_s : float;
  r_minor_words : float;
  r_minor_words_per_event : float;
  r_heap_depth_hwm : int;
  r_envelopes : int;  (** msgsys envelope allocations *)
  r_packets : int;  (** fabric packets transferred *)
  r_pm_writes : int;  (** PM client writes issued *)
  r_committed : int;  (** result invariance check across trajectory points *)
  r_roles : Prof.layer_row list;  (** their slices sum to [r_events] *)
  r_loop_wall_s : float;
      (** {!Prof.wall_elapsed} minus {!Prof.wall_total}: time outside
          every handler — heap pops and the dispatch hooks; with
          [r_roles] it sums to [r_wall_s] *)
}

type overhead = {
  o_workload : string;
  o_enabled_wall_s : float;
      (** obs attached, spans streamed into a {!Critpath} analyzer and
          not retained *)
  o_disabled_wall_s : float;  (** no obs, {!Obs.level} [Off] *)
  o_overhead_pct : float;
  o_enabled_minor_words : float;
  o_disabled_minor_words : float;
  o_alloc_overhead_pct : float;
  o_sim_elapsed_equal : bool;  (** telemetry must not change results *)
  o_committed_equal : bool;
}

type report = { p_records : int; p_runs : run_report list; p_overhead : overhead }

val run : ?records:int -> unit -> report
(** Run the whole matrix.  [records] (default 300) sizes the hot-stock
    cells ([records_per_driver]); the drill always runs at
    {!Tp.Drill.default_params} scale so its fault-plan offsets stay
    valid.  Finishes with the telemetry-overhead pair: the same PM cell
    with spans streamed into a critical-path analyzer vs everything
    {!Obs.Off}, measured without a profiler installed so the comparison
    is of the telemetry alone. *)

val wall_share : run_report -> float -> float
(** [wall_share r secs]: [secs] as a share of the run's elapsed wall. *)

val to_json : report -> Json.t
(** The schema-versioned document written to [bench/BENCH_N.json]. *)

(** {1 Baseline comparison} *)

val events_per_sec_of_json : Json.t -> ((string * float) list, string) result
(** [workload name -> events_per_sec] from a parsed report. *)

type verdict = {
  v_workload : string;
  v_current : float;
  v_baseline : float;
  v_ok : bool;  (** current >= baseline x (1 - regress_pct/100) *)
}

val compare_baseline :
  baseline:Json.t -> current:Json.t -> regress_pct:float -> (verdict list, string) result
(** One verdict per baseline workload; a workload missing from the
    current report fails its verdict.  [Error] on malformed documents or
    a threshold outside (0, 100). *)

val all_ok : verdict list -> bool

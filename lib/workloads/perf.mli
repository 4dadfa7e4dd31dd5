open Simkit

(** The simulator performance observatory: a fixed, seed-deterministic
    workload matrix run under {!Simkit.Prof}, reported as the
    schema-versioned [BENCH_*.json] trajectory committed to [bench/].

    Wall-clock numbers vary with the host; {e event counts}, section
    counts and minor-word totals are exact functions of workload + seed,
    so repeated runs on any machine agree on them bit-for-bit.  CI
    compares [events_per_sec] against the committed baseline and fails
    on a configurable regression. *)

val schema : string
(** ["odsbench-perf"]. *)

val schema_version : int

val workload_names : string list
(** The matrix, in run order: ["hot-stock-disk"], ["hot-stock-pm"],
    ["drill-pm"], ["fig1-cell"]. *)

type layer_share = {
  ls_layer : string;
  ls_events : int;  (** completed profiler sections *)
  ls_wall_s : float;
  ls_wall_share : float;  (** of total handler wall time *)
  ls_minor_words : float;
  ls_major_words : float;
  ls_discarded : int;
}

type run_report = {
  r_name : string;
  r_seed : int64;
  r_events : int;  (** dispatched simulator events *)
  r_sim_elapsed_s : float;  (** simulated load-phase seconds *)
  r_wall_s : float;
  r_events_per_sec : float;
  r_wall_ms_per_sim_s : float;
  r_minor_words : float;
  r_major_words : float;
  r_minor_words_per_event : float;
  r_heap_depth_hwm : int;
  r_envelopes : int;  (** msgsys envelope allocations *)
  r_packets : int;  (** fabric packets transferred *)
  r_pm_writes : int;  (** PM client writes issued *)
  r_committed : int;  (** result invariance check across trajectory points *)
  r_layers : layer_share list;
  r_loop_wall_s : float;
      (** {!Prof.wall_elapsed} minus {!Prof.wall_total}: time outside
          every handler — heap pops and the dispatch hooks *)
  r_unattributed_wall_s : float;
      (** handler wall time outside every layer section; with
          [r_layers] and [r_loop_wall_s] it sums to [r_wall_s] *)
}

type overhead = {
  o_workload : string;
  o_enabled_wall_s : float;  (** obs attached, spans enabled *)
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
    with spans enabled vs everything {!Obs.Off}, measured without a
    profiler installed so the comparison is of the telemetry alone. *)

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

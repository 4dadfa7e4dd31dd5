open Simkit

(** Experiment harness: every table/figure of the paper plus the
    ablations DESIGN.md commits to, as plain functions returning data.
    The odsbench CLI prints from these. *)

val simulate : ?prof:Prof.t -> seed:int64 -> (Sim.t -> 'a) -> 'a
(** [simulate ~seed f] runs [f sim] as the main process of a fresh
    simulation seeded with [seed] ({!Simkit.Prof.simulate}, with [prof]
    installed for the whole run) and returns what [f] returned.  Raises
    [Failure] if the simulation ends before [f] returns. *)

type cell = {
  mode : Tp.System.log_mode;
  drivers : int;
  inserts_per_txn : int;
  system : Tp.System.t;  (** the system the cell ran on, after the run *)
  result : Hot_stock.result;
}

val run_cell :
  ?seed:int64 ->
  ?config:Tp.System.config ->
  ?obs:Obs.t ->
  ?prof:Prof.t ->
  mode:Tp.System.log_mode ->
  drivers:int ->
  inserts_per_txn:int ->
  records_per_driver:int ->
  unit ->
  cell
(** Build a fresh system from [config] (default
    {!Tp.System.default_config}) with its [log_mode] set to [mode], and
    run one hot-stock configuration.  Safe to call outside process
    context (it owns its simulation).  With [obs],
    the whole system reports into that context — pass a context with
    spans enabled to trace the run, or read the metrics registry
    afterwards.  With [prof], the profiler is installed on the cell's
    simulation for the whole run (see {!Simkit.Prof}). *)

val run_cell_sampled :
  ?seed:int64 ->
  ?config:Tp.System.config ->
  ?obs:Obs.t ->
  ?prof:Prof.t ->
  ?sample_interval:Time.span ->
  mode:Tp.System.log_mode ->
  drivers:int ->
  inserts_per_txn:int ->
  records_per_driver:int ->
  unit ->
  cell * Timeseries.t option
(** {!run_cell} plus a continuous-telemetry recorder: with
    [sample_interval] (requires [obs], else [Invalid_argument]), a
    {!Simkit.Timeseries} samples every registered instrument on that
    cadence from system build to workload end, and is returned for
    export or bottleneck attribution.  Without [sample_interval] this is
    exactly {!run_cell}. *)

(** {1 Figure 1 — response-time speedup vs transaction size} *)

type fig1_point = {
  f1_drivers : int;
  f1_boxcar : int;  (** inserts per transaction *)
  txn_size : string;  (** "32k" / "64k" / "128k" *)
  rt_disk_us : float;
  rt_pm_us : float;
  speedup : float;
  paper_speedup : float option;
      (** the paper's Figure 1 value for this cell, read off its plot *)
}

val figure1 : ?records_per_driver:int -> ?drivers_list:int list -> unit -> fig1_point list
(** Defaults: the paper's 32 000 records and drivers 1-4.
    Scale down with [records_per_driver] for quick runs. *)

(** {1 Figure 2 — elapsed time vs transaction size} *)

type fig2_point = {
  f2_drivers : int;
  f2_boxcar : int;
  f2_txn_size : string;
  elapsed_disk_s : float;
  elapsed_pm_s : float;
}

val figure2 : ?records_per_driver:int -> ?drivers_list:int list -> unit -> fig2_point list

(** {1 E3 — PM write-latency sweep} *)

type latency_point = { penalty : Time.span; rt_us : float; speedup_vs_disk : float }

val latency_sweep :
  ?records_per_driver:int -> ?penalties:Time.span list -> unit -> latency_point list
(** Response time with extra per-write PM device latency; shows where the
    PM advantage dies as the device approaches disk speed. *)

(** {1 E4 — mirroring ablation} *)

type mirror_point = { mirrored : bool; rt_us : float; elapsed_s : float }

val mirror_ablation : ?records_per_driver:int -> unit -> mirror_point list

(** {1 E5 — MTTR} *)

type mttr_point = {
  m_mode : Tp.System.log_mode;
  report : Tp.Recovery.report;
  trail_bytes : int;
}

val mttr : ?records_per_driver:int -> unit -> mttr_point list
(** Run the workload, wipe the tables, recover: disk vs PM. *)

(** {1 E6 — ADPs per node} *)

type adp_scaling_point = { adps : int; a_mode : Tp.System.log_mode; tps : float }

val adp_scaling : ?records_per_driver:int -> ?counts:int list -> unit -> adp_scaling_point list

(** {1 E8 — shared-nothing scale-out (paper §1.3)} *)

type scaleout_point = {
  s_nodes : int;
  s_mode : Tp.System.log_mode;
  aggregate_tps : float;
  per_node_tps : float;
}

val scaleout :
  ?records_per_driver:int -> ?nodes_list:int list -> unit -> scaleout_point list
(** Build N independent nodes (own CPUs, fabric, volumes, PM devices) in
    one simulation and run the hot-stock mix on each concurrently — the
    partitioned, shared-nothing growth path NonStop systems scale out
    by.  Aggregate throughput should grow near-linearly. *)

(** {1 E9 — process-pair checkpoint traffic (paper §2, §3.4)} *)

type ckpt_traffic_point = {
  c_mode : Tp.System.log_mode;
  committed_txns : int;
  audit_bytes : int;
  checkpoint_bytes : int;
  ckpt_bytes_per_txn : float;
}

val checkpoint_traffic : ?records_per_driver:int -> unit -> ckpt_traffic_point list
(** Insert-heavy workloads generate "a high volume of check-point traffic
    between process pairs" (§2): the disk-mode log writer must mirror
    every buffered audit byte to its backup before acknowledging.  §3.4
    claims PM eliminates that repeated persistence; this experiment
    measures trail bytes vs checkpoint bytes in both modes. *)

(** {1 E10 — distributed transactions (two-phase commit)} *)

type dtx_point = {
  d_mode : Tp.System.log_mode;
  local_rt_ms : float;  (** single-node transfer *)
  dtx_rt_ms : float;  (** cross-node transfer under 2PC *)
  protocol_overhead_ms : float;
}

val dtx_latency : ?transfers:int -> unit -> dtx_point list
(** Cross-node funds transfers: a distributed commit stacks prepare and
    decision trail forces end to end, so the disk configuration pays
    several rotational waits per transaction while PM keeps the whole
    protocol fast — the paper's argument compounding. *)

(** {1 E7 — availability under process-pair failover} *)

type failover_report = {
  committed_before : int;
  committed_total : int;
  adp_takeovers : int;
  outage : Time.span;
  lost_transactions : int;  (** committed transactions missing after takeover: must be 0 *)
}

val failover_under_load : ?records_per_driver:int -> unit -> failover_report
(** Kill the CPU hosting ADP 1 mid-run (disk mode, where the backup's
    checkpointed buffer matters); the run must complete with no committed
    work lost. *)

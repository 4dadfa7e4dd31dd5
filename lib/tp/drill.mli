open Simkit

(** Availability/durability drill harness.

    A drill builds a fresh system, runs the hot-stock insert mix while a
    {!Faultplan.t} fires against it, then crashes the node (wipes every
    DP2 image), runs {!Recovery.run}, and audits durability: every
    transaction the client saw acknowledged must be present after
    recovery.  Acknowledged-but-lost rows are the one unforgivable
    failure ({!report.lost_rows}); transactions that visibly failed
    during the faults are availability loss, counted separately.

    The driver is deliberately fault-tolerant where
    {!Workloads.Hot_stock} is strict: it retries [begin] across
    takeovers and treats commit errors as data, because a drill's
    subject is the system's behaviour under faults, not the driver's.

    Everything is derived from the simulation seed, so a drill replays
    bit-for-bit: same seed, same plan, same report. *)

type params = {
  drivers : int;
  records_per_driver : int;
  record_bytes : int;
  inserts_per_txn : int;
  settle : Time.span;
      (** quiet period after the load and the plan finish, before the
          crash — lets lock-release and checkpoint tails drain *)
  begin_retries : int;
      (** driver-side retries of [begin] across a monitor takeover *)
}

val default_params : params
(** 2 drivers x 400 records, 4 KiB rows, boxcar 8, 500 ms settle. *)

val cluster_params : params
(** Cluster-drill sizing: 2 drivers x 60 records, 1 KiB rows, boxcar 4 —
    every insert crosses the interconnect and every commit runs
    two-phase, so the volume is kept small. *)

type availability = {
  adp_takeovers : int;
  dp2_takeovers : int;
  tmf_takeovers : int;
  pmm_takeovers : int;
  outage : Time.span;  (** cumulative headless time across all pairs *)
  degraded_writes : int;  (** PM writes that reached one device only *)
  pm_write_retries : int;  (** transient PM data-path errors retried *)
  packet_retries : int;  (** fabric CRC retransmissions *)
}

(** The storage-integrity audit a PM-mode drill appends to its report:
    what silent corruption was injected, which defense caught it, and
    whether any divergence survived recovery unaccounted for. *)
type integrity = {
  decay_injected : int;  (** media-decay events, including crash decay *)
  torn_injected : int;  (** torn-store events scheduled *)
  scrub_chunks : int;  (** chunks the scrubber scanned in total *)
  scrub_repairs : int;  (** divergent chunks the scrubber repaired *)
  scrub_quarantined : int;  (** chunks it quarantined as unarbitratable *)
  read_repairs : int;  (** divergent chunks verified reads repaired *)
  verify_unrepaired : int;  (** divergence verified reads could not fix *)
  unrepaired_divergence : int;
      (** mirrored chunks still divergent after recovery, excluding
          quarantined ones — silent corruption nothing caught: must
          be 0 *)
}

(** One report for every drill family.  The harness fills the core
    ([mode] through [flight]) from the run itself; a family's evidence
    adds the optional sections it produced.  {!Oracle.of_report} judges
    every report with one check table, and {!to_json} and {!pp} render
    every report with one layout. *)
type report = {
  mode : System.log_mode;
  seed : int64;
  elapsed : Time.span;  (** load phase duration *)
  faults : (Time.t * string) list;  (** injection log, oldest first *)
  attempted_txns : int;  (** committed + failed + rejected *)
  committed : int;  (** acknowledged commits — the durability contract *)
  failed_txns : int;  (** begins or commits the client saw fail *)
  acked_rows : int;  (** rows inside acknowledged transactions *)
  recovered_rows : int;  (** rows recovery rebuilt, summed over nodes *)
  lost_rows : int;  (** acknowledged rows missing after recovery: must be 0 *)
  in_doubt_after : int;
      (** prepared branches still undecided after recovery: must be 0 *)
  orphaned_locks : int;  (** locks still held after recovery: must be 0 *)
  fence_checks : int;  (** epoch-fence probes executed (load + recovery) *)
  fence_failures : int;
      (** probes whose stale write was accepted: must be 0 *)
  response : Stat.summary;  (** response times of acknowledged commits *)
  recovery : Recovery.report;  (** the first (or only) node's recovery *)
  timeline : Timeseries.t option;
      (** continuous telemetry over the load phase when [sample_interval]
          was given: cumulative [drill.committed]/[drill.failed] gauges
          plus every layer probe, with fault injections as marks — the
          event-aligned availability overlay *)
  flight : Flightrec.t option;
      (** the armed flight recorder when [flight] was given: the bounded
          ring of recent spans plus every fault mark, already dumped to
          the given path if the drill's gate failed *)
  integrity : integrity option;
      (** single-system PM runs: the post-recovery full-content audit
          of both mirrors ({!Pm.Pmm.divergent_chunks}) plus the repair
          counters *)
  availability : availability option;  (** single-system runs *)
  gray : gray option;  (** {!run_gray} *)
  overload : overload option;  (** {!run_overload} *)
  cluster : cluster option;  (** {!run_cluster} *)
}

(** The gray-failure section: the healthy baseline next to this
    (degraded) run, plus the demotion/re-admission evidence. *)
and gray = {
  g_defended : bool;
  g_baseline : report;  (** same platform and seed, empty fault plan *)
  g_p99_ratio : float;  (** degraded p99 commit latency / baseline p99 *)
  g_p99_limit : float;  (** the gate the ratio is judged against *)
  g_demotions : int;  (** slow-mirror demotions the PMM performed *)
  g_readmissions : int;  (** demoted mirrors resynced back in *)
  g_mirror_active : bool;  (** mirror re-admitted by the end *)
  g_monitor_probes : int;
  g_slow_suspects : int;  (** client-side SLO-breach transitions *)
  g_hedged_reads : int;
  g_hedge_wins : int;
  g_single_copy_writes : int;
      (** writes under the degraded-durability contract *)
}

(** The overload section: goodput phases, admission and containment. *)
and overload = {
  v_defended : bool;
  v_arrivals : int;  (** transactions the schedule offered *)
  v_rejected : int;
      (** attempts refused by admission or breakers — backpressure,
          not loss *)
  v_timeouts : int;  (** client calls abandoned after [op_timeout] *)
  v_admitted : int;  (** TMF admission verdicts *)
  v_tmf_rejected : int;
  v_tmf_expired : int;  (** commits shed server-side past deadline *)
  v_adp_shed : int;  (** flush waits shed past deadline *)
  v_retry_denied : int;  (** resends the token buckets refused *)
  v_breaker_trips : int;
  v_warmup_goodput : float;  (** committed/s during warmup *)
  v_spike_goodput : float;
  v_cooldown_goodput : float;
  v_recovery_time : Time.span option;
      (** spike end to the first cooldown window back at the recovery
          fraction of warmup goodput; [None] = stayed collapsed while
          load was still arriving — metastability *)
  v_spike_floor : float;
  v_recovery_frac : float;
  v_recovery_limit : Time.span;
  v_goodput : (Time.t * int) list;
      (** commits per window (window end, count), oldest first — the
          goodput-over-time series E17 tabulates *)
}

(** The cluster section: the partition's in-doubt window and fence. *)
and cluster = {
  c_nodes : int;
  c_in_doubt_before : int;
      (** prepared-but-undecided branches entering recovery, across all
          nodes — the partition's wreckage *)
  c_resolved_commit : int;  (** in-doubt branches committed by resolution *)
  c_resolved_abort : int;  (** in-doubt branches aborted by resolution *)
  c_fenced_writes : int;
      (** stale-epoch writes the devices rejected (includes the probes) *)
  c_recoveries : Recovery.report list;  (** per node, in node order *)
}

val zero_loss : report -> bool
(** [lost_rows = 0] — the invariant every drill asserts, and the
    [zero_loss] every rendered report shows. *)

val integrity_clean : report -> bool
(** The corruption drill's invariant: {!zero_loss} {e and} an integrity
    audit showing zero unrepaired divergence.  [false] when the report
    has no integrity section (disk mode). *)

val standard_plan : System.log_mode -> Faultplan.t
(** The default schedule.  PM mode: PMM primary kill, a mirror-NPMU
    power cycle, a rail flap, a CRC noise burst, then a mirror resync.
    Disk mode: ADP, DP2 and TMF primary kills plus the rail flap and
    noise burst.  Offsets assume {!default_params}-scale load. *)

val partition_plan : Faultplan.t
(** The cluster partition schedule: sever the inter-node link mid-2PC,
    kill the coordinator node's monitor while the link is down, heal,
    take over the PM manager (bumping the volume epoch), then verify the
    epoch fence is armed.  Offsets assume {!cluster_params}-scale load;
    cluster-scoped ({!run_cluster} / {!Faultplan.launch_cluster})
    only. *)

val corruption_config : System.config
(** {!System.pm_config} armed for the corruption drill: 2 MiB trail
    regions, the background scrubber on a tight cadence, and verified
    reads on every PM client. *)

val corruption_trail_base : int -> int
(** Device byte offset where trail region [i] starts under
    {!corruption_config}'s first-fit layout — where a decay or torn
    store must land to hit written frames.  The explorer aims its
    media faults with this. *)

val gray_params : params
(** {!default_params} scaled to 600 commits, so the detection window's
    slow commits stay below the p99 index in a defended run. *)

val gray_plan : Faultplan.t
(** The staged fail-slow schedule: the mirror NPMU degrades 200x
    mid-load, then a rail congests 2x and a data spindle drags 3x, then
    everything restores — so one run proves detection, demotion, bounded
    latency, and re-admission.  Offsets assume {!gray_params}-scale load
    on the gray platform of {!run_gray}. *)

type plan = Standard | Kills | Corruption | Grayfail | Overload | Partition | No_faults

val plans : (string * plan) list
(** Every named fault schedule — the closed set [odsbench drill --plan]
    accepts — in [--list-plans] order. *)

val plan_names : System.log_mode -> string list
(** The {!plans} names valid for a single-system drill in that mode,
    canonical first. *)

val cluster_plan_names : string list
(** The {!plans} names valid for a cluster drill, canonical first. *)

val run :
  ?seed:int64 ->
  ?config:System.config ->
  ?obs:Obs.t ->
  ?prof:Prof.t ->
  ?sample_interval:Time.span ->
  ?params:params ->
  ?horizon:Time.span ->
  ?recovery_plan:Faultplan.t ->
  ?inspect:(System.t -> unit) ->
  ?flight:string ->
  ?max_outage:Time.span ->
  mode:System.log_mode ->
  plan:Faultplan.t ->
  unit ->
  (report, string) result
(** Owns its simulation; safe to call outside process context.  [Error]
    carries a recovery or plan-validation failure.  [prof] is installed
    on the drill's simulation for the whole run (see {!Simkit.Prof}).
    [sample_interval] (requires [obs], else [Invalid_argument]) records
    a telemetry timeline into {!report.timeline}.  [inspect] runs against the live system after recovery
    succeeds, before the simulation is torn down — the hook gray drills
    use to harvest counters the report does not carry.

    [horizon] is forwarded to {!Faultplan.validate}: events offset past
    it are rejected instead of silently never firing.  [recovery_plan]
    is a second fault schedule whose offsets are relative to the start
    of recovery — it is launched the instant {!Recovery.run} begins, so
    its events land while replay and resolution are in flight, and it
    is awaited (and folded into {!report.faults} and the fence
    counters) before the durability audit runs.

    [flight] arms a {!Simkit.Flightrec} on the drill's observability
    context (growing a private one if no [obs] was passed, and raising
    the global telemetry level to spans): recent spans and every fault
    injection are ring-buffered, and whenever {!Oracle.of_report}
    (with [max_outage]) rejects the report — or the drill errors
    outright — the black box dumps itself as JSON to that path, marked
    ["drill gate failed: "] and the verdict's {!Oracle.summary}. *)

val run_corruption :
  ?seed:int64 ->
  ?obs:Obs.t ->
  ?sample_interval:Time.span ->
  ?params:params ->
  ?defenses:bool ->
  ?flight:string ->
  unit ->
  (report, string) result
(** The end-to-end storage-integrity drill: {!run} in PM mode under
    {!corruption_config} and the silent-corruption schedule — mirror and
    primary media decay plus torn stores mid-load (landing in
    scrubber-unarbitratable active chunks, exercising quarantine and
    mirror salvage), then post-load decay in settled chunks the
    scrubber must catch and repair — plus decay at the crash itself,
    after the scrubber stops and before recovery, so only a verified
    read can catch it.
    Gated by {!Oracle.of_report} (flight mark ["corruption gate
    failed: ..."]).  A clean run satisfies {!integrity_clean} with [scrub_repairs >= 1]
    and [read_repairs >= 1] — both defense layers proven live.
    [~defenses:false] is the negative control: same faults with the
    scrubber and verified reads disabled, which loses rows and leaves
    divergence behind — evidence the injection is real, and what silent
    corruption costs without the defenses. *)

val run_gray :
  ?seed:int64 ->
  ?obs:Obs.t ->
  ?sample_interval:Time.span ->
  ?params:params ->
  ?defenses:bool ->
  ?flight:string ->
  unit ->
  (report, string) result
(** The end-to-end gray-failure drill: a healthy baseline run (same
    seed, no faults), then {!gray_plan} on {!System.pm_config} armed
    for it: 2 MiB trail regions, the PMM mirror-health monitor, client
    latency-health tracking (150 us SLO budget), hedged reads, and
    adaptive data-path backoff.  [~defenses:false] turns every one of
    those defenses off: the negative control whose commit p99 collapses
    to the slow mirror's latency.
    The gate holds the degraded p99 to at most 8× the baseline's.
    [obs] / [sample_interval] / [flight] instrument the degraded run
    only.  The report is the degraded run with a {!gray} section
    holding the baseline; the recorder dumps once, marked ["gray gate
    failed: ..."], when {!Oracle.of_report} rejects it. *)

(** {1 Overload drill}

    The metastable-failure drill: open-loop flash-crowd load against an
    impatient client population, defended by admission control,
    deadlines, retry budgets and breakers — or undefended, the negative
    control that must stay collapsed after the spike ends. *)

type overload_params = {
  ov_record_bytes : int;
  ov_inserts_per_txn : int;
  ov_base_rate : float;  (** offered txns/s before and after the spike *)
  ov_spike : float;  (** spike multiple of the base rate *)
  ov_warmup : Time.span;
  ov_spike_for : Time.span;
  ov_cooldown : Time.span;
  ov_window : Time.span;  (** goodput sampling window *)
  ov_settle : Time.span;
  ov_client_retries : int;
      (** driver-level whole-transaction retries of a failed (not
          rejected) attempt *)
  ov_spike_floor : float;
      (** gate: spike goodput ≥ floor × warmup goodput *)
  ov_recovery_frac : float;
      (** gate: recovered once a cooldown window's rate is back to this
          fraction of the warmup rate *)
  ov_recovery_limit : Time.span;
      (** gate: recovery must happen within this span of the spike end *)
}

val overload_params : overload_params
(** Base 400 txns/s (~0.6x measured open-loop capacity), 5x spike for
    400 ms, 1.5 s of cooldown observation in 100 ms windows. *)

val overload_config : System.config
(** {!System.pm_config} armed with every overload defense: TMF
    admission control, 150 ms transaction deadlines, budgeted client
    retries (12-token buckets), per-destination breakers — plus the
    300 ms client patience that is the storm's raw material. *)

val overload_plan : overload_params -> Faultplan.t
(** The [Flash_crowd] marker event at the spike's offset; validated with
    {!Faultplan.validate_overload}. *)

val run_overload :
  ?seed:int64 ->
  ?obs:Obs.t ->
  ?sample_interval:Time.span ->
  ?params:overload_params ->
  ?defenses:bool ->
  ?horizon:Time.span ->
  ?flight:string ->
  unit ->
  (report, string) result
(** Run the flash-crowd schedule open-loop against a fresh system, drain
    the stragglers, crash, recover, and audit durability plus the
    goodput gates.  Owns its simulation.  [~defenses:false] runs the
    same schedule and seed on the undefended platform.  [flight] dumps
    the black box, marked ["overload gate failed: ..."], when
    {!Oracle.of_report} rejects the report. *)

val run_cluster :
  ?seed:int64 ->
  ?nodes:int ->
  ?config:System.config ->
  ?obs:Obs.t ->
  ?params:params ->
  ?horizon:Time.span ->
  ?recovery_plan:Faultplan.t ->
  ?flight:string ->
  plan:Faultplan.t ->
  unit ->
  (report, string) result
(** A partition drill: build an [nodes]-node PM-mode cluster, run the
    distributed hot-stock mix (every transaction spreads rows across
    nodes and commits two-phase) while the plan fires, crash every
    node's DP2 images, run {!Cluster.recover} — which resolves each
    node's in-doubt branches against their coordinators — and judge the
    report with {!Oracle.of_report} ([flight] dumps, marked ["cluster
    gate failed: ..."], when it fails).  Always PM mode (the fence probe
    requires it).  Owns its simulation.  [horizon] and [recovery_plan]
    behave as in {!run}: past-horizon events are rejected at
    validation, and the recovery plan races {!Cluster.recover}. *)

(** {1 The shared invariant oracle}

    One check table states the platform's safety invariants once and
    judges every drill family with them.  Each row names a check, the
    report section it reads and its rule; a row whose section the
    report lacks goes into [not_applicable] with a reason instead of
    being skipped.  Every drill family is gated by [pass] of its
    verdict, and {!Explorer} judges every generated schedule with the
    same verdicts — so an explorer violation is exactly a drill-gate
    failure, never a third opinion. *)
module Oracle : sig
  type check = {
    ck_name : string;  (** stable identifier, e.g. ["acked_durable"] *)
    ck_ok : bool;
    ck_detail : string;  (** the observed value, either way *)
  }

  type not_applicable = { na_name : string; na_reason : string }

  type verdict = { ok : bool; checks : check list; not_applicable : not_applicable list }

  val of_report : ?max_outage:Time.span -> report -> verdict
  (** Every row of the table, in table order, either judged (in
      [checks]) or not applicable (with its reason): the core's
      [acked_durable], [in_doubt_drained], [no_orphaned_locks] and
      [no_fence_failures]; [integrity_clean] on the integrity section
      (reported, not judged, on gray runs until the re-admission resync
      leaves no divergence); [bounded_unavailability] on the
      availability section when [max_outage] is given; the gray
      section's [baseline_durable], [p99_bounded] and — defended runs
      only — [mirror_demoted], [mirror_readmitted], [mirror_active] and
      [slow_suspects_flagged]; the overload section's
      [warmup_progress], [spike_goodput_floor], [goodput_recovered] and
      — defended runs only — [admission_shed].  [ok] is the conjunction
      of [checks]. *)

  val pass : verdict -> bool

  val failures : verdict -> check list

  val summary : verdict -> string
  (** One line: ["all invariants hold"] or the failed checks' details,
      [";"]-joined — the flight-recorder mark a failing drill leaves. *)

  val to_json : verdict -> Json.t
  (** [{"pass": bool, "checks": [{"name", "ok", "detail"}, ...],
      "not_applicable": [{"name", "reason"}, ...]}] — the uniform
      schema every drill report and explorer repro embeds. *)
end

(** {1 The one renderer} *)

val to_json : plan:string -> Oracle.verdict -> report -> Json.t
(** The report as one JSON object: the core, then each section it
    carries, with [verdict] as its ["oracle"].  [plan] labels the
    schedule.  A nested run (the gray baseline) renders without a
    verdict of its own. *)

val pp : Oracle.verdict -> Format.formatter -> report -> unit
(** The same report as text; a failed [verdict] adds one line naming
    the failed checks. *)

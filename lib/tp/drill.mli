open Simkit

(** Availability/durability drills.

    A drill builds a fresh platform, puts load on it while a
    {!Faultplan.t} fires against it, then crashes it (wipes every DP2
    image), recovers, and audits durability: every transaction the
    client saw acknowledged must be present after recovery.
    Acknowledged-but-lost rows are the one unforgivable failure
    ({!report.lost_rows}); transactions that visibly failed during the
    faults are availability loss, counted separately.

    A drill family is one value, a {!spec}: its load (which fixes the
    platform), its config and whether its defenses are on, its fault
    plans, and its seed.  {!spec_of} is the one table of the named
    families; {!exec} is the one entry point that runs a spec, judges it
    with {!Oracle.of_report} and, on a failed gate, dumps the flight
    recorder.

    The closed and distributed loads are {!Load}'s hot-stock and 2PC
    drivers in its client harness, the same code every workload runs:
    they retry [begin] across takeovers and treat commit errors as
    data, because a drill's subject is the system's behaviour under
    faults, not the driver's.

    Everything is derived from the simulation seed, so a drill replays
    bit-for-bit: same spec, same report. *)

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
  gray : gray option;  (** runs with a {!spec.baseline} *)
  overload : overload option;  (** [Open] loads *)
  cluster : cluster option;  (** [Distributed] loads *)
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

val corruption_config : System.config
(** {!System.pm_config} armed for the corruption drill: 2 MiB trail
    regions and the [Integrity] switch (the background scrubber on a
    tight cadence, and verified reads on every PM client). *)

val corruption_trail_base : int -> int
(** Device byte offset where trail region [i] starts under
    {!corruption_config}'s first-fit layout — where a decay or torn
    store must land to hit written frames.  The explorer aims its
    media faults with this. *)

(** Sizing and gates of the open-loop flash-crowd load. *)
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

val overload_plan : overload_params -> Faultplan.t
(** The [Flash_crowd] marker event at the spike's offset; validated with
    {!Faultplan.validate}'s [Overload_drill] scope. *)

(** {1 Drill specs} *)

type plan = Standard | Kills | Corruption | Grayfail | Overload | Partition | No_faults

val plans : (string * plan) list
(** Every named fault schedule — the closed set [odsbench drill --plan]
    accepts — in [--list-plans] order. *)

(** The load a drill puts on its platform, which also fixes the
    platform. *)
type load =
  | Closed of params
      (** closed-loop hot-stock drivers ({!Load.hot_stock}) on one
          node, in the config's [log_mode] *)
  | Open of overload_params
      (** an open-loop flash crowd against impatient clients on one
          node: arrivals do not wait for commits *)
  | Distributed of { nodes : int; params : params }
      (** the distributed mix on a PM cluster ({!Load.two_phase}):
          every transaction spreads rows across nodes and commits
          two-phase *)

type spec = {
  load : load;
  config : System.config;
      (** the platform, with the defense switches the family uses armed;
          [defenses = []] is the negative control *)
  plan : Faultplan.t;  (** fired during the load *)
  recovery_plan : Faultplan.t;
      (** offsets relative to the start of recovery: launched the
          instant recovery begins, awaited and folded into
          {!report.faults} and the fence counters before the audit *)
  horizon : Time.span option;
      (** forwarded to validation: events offset past it are rejected
          instead of silently never firing *)
  crash_decay : (int * int * int) list;
      (** [(device, offset, bits)] decayed at the crash, after the
          scrubber stops and before recovery, so only a verified read
          can catch it *)
  baseline : bool;
      (** run the same spec fault-free first; the report gets a {!gray}
          section holding that baseline, and its gate bounds the p99
          commit latency against the baseline's *)
  seed : int64;
}

val spec_of : plan -> [ `Single of System.log_mode | `Cluster ] -> (spec, string) result
(** The named family on a single node in that log mode, or on a
    2-node cluster, with its defenses on.  [Error] is the usage message
    when the platform cannot run the plan.
    - [standard]: PM mode kills the PMM primary, power-cycles the
      mirror NPMU, flaps a rail, bursts CRC noise, then resyncs the
      mirror; disk mode kills ADP, DP2 and TMF primaries among the rail
      flap and noise burst.  [kills] keeps only the kills; [none] fires
      nothing.
    - [corruption] (PM): {!corruption_config}, media decay and torn
      stores mid-load and after it, and decay at the crash.  Defended,
      both the scrubber and verified reads repair; undefended, rows are
      lost and divergence is left behind.
    - [grayfail] (PM): the mirror NPMU degrades 200x mid-load, then a
      rail congests and a spindle drags, then everything restores; the
      mirror-health monitor, client latency tracking, hedged reads and
      adaptive backoff are armed.  Runs a fault-free baseline first and
      holds the degraded p99 to 8x the baseline's.
    - [overload] (PM): the flash crowd against clients with 300 ms
      patience; admission control, deadlines, retry budgets and breakers
      are armed.
    - [partition] (cluster): severs the inter-node link mid-2PC, kills
      the coordinator's monitor, heals, takes over the PM manager and
      probes the epoch fence. *)

val plan_names : [ `Single of System.log_mode | `Cluster ] -> string list
(** The {!plans} names {!spec_of} accepts on that platform, canonical
    first — what [--list-plans] prints. *)

val exec :
  ?obs:Obs.t ->
  ?prof:Prof.t ->
  ?sample_interval:Time.span ->
  ?inspect:(System.t -> unit) ->
  ?flight:string ->
  ?max_outage:Time.span ->
  spec ->
  (report, string) result
(** Run a spec.  Owns its simulation; safe to call outside process
    context.  [Error] carries a recovery or plan-validation failure;
    [Invalid_argument] a load with no driver, an empty boxcar or fewer
    than two nodes.  The instruments apply to the run under the plan,
    not to a baseline: [prof] is installed on its simulation (see
    {!Simkit.Prof}); [sample_interval] (requires [obs], else
    [Invalid_argument]) records a telemetry timeline into
    {!report.timeline}; [inspect] runs against each live system after
    recovery succeeds, before the simulation is torn down.

    [flight] arms a {!Simkit.Flightrec} on the drill's observability
    context (growing a private one if no [obs] was passed, and raising
    the global telemetry level to spans): recent spans and every fault
    injection are ring-buffered, and whenever {!Oracle.of_report} (with
    [max_outage]) rejects the report — or the drill errors outright —
    the black box dumps itself as JSON to that path, marked at the
    simulated instant of judgement with ["<family> gate failed: "] and
    the verdict's {!Oracle.summary}.  The family is [gray] for a
    baseline run, [overload], [cluster], [corruption] for crash decay,
    else [drill]. *)

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
(** {!exec} of a [Closed] spec with [config] (default
    {!System.default_config}) switched to [mode], kept for the
    benchmark's traced drill. *)

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

open Simkit

(** Declarative fault schedules (drill plans).

    A plan is a list of timed fault events against a running
    {!System.t}: process-pair primary kills, NPMU power cycles, rail
    flaps, CRC noise bursts, and mirror resyncs — the failure modes the
    paper's availability story rests on (§3.4, §4.1).  {!launch} spawns
    one scheduler process that sleeps to each event's offset and
    injects it, so a plan plus the simulation seed fully determines a
    run: the same drill replays bit-for-bit.

    Every injected fault is recorded as a span on track ["fault"] and
    counted under [fault.injected] (plus a per-kind counter) when the
    system has an observability context. *)

(** Which process pair to decapitate. *)
type target =
  | Adp of int  (** data ADP by index *)
  | Dp2 of int  (** disk-process partition by index *)
  | Tmf  (** the transaction monitor *)
  | Pmm  (** the PM manager pair (PM mode only) *)

type action =
  | Kill_primary of target
  | Npmu_power_cycle of { device : int; off_for : Time.span }
      (** Power-lose NPMU [device] (by {!System.npmus} index) and
          restore it [off_for] later.  Contents survive — that is the
          point — but writes during the window degrade to the
          surviving mirror, leaving the cycled device stale until a
          {!Pmm_resync}. *)
  | Rail_down of int
  | Rail_up of int
  | Crc_noise_burst of { rate : float; duration : Time.span }
      (** Raise the fabric's per-packet corruption probability to
          [rate] for [duration], then restore the previous rate. *)
  | Media_decay of { device : int; off : int; bits : int }
      (** Silent media decay: flip [bits] consecutive bit positions of
          NPMU [device] (by {!System.npmus} index) starting at byte
          [off] — {!Pm.Npmu.decay}.  No fabric traffic, no error, no
          timing: only the scrubber or a verified read can notice.
          PM mode only. *)
  | Torn_write of { device : int }
      (** Torn store: corrupt the trailing half of the last RDMA write
          that landed on NPMU [device] — {!Pm.Npmu.tear_last_write} —
          modelling a power cut mid-store.  Records whether anything
          was torn.  PM mode only. *)
  | Pmm_resync
      (** Ask the PMM to rebuild the mirror from the primary device
          (a management call that blocks the scheduler for the copy's
          duration, riding out takeovers via {!Rpc.call_retry}). *)
  | Wan_partition
      (** Sever the cluster's inter-node link ({!Cluster.partition}).
          Only valid in a [Cluster_node] {!scope}. *)
  | Wan_heal  (** Restore the inter-node link. *)
  | Fence_check
      (** Run {!System.fence_check}: probe that a stale-epoch write is
          rejected.  Pass/fail lands in the injection log and the run's
          {!fence_checks} / {!fence_failures} counters.  PM mode only. *)
  | Slow_device of { device : int; factor : float; jitter : Time.span }
      (** Gray failure: multiply NPMU [device]'s fabric service latency
          by [factor] (≥ 1) and add uniform jitter in [0, jitter] per
          transfer — {!Pm.Npmu.degrade}.  The device keeps answering
          correctly; it is merely slow, the fail-slow mode mirrored
          writes are most exposed to.  PM mode only. *)
  | Slow_rail of { rail : int; factor : float }
      (** Multiply the service latency of every transfer routed over
          fabric rail [rail] by [factor] (≥ 1) — a congested or
          renegotiated-down link. *)
  | Slow_disk of { volume : int; factor : float; jitter : Time.span }
      (** Multiply data volume [volume]'s mechanical service times by
          [factor] (≥ 1) with uniform extra jitter in [0, jitter] —
          {!Diskio.Volume.degrade}. *)
  | Restore_speed
      (** Lift every fail-slow injection at once: all NPMUs, all rails
          and all data volumes return to full speed. *)
  | Flash_crowd of { spike : float; spike_for : Time.span }
      (** Overload-drill-only marker: the offered load spikes to
          [spike]x for [spike_for].  The drill's open-loop arrival
          engine is what actually raises the load; the event puts the
          spike in the injection log, timeline marks and flight
          recorder.  Only the [Overload_drill] {!scope} (the
          [--plan overload] path) admits it. *)

type event = { after : Time.span; action : action }
(** [after] is the offset from {!launch}, not an absolute time. *)

type t = event list

val at : Time.span -> action -> event

val action_name : action -> string
(** Short kind tag: ["kill_adp"], ["rail_down"], ... *)

val action_kinds : string list
(** Every kind tag {!action_name} can produce, in declaration order —
    the vocabulary {!of_json} accepts and names in its errors. *)

val describe : action -> string
(** Human-readable one-liner with parameters. *)

val to_json : t -> Json.t
(** Serialize a plan as a JSON array of action objects.  Each event
    carries its [kind] tag plus [after_ns] and per-action parameters;
    durations are integer nanosecond fields ([off_for_ns],
    [duration_ns], ...) so {!of_json} reads back a structurally
    identical plan — the repro-file contract. *)

val of_json : Json.t -> (t, string) result
(** Parse a plan serialized by {!to_json} (or written by hand).  Errors
    name the offending action index and, for an unknown [kind], list
    every valid kind. *)

(** What a plan runs against. *)
type scope =
  | Single of System.t  (** one node *)
  | Overload_drill of System.t
      (** one node under the overload drill: [Flash_crowd] is admitted
          (spike ≥ 1, positive window) *)
  | Cluster_node of Cluster.t * int
      (** node [i] of a cluster: node-local events hit its system, and
          [Wan_partition] / [Wan_heal] act on the cluster's inter-node
          link *)

val set_single_plans : (System.log_mode -> string list) -> unit
(** Supply the drill plans a single node of each log mode runs, which
    {!validate}'s flash-crowd refusal names.  [Drill] owns that table
    and calls this once, when it is linked. *)

val validate : ?horizon:Time.span -> scope -> t -> (unit, string) result
(** Check every event against the scope's system: target and device
    indices in range, rail indices within the fabric, CRC rates in
    [0, 1), no PM-only events (PMM kill, NPMU cycle, resync, fence
    check) against a disk-mode system, and no WAN events outside a
    [Cluster_node] scope.  [Flash_crowd] outside the [Overload_drill]
    scope is rejected, and the error names the valid plans.  When
    [horizon] is given, events offset past it are rejected too: the
    drill would have crashed and audited before they fired, so they
    would otherwise be silently dropped.  Errors name the offending
    action index. *)

(** A plan in flight. *)
type run

val launch : scope -> t -> run
(** Validate and start executing the plan against the scope.  Raises
    [Invalid_argument] if {!validate} rejects it.  Safe to call outside
    process context; the scheduler is its own process. *)

val await : run -> unit
(** Block the calling process until the last event has been injected
    (including a final resync's completion).  Process context only. *)

val injected : run -> (Time.t * string) list
(** The faults injected so far, oldest first, with their injection
    times — the drill report's fault log. *)

val fence_checks : run -> int
(** [Fence_check] events executed so far. *)

val fence_failures : run -> int
(** [Fence_check] events that did {e not} see the stale write rejected —
    zero in a healthy run. *)

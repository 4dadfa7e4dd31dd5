open Simkit
open Nsk

(** Whole-system assembly: a NonStop-style node running the transaction
    stack, in either the classic disk-audit configuration or the paper's
    persistent-memory configuration (§4.2-4.3).

    Topology follows the paper's benchmark setup: [worker_cpus]
    application CPUs, one audit volume and one ADP per CPU plus a master
    audit trail, [files × partitions_per_file] data volumes each owned by
    a DP2 pair, a TMF pair, and — in PM mode — a mirrored pair of PM
    devices (hardware NPMUs or PMP prototypes on an extra CPU) managed by
    a PMM pair, holding one trail region per ADP plus the transaction
    state table. *)

type log_mode = Disk_audit | Pm_audit

type pm_device_kind = Hardware_npmu | Prototype_pmp

(** The three groups of defenses, each armed at fixed values (DESIGN.md
    §3.9) by {!build} and {!session}. *)
type defense =
  | Integrity
      (** the PMM's background scrubber, pausing 100 µs between chunks
          (whoever builds the system owns stopping it:
          {!Pm.Pmm.stop_scrubber}), and verified reads: every PM client
          read cross-checks the mirror and read-repairs divergence *)
  | Fail_slow
      (** the PMM's mirror-health monitor at
          {!Pm.Pmm.default_health_config} (slow-mirror demotion and
          re-admission; stopped with {!Pm.Pmm.stop_monitor}), PM-client
          latency tracking against a 150 µs budget, hedged reads and
          adaptive data-path backoff *)
  | Overload
      (** deadline-based admission control at the monitor, a 150 ms
          deadline on every transaction, retry budgets of 12 tokens per
          session and per PM client's management path, and per-destination
          circuit breakers in sessions *)

type config = {
  seed : int64;
  worker_cpus : int;
  files : int;
  partitions_per_file : int;
  log_mode : log_mode;
  adps_per_node : int;  (** data ADPs; the MAT ADP is additional *)
  pm_device_kind : pm_device_kind;
  pm_capacity : int;  (** per PM device *)
  pm_region_bytes : int;  (** trail ring per ADP *)
  pm_write_penalty : Time.span;  (** extra device latency (latency sweep) *)
  pm_mirrored : bool;
  client_op_timeout : Time.span;
      (** per-call patience of sessions from {!session}
          ({!Txclient.create}'s [op_timeout]); 0 (the default) waits
          forever.  The environment a defense copes with, not a
          defense. *)
  fabric : Servernet.Fabric.config;
  defenses : defense list;
      (** the switches armed; [[]] (the default) is the undefended
          platform, every drill's negative control *)
}

val default_config : config
(** The hot-stock benchmark platform: 4 worker CPUs, 4 files x 4
    partitions (16 data volumes), 4 ADPs + MAT, disk audit. *)

val pm_config : config
(** [default_config] with PM audit trails (and so the txn-state table). *)

type t

val build : ?obs:Obs.t -> Sim.t -> config -> t
(** Construct and start every component.  With [obs], every subsystem —
    message system, lock manager, volumes, fabric, PM clients and
    devices, log backends, ADPs, TMF, DP2s, and sessions created through
    {!session} — reports into that context's metrics registry and span
    collector, and the span clock is bound to [sim].  In PM mode this creates the
    trail regions through the PMM, which takes messages and simulated
    time: call it from inside a spawned process (the usual pattern is one
    setup-and-drive process that builds the system and then runs the
    workload).  Disk mode also works outside process context. *)

val sim : t -> Sim.t

val node : t -> Node.t

val config : t -> config

val tmf : t -> Tmf.t

val adps : t -> Adp.t array
(** Data ADPs, indexed as insert replies report them. *)

val mat : t -> Adp.t

val dp2s : t -> Dp2.t array

val dp2_servers : t -> Dp2.server array

val locks : t -> Lockmgr.t

val data_volumes : t -> Diskio.Volume.t array

val pmm : t -> Pm.Pmm.t option

val npmus : t -> Pm.Npmu.t list
(** The mirrored PM devices ([Hardware_npmu] mode). *)

val txn_state_region : t -> (Pm.Pm_client.t * Pm.Pm_client.handle) option
(** The monitor's fine-grained transaction-state table: [Some] exactly in
    PM mode. *)

val pm_clients : t -> Pm.Pm_client.t list
(** Every PM client attachment the system made (trail writers plus the
    transaction-state table's).  Empty in disk mode. *)

val degraded_pm_writes : t -> int
(** Writes that persisted on one device only, across all clients — the
    drill report's degraded-mode evidence. *)

val pm_write_retries : t -> int
(** Transient fabric errors retried on the PM data path, across all
    clients. *)

val pm_read_repairs : t -> int
(** Divergent chunks verified reads repaired, across all clients. *)

val pm_verify_unrepaired : t -> int
(** Divergent chunks verified reads could not arbitrate, across all
    clients. *)

val pm_slow_suspects : t -> int
(** Healthy-to-suspect latency transitions observed by PM clients. *)

val pm_hedged_reads : t -> int
(** Plain reads whose hedge timer fired the mirror copy, across all
    clients. *)

val pm_hedge_wins : t -> int
(** Hedged reads the mirror answered first, across all clients. *)

val pm_single_copy_writes : t -> int
(** Writes persisted primary-only under the degraded-durability
    contract (mirror demoted), across all clients. *)

val fence_check : t -> (unit, string) result
(** Verify the epoch fence is armed: issue a write stamped one epoch
    behind the volume and confirm the device rejects it as stale.  The
    probe initiator holds no write grant, so the check cannot corrupt
    data even if fencing is broken — any outcome other than
    [Stale_epoch] is reported as a failure.  PM mode with at least one
    region only; process context only. *)

val obs : t -> Obs.t option
(** The context passed to {!build}, if any. *)

val session : t -> cpu:int -> Txclient.t
(** A transaction session for an application on worker CPU [cpu].
    Inherits the system's observability context. *)

val routing : t -> Txclient.routing

val total_audit_bytes : t -> int
(** Durable trail bytes across data ADPs and the MAT. *)

val checkpoint_message_bytes : t -> int
(** Total process-pair checkpoint traffic (ADPs + MAT), the §2
    "check-point traffic between process pairs". *)

val adp_shed_expired : t -> int
(** Expired flush waits shed across every trail writer (data ADPs +
    MAT) — admission control's back-pressure observable. *)

val report : Format.formatter -> t -> unit
(** Operator summary: per-subsystem counters (transactions, trails,
    volumes, locks, fabric) after a run. *)

val start_trail_archiver : t -> ?interval:Time.span -> ?rounds:int -> unit -> unit
(** Spawn a background job that trims every trail's durable prefix every
    [interval] (audit archiving).  With [rounds] it stops after that many
    sweeps; without, it runs forever — which also keeps the simulation's
    event queue alive, so unbounded archivers belong in runs driven by
    [Sim.run ~until]. *)

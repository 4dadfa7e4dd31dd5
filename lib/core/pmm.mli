open Simkit
open Nsk

(** Persistent Memory Manager: the process pair that owns a PM volume.

    A PM {e volume} is a mirrored pair of NPMUs (or PMP prototypes)
    managed by one PMM pair (paper §4.1).  The PMM allocates {e regions}
    — the PM analog of files — inside the volume, programs AVT windows so
    that authorized client CPUs can RDMA directly to the devices, and
    keeps the volume metadata (region name, extent, owner) durable and
    self-consistent {e on the devices themselves}, using dual
    generation-stamped, CRC-protected slots per device so that a crash
    mid-update always leaves a valid copy to recover from.

    Clients do not talk to the PMM for data access — only for management
    (create/open/close/delete).  Data moves by direct RDMA; see
    {!Pm_client}. *)

(** A managed device: what the PMM needs from an {!Npmu.t} or {!Pmp.t}. *)
type device = {
  dev_name : string;
  dev_id : int;  (** fabric endpoint id *)
  dev_avt : Servernet.Avt.t;
  dev_mem : Servernet.Fabric.Pages.t;
      (** the device memory itself, whose size is the device capacity;
          the maintenance path (volume formatting, the divergence audit)
          reads and writes it directly: no fabric traffic, no time *)
  dev_power_cycles : unit -> int;
      (** monotone count of power-loss events; the resync path compares
          it across the copy to catch blips invisible to RDMA *)
  dev_alive : unit -> bool;
      (** currently powered and reachable; the scrubber refuses to bless
          a clean scan taken while either copy was dark *)
}

val device_of_npmu : Npmu.t -> device

val device_of_pmp : Pmp.t -> device

type request =
  | Create of { rname : string; size : int; client : int }
      (** the creator is granted access immediately.  The region table
          must fit in 8 KiB ([meta_reserve/8]): a [Create] or [Open] that
          would outgrow it answers [Bad_request] naming the limit, with
          nothing written *)
  | Open of { rname : string; client : int }
  | Close of { rname : string; client : int }
  | Delete of { rname : string }
  | List_regions
  | Resync of { from_primary : bool }
      (** administrative mirror rebuild: copy every allocated region (and
          the metadata) from one device of the pair onto the other, e.g.
          after a replaced or power-cycled NPMU came back stale.  Fails —
          leaving the volume degraded — if either device power-cycles
          during the copy; on success the volume epoch is bumped so stale
          grants are fenced. *)
  | Chunk_crc of { addr : int }
      (** Ask for the scrubber's trusted checksum of the chunk containing
          absolute device offset [addr] — the arbitration a verified
          reader needs to decide which copy of a divergent range is
          truth.  Answers with the chunk's geometry even when no
          scrubber runs (the checksum is then [None]). *)

type response =
  | R_region of Pm_types.region_info
  | R_regions of Pm_types.region_info list
  | R_ok
  | R_resynced of { bytes : int }
  | R_chunk_crc of {
      chunk_off : int;  (** absolute device offset of the chunk *)
      chunk_len : int;
      crc : int32 option;  (** durable checksum; [None] if never scanned clean *)
      steady : bool * bool;
          (** (primary, mirror): the device has not power-cycled since the
              chunk was marked clean; both false without such a mark *)
      quarantined : bool;
    }
  | R_error of Pm_types.error

type server = (request, response) Msgsys.server

val meta_reserve : int
(** Bytes at the front of each device kept for the volume metadata
    (64 KiB); regions are allocated above it. *)

val format : device -> device -> unit
(** Factory-initialize both devices with an empty, generation-1 metadata
    table (maintenance path, takes no simulated time). *)

(** {2 Metadata slot images}

    Both kinds of metadata slot — the region table (magic ["PMM1"]) and
    the scrubber's chunk-checksum table (["SCRB"]) — are
    {!Codec.frame}s.  Recovery adopts the newest slot whose parser
    accepts it; a damaged frame parses to [None], never an exception. *)

type meta
(** The region table as it sits in a slot. *)

val meta : generation:int -> epoch:int -> (string * int * int * int list) list -> meta
(** A table of [(name, offset, length, opener CPUs)] regions. *)

val slot_image : meta -> bytes

val parse_slot : bytes -> meta option
(** Also [None] when the header's generation disagrees with the one
    inside the payload. *)

val scrub_image :
  generation:int -> chunk_bytes:int -> (int * int32) list -> (int * int) list -> bytes
(** A chunk-checksum table: [(chunk offset, CRC32)] entries and
    [(chunk offset, length)] quarantined chunks. *)

val parse_scrub_slot :
  bytes -> (int * int * (int * int32) list * (int * int) list) option
(** [(generation, chunk_bytes, entries, quarantined)]. *)

type t

val start :
  fabric:Servernet.Fabric.t ->
  name:string ->
  primary_cpu:Cpu.t ->
  backup_cpu:Cpu.t ->
  primary_dev:device ->
  mirror_dev:device ->
  unit ->
  t
(** Boot the PMM pair.  The primary first {e recovers} the metadata table
    by RDMA-reading both devices' slots and picking the newest valid one;
    a freshly {!format}ted volume recovers to the empty table.  After a
    takeover, the promoted backup serves from its checkpointed copy. *)

val server : t -> server
(** The port clients address management requests to. *)

val degraded : t -> bool

val epoch : t -> int
(** Current volume epoch (0 before the first serve loop runs).  Bumped
    durably on every promotion — boot, takeover, cold-boot recovery —
    and on every successful resync; region grants carry it and the
    device AVTs fence writes stamped with an older value. *)

val last_recovery_time : t -> Time.span option
(** Wall-clock (simulated) duration of the most recent metadata recovery,
    [None] before first boot completes. *)

val pair : t -> (meta, Bytes.t option, Bytes.t) Procpair.t
(** The manager's process pair: takeovers, outage time, fault injection
    and teardown.  The backup keeps the last checkpointed table image; a
    promotion serves from it and fences the volume with a fresh epoch. *)

(** {2 Scrubbing}

    The scrubber is an incremental background task that walks every
    allocated region of the mirrored volume in fixed-size chunks,
    RDMA-reads both copies, and compares them.  A clean compare refreshes
    the chunk's entry in a durable checksum table (dual-slotted,
    generation-stamped and CRC-framed in the metadata reserve, persisted
    once per completed pass — {e after} the pass's repairs, so the table
    is never newer than the data it vouches for).  A divergent chunk is
    re-read after a short settle (to filter mirrored writes caught in
    flight), then arbitrated against the table by {!arbitrate}: the copy
    whose CRC matches, on a device that has not power-cycled since, is
    copied over the other ({e repair}); when neither qualifies the chunk
    strikes, and three consecutive strikes quarantine it — it
    is skipped thereafter and surfaced through
    {!scrub_quarantined_chunks} for operator attention. *)

val arbitrate :
  trusted:int32 option -> steady:bool * bool -> bytes -> bytes -> [ `Primary | `Mirror ] option
(** [arbitrate ~trusted ~steady p m] picks which of a divergent chunk's
    primary ([p]) and mirror ([m]) copies is truth, for the scrubber and
    for read repair alike: the copy whose CRC32 is the [trusted]
    checksum, provided its device is [steady].  A device that has
    power-cycled since the chunk's clean mark may have rolled back to
    exactly the blessed contents, so its match proves nothing.  [None]
    when neither copy qualifies: repair nothing. *)

val start_scrubber :
  t -> cpu:Cpu.t -> ?interval:Time.span -> ?obs:Obs.t -> unit -> unit
(** Start the background scrub process on [cpu] — must be one of the
    PMM pair's CPUs (the devices' windows admit only those).  It pauses
    [interval] (default 100 us) between chunk scans over 256 KiB chunks.
    Loads the
    durable checksum table, then loops passes until {!stop_scrubber}.
    With [obs], exports [pmm.scrub.regions] (chunks compared),
    [pmm.scrub.repaired], [pmm.scrub.quarantined] and [pmm.scrub.passes]
    gauges plus a [pmm.scrub] progress probe for the time-series
    sampler.  Raises [Invalid_argument] if already running. *)

val stop_scrubber : t -> unit
(** Ask the scrubber to stop; it exits at its next wakeup.  Idempotent. *)

val scrub_chunks_scanned : t -> int

val scrub_repairs : t -> int

val scrub_quarantined : t -> int

val scrub_table_entries : t -> int

val scrub_quarantined_chunks : t -> (int * int) list
(** Quarantined chunks as [(offset, length)], sorted. *)

val divergent_chunks : t -> (int * int) list
(** Maintenance-path full-content audit (no fabric traffic, no time):
    compare every allocated extent across the pair in scrub-chunk
    geometry and return the non-quarantined chunks whose copies differ.
    Compares page by page in the devices' memory
    ({!Servernet.Fabric.Pages.equal}); untouched pages compare equal
    unread.  Empty on a healthy volume — the drill's final integrity
    gate. *)

(** {2 Mirror-health monitoring and slow-mirror demotion}

    A fail-slow NPMU is worse than a dead one: every mirrored write
    waits for it.  The monitor is a background process that periodically
    times a tiny (64-byte) RDMA read of each device's metadata window
    and keeps an EWMA of the service latency.  When the mirror's EWMA
    stays over the 100 us budget for [demote_after] consecutive probes,
    the mirror is {e demoted}: [mirror_active] goes false, the volume epoch is bumped
    (fencing every outstanding grant), and clients that re-open learn
    from the region info that they must write single-copy — the explicit
    degraded-durability contract.  When the device recovers and stays
    within budget for [readmit_after] consecutive probes, the monitor
    re-admits it through the ordinary resync path: full copy, windows
    reprogrammed, [mirror_active] true again, epoch bumped so clients
    resume mirrored writes. *)

type health_config = {
  probe_interval : Time.span;  (** pause between probe rounds *)
  health_alpha : float;  (** EWMA weight of the newest sample *)
  demote_after : int;  (** consecutive over-budget probes before demotion *)
  readmit_after : int;
      (** consecutive in-budget probes (while demoted) before resync *)
}

val default_health_config : health_config
(** 64-byte probes every 250 us, 100 us budget, alpha 0.5, demote after
    2 breaches, re-admit after 8 healthy probes. *)

val start_monitor :
  t -> cpu:Cpu.t -> ?config:health_config -> ?obs:Obs.t -> unit -> unit
(** Start the mirror-health monitor on [cpu] — must be one of the PMM
    pair's CPUs (the metadata windows admit only those).  With
    [obs], exports gauges [pmm.mirror_health] (1 active / 0
    demoted), [pmm.mirror_ewma_ns], [pmm.primary_ewma_ns],
    [pmm.demotions] and [pmm.readmissions].  Raises [Invalid_argument]
    if already running. *)

val stop_monitor : t -> unit
(** Ask the monitor to stop; it exits at its next wakeup.  Idempotent. *)

val mirror_active : t -> bool
(** False while the mirror is demoted for being persistently slow. *)

val demotions : t -> int
(** Slow-mirror demotions performed (cumulative). *)

val readmissions : t -> int
(** Demoted mirrors re-admitted after a clean resync (cumulative). *)

val monitor_probes : t -> int
(** Completed mirror probes (0 when no monitor runs). *)

val monitor_ewma_ns : t -> mirror:bool -> float
(** The monitor's smoothed probe latency for one device, in ns. *)

val demote_mirror : t -> bool
(** Force the demotion (process context: it persists the fence).  False
    when already demoted or no metadata is live yet.  The monitor calls
    this; exposed for tests and drills. *)

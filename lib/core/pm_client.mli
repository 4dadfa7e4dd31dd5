open Simkit
open Nsk

(** Client access library for persistent memory (paper §4.1).

    A client attaches to a PM volume (a PMM pair) from a CPU.  Management
    operations (create/open/close/delete) are messages to the PMM; data
    operations are direct, synchronous RDMA to the NPMUs — no manager and
    no device CPU in the path.  Writes go to both mirrors before the call
    returns: when {!write} returns [Ok ()] the data {e is} persistent, the
    property the modified audit process relies on to commit transactions
    without a disk flush. *)

type config = {
  mirrored_writes : bool;
      (** write both devices (default); [false] is the E4 ablation *)
  write_penalty : Time.span;
      (** extra per-write device latency, for slower-media sweeps (E3) *)
  mgmt_timeout : Time.span;  (** patience for PMM replies across takeovers *)
  mgmt_retries : int;
  mgmt_backoff : Time.span;
      (** base of the jittered exponential backoff between management
          retries: attempt [i] sleeps uniformly in [0, base * 2^i] *)
  verified_reads : bool;
      (** route every {!read} through {!read_verified_into}: cross-check the
          mirror and read-repair silent divergence (default [false] —
          it doubles read traffic) *)
  slo_budget : Time.span;
      (** per-op latency budget the health monitor compares against;
          0 (default) disables latency health tracking entirely *)
  health_alpha : float;  (** EWMA smoothing weight of the newest sample *)
  hedged_reads : bool;
      (** fire the mirror copy of a plain read after the hedge delay
          when the primary has not answered; first response wins
          (default [false]) *)
  hedge_min : Time.span;  (** clamp band of the adaptive hedge delay *)
  hedge_max : Time.span;
  adaptive_backoff : bool;
      (** scale the data-path retry backoff to the observed device EWMA
          instead of the fixed 100 µs base (default [false]) *)
  mgmt_retry_budget : float;
      (** token-bucket capacity for management-path retries
          ({!Simkit.Retry_budget}): each retry spends a token, each
          success refills a fraction, and an empty bucket surfaces
          [Manager_down] instead of amplifying the storm.  0 (the
          default) disables the budget. *)
}

val default_config : config

type t

val attach :
  cpu:Cpu.t ->
  fabric:Servernet.Fabric.t ->
  pmm:Pmm.server ->
  ?config:config ->
  ?obs:Obs.t ->
  unit ->
  t
(** With [obs], write latencies feed the shared [pm.write_ns] stat (all
    clients aggregate) and each {!write} gets a span on track ["pm"]. *)

val cpu : t -> Cpu.t

type handle
(** An open region: where its window lives and on which devices. *)

val info : handle -> Pm_types.region_info

val create_region : t -> name:string -> size:int -> (handle, Pm_types.error) result
(** Create and implicitly open a region. *)

val open_region : t -> name:string -> (handle, Pm_types.error) result

val close_region : t -> handle -> (unit, Pm_types.error) result

val delete_region : t -> name:string -> (unit, Pm_types.error) result

val list_regions : t -> (Pm_types.region_info list, Pm_types.error) result

val write :
  ?span:Span.span ->
  ?pad:int ->
  t ->
  handle ->
  off:int ->
  data:Bytes.t ->
  (unit, Pm_types.error) result
(** Synchronous persistent write of [data] followed by [pad] zero bytes
    (default 0).  The padding is carried as a length
    ({!Servernet.Fabric.rdma_write}): it costs device time and bounds
    like written bytes, but is never built.  Mirrored: returns [Ok] once every
    powered device of the pair holds the data; degraded single-device
    success is still persistent (and reported through {!degraded_writes}).
    Fails with [Device_failed] when no device accepted it, and with
    [Bad_request] on bounds violations (checked client-side before any
    wire traffic).  Writes carry the handle's volume epoch; if the volume
    was fenced (takeover/resync) the client transparently re-opens the
    region for a fresh grant and retries, failing with [Fenced] only when
    the refresh itself cannot be completed. *)

val read :
  ?span:Span.span -> t -> handle -> off:int -> len:int -> (Bytes.t, Pm_types.error) result
(** Read from the primary device, failing over to the mirror; transient
    fabric errors on both devices are retried up to two rounds with
    jittered backoff.  When the client was attached with
    [verified_reads], this is {!read_verified_into}.  With [obs], the read
    gets a ["pm.read"] span on track ["pm"] (child of [span] when
    given), annotated [hedged]/[hedge_won]/[failover] as those paths
    fire. *)

val read_into :
  ?span:Span.span ->
  t ->
  handle ->
  off:int ->
  len:int ->
  buf:Bytes.t ->
  pos:int ->
  (unit, Pm_types.error) result
(** {!read}, landing the bytes in [buf] at [pos] instead of a fresh
    buffer.  A hedged pair reads each copy privately and copies only the
    winner into [buf], so the losing read never touches it.  Raises
    [Invalid_argument] when [buf] cannot hold the range.  The other
    [_into] reads share this contract. *)

val read_device :
  t -> handle -> mirror:bool -> off:int -> len:int -> (Bytes.t, Pm_types.error) result
(** Read one named copy, no failover and no retry.  For callers that do
    their own cross-copy arbitration — the audit-trail replay salvages a
    frame torn on the primary from the mirror through this. *)

val read_device_into :
  t ->
  handle ->
  mirror:bool ->
  off:int ->
  len:int ->
  buf:Bytes.t ->
  pos:int ->
  (unit, Pm_types.error) result

val read_verified_into :
  t -> handle -> off:int -> len:int -> buf:Bytes.t -> pos:int -> (unit, Pm_types.error) result
(** Integrity-checking read: fetch the range from {e both} devices and
    compare.  On divergence, ask the PMM for the trusted chunk checksum
    ({!Pmm.request.Chunk_crc}) over every chunk of the range and let the
    scrubber's rule ({!Pmm.arbitrate}) pick the copy to keep: it is
    written over the other ({e read-repair}, counted in {!read_repairs}
    / [pm.read_repairs]), and the repaired contents are served.  A chunk
    the rule cannot arbitrate — including a match on a device that has
    power-cycled since the chunk was marked clean — is served from the
    primary unrepaired (counted in {!verify_unrepaired}); a copy that is
    unreachable degrades to the plain failover read.  Works — minus the
    repair arbitration — even when no scrubber is running. *)

val degraded_writes : t -> int
(** Writes that persisted on only one device. *)

val write_retries : t -> int
(** Transient data-path errors retried before a write settled. *)

val read_failovers : t -> int
(** Reads the primary device missed and the mirror served. *)

val read_repairs : t -> int
(** Divergent chunks a verified read repaired (also the
    [pm.read_repairs] counter when attached with [obs]). *)

val verify_divergences : t -> int
(** Verified reads that found the copies divergent. *)

val verify_unrepaired : t -> int
(** Divergent chunks a verified read could not arbitrate (no trusted
    checksum, both copies corrupt, or the PMM unreachable). *)

val verified_reads_enabled : t -> bool

val fenced_writes : t -> int
(** Writes bounced with [Stale_epoch] before a grant refresh (also the
    [pm.fenced_writes] counter when attached with [obs]). *)

val mgmt_retries_used : t -> int
(** Management calls re-sent across PMM takeovers or timeouts. *)

val mgmt_retry_exhausted : t -> int
(** Management calls that ran out of retries and surfaced
    [Manager_down] (also the [pm.mgmt_retry_exhausted] counter). *)

(** {1 Gray-failure telemetry}

    The client's own view of fail-slow hardware: every data-path op
    feeds a per-device EWMA and windowed p99, compared against
    [slo_budget].  All zero while health tracking is disabled. *)

val slow_suspects : t -> int
(** Healthy-to-suspect transitions observed on either device (also the
    [pm.slow_suspect] counter). *)

val hedged_reads_fired : t -> int
(** Plain reads whose hedge timer expired and fired the mirror copy. *)

val hedge_wins : t -> int
(** Hedged reads the mirror copy answered first. *)

val single_copy_writes : t -> int
(** Writes persisted primary-only because the PMM had demoted the
    mirror — the explicit degraded-durability contract, not an error. *)

val latency_suspect : t -> mirror:bool -> bool
(** Is the device currently over its SLO budget? *)

val latency_ewma : t -> mirror:bool -> float
(** Smoothed per-op latency in ns (0 before the first sample). *)

val write_latency : t -> Stat.t
(** Distribution of {!write} completion times. *)

val backoff_ceiling : base:Time.span -> attempt:int -> Time.span
(** The jitter ceiling of retry attempt [attempt]:
    [max 1 (base * 2^min(attempt, 6))].  Pure — exposed so the backoff
    contract is directly testable. *)

val backoff_span : Rng.t -> base:Time.span -> attempt:int -> Time.span
(** Sample one jittered backoff: uniform in
    [(0, {!backoff_ceiling} ~base ~attempt]].  The client sleeps exactly
    this span between retries. *)

open Simkit

(** Simulated ServerNet: a dual-rail, RDMA-capable system-area network.

    Endpoints attach to the fabric with a byte store and an {!Avt.t}.
    Initiators perform host-initiated RDMA read/write against a target's
    network virtual addresses; packets are CRC-protected and acknowledged
    in hardware, so a completed operation guarantees the data arrived
    intact at the remote NIC (paper §4.1).  Timing follows a simple
    serialization model: per-operation software latency, per-packet
    overhead, and payload time at link bandwidth, with the initiator and
    target NICs each busy for the transfer's duration. *)

type error =
  | Unreachable  (** target endpoint is dead or unknown *)
  | No_path  (** every rail between the endpoints is down *)
  | Avt_error of Avt.error  (** target NIC rejected the address or rights *)
  | Crc_failure  (** retries exhausted on a corrupted link *)

val error_to_string : error -> string

type config = {
  bytes_per_ns : float;  (** link bandwidth *)
  crc_error_rate : float;  (** per-packet corruption probability *)
  max_retries : int;  (** per-packet retransmissions before giving up *)
  rails : int;  (** redundant fabrics; NonStop uses X and Y *)
}

val default_config : config
(** ServerNet II-class: 125 MB/s links, 2 rails, no corruption.  Fixed
    for every fabric: 12 µs one-way latency per operation (the paper
    reports 10-20 µs for ServerNet), 512-byte packets, 200 ns per
    packet. *)

val sub_equal : Bytes.t -> int -> Bytes.t -> int -> int -> bool
(** [sub_equal a pa b pb n]: [a.[pa, pa + n)] and [b.[pb, pb + n)] hold
    the same bytes.  Compares in place, with no allocation; raises
    [Invalid_argument] when it reaches a byte outside either buffer. *)

(** Page-sparse device memory: [size] bytes in 256-byte pages, each
    created on its first non-zero write, under a table with one entry per
    4 KiB.  Pages and entries never written read as zero from one shared
    zero page or entry, so unused capacity costs one table word per 4 KiB
    and a small write one small page.  Every operation raises
    [Invalid_argument] on a range outside [0, size). *)
module Pages : sig
  type t

  val page_size : int

  val create : int -> t
  (** All-zero memory of the given size; allocates no page. *)

  val size : t -> int

  val read_into : t -> off:int -> len:int -> dst:Bytes.t -> dst_off:int -> unit
  (** Copy the range into [dst] at [dst_off]; raises [Invalid_argument]
      when [dst] is too short. *)

  val read : t -> off:int -> len:int -> Bytes.t
  (** A fresh copy of the range. *)

  val write : ?pad:int -> t -> off:int -> data:Bytes.t -> unit
  (** Store [data] at [off], then [pad] zero bytes (default 0) after it.
      A page never written stays the shared zero page when everything
      landing on it is zero, so copying or padding with zeros creates no
      page.  Raises [Invalid_argument] on a negative [pad]. *)

  val fill_zero : t -> off:int -> len:int -> unit
  (** Zero the range: resident pages are cleared in place, untouched
      pages stay shared. *)

  val equal : t -> t -> off:int -> len:int -> bool
  (** The two stores hold the same bytes over [off, off + len).  Ranges
      where both still share the zero page compare equal unread; the rest
      is compared in place, with no allocation.  Content, not identity:
      a resident page zeroed by {!fill_zero} equals a never-written one.
      The range must lie inside both stores. *)

  val get : t -> int -> char

  val set : t -> int -> char -> unit

  val clear : t -> unit
  (** Drop every page: the whole range reads as zero again. *)

  val resident_pages : t -> int
  (** Pages created by writes since creation or the last {!clear}. *)
end

(** A device's memory as seen from its NIC.  {!byte_store} gives a plain
    RAM-backed store; the persistent-memory library wraps stores to model
    non-volatility.  [read_into] copies a range into a destination
    buffer; [write] stores [data] followed by [pad] zero bytes. *)
type store = {
  size : int;
  read_into : off:int -> len:int -> dst:Bytes.t -> dst_off:int -> unit;
  write : off:int -> data:Bytes.t -> pad:int -> unit;
}

val pages_store : Pages.t -> store
(** Reads and writes go straight to the pages. *)

val byte_store : int -> store
(** [pages_store] over fresh pages of the given size. *)

type t

type endpoint

val create : Sim.t -> ?config:config -> ?obs:Obs.t -> unit -> t
(** With [obs], operation durations feed [fabric.xfer_ns], each RDMA op
    gets a span on track ["fabric"] (parented under the caller's
    [?span]), the cumulative counters below double as gauges
    ([fabric.rdma_writes], [fabric.bytes_written], ...), a [fabric.rail]
    probe tracks in-flight RDMA operations, and [fabric.retries] counts
    CRC retransmissions as a counter the sampler can turn into a rate. *)

val set_endpoint_probe : endpoint -> Probe.t option -> unit
(** Account RDMA operations {e targeting} this endpoint (outstanding ops
    and target-observed service time) to [p] — used by NPMUs to expose
    outstanding persistent-memory operations. *)

val config : t -> config

val attach : t -> name:string -> store:store -> endpoint
(** Attach an endpoint; it starts alive, with an empty AVT.  [name]
    labels the call site only: the fabric keeps no copy. *)

val id : endpoint -> int

val avt : endpoint -> Avt.t

val set_alive : endpoint -> bool -> unit
(** Dead endpoints fail all RDMA directed at them with [Unreachable]. *)

val set_rail : t -> int -> bool -> unit
(** Bring a rail up or down.  Operations in flight on a rail that goes
    down are retried on a surviving rail at completion time. *)

(** {1 Gray-failure (fail-slow) injection}

    A degraded endpoint or rail answers late instead of never: every
    transfer touching it is stretched by the multiplier, plus uniform
    seeded jitter so the tail is noisy rather than a clean multiple.
    Healthy paths (factor 1.0, no jitter) never sample the RNG, so
    enabling the machinery costs nothing when unused. *)

val set_endpoint_slow : endpoint -> factor:float -> jitter:Time.span -> unit
(** Degrade an endpoint: transfers to or from it take [factor]x as long
    ([factor >= 1.0]) plus up to [jitter] extra per transfer. *)

val clear_endpoint_slow : endpoint -> unit
(** Restore full speed (factor 1.0, no jitter). *)

val endpoint_slow : endpoint -> float
(** The latency multiplier currently in force (1.0 when healthy). *)

val set_rail_slow : t -> int -> float -> unit
(** Degrade a rail: every transfer routed over it is stretched by the
    factor ([>= 1.0]; 1.0 restores full speed). *)

val rail_slow : t -> int -> float

val set_crc_error_rate : t -> float -> unit
(** Change the per-packet corruption probability at runtime — fault
    plans use this to model a noisy-link window ([Crc_noise_burst]).
    Starts at the config's [crc_error_rate].  Raises [Invalid_argument]
    outside [0, 1). *)

val crc_error_rate : t -> float
(** The corruption probability currently in force. *)

(** {1 RDMA operations}

    Both calls block the calling process for the operation's duration and
    must run in process context. *)

val rdma_write :
  ?span:Span.span ->
  ?epoch:int ->
  ?pad:int ->
  t ->
  src:endpoint ->
  dst:int ->
  addr:int ->
  data:Bytes.t ->
  (unit, error) result
(** [?epoch] stamps the write descriptor with the initiator's view of
    the target volume's epoch; the target AVT rejects it with
    [Avt_error Stale_epoch] if the volume has since been fenced to a
    newer epoch (takeover/resync).

    [?pad] (default 0) appends that many zero bytes after [data] without
    the caller building them: the transfer time, the AVT window check
    and the byte counters all cover [Bytes.length data + pad], and the
    target store zero-fills the tail.  Raises [Invalid_argument] on a
    negative [pad]. *)

val rdma_read_into :
  ?span:Span.span ->
  t ->
  src:endpoint ->
  dst:int ->
  addr:int ->
  len:int ->
  buf:Bytes.t ->
  pos:int ->
  (unit, error) result
(** Read [len] bytes into [buf] at [pos].  The bytes land when the
    transfer completes; a failed read leaves [buf] untouched.  Raises
    [Invalid_argument] when [buf] cannot hold the range. *)

val rdma_read :
  ?span:Span.span ->
  t ->
  src:endpoint ->
  dst:int ->
  addr:int ->
  len:int ->
  (Bytes.t, error) result
(** {!rdma_read_into} a fresh buffer. *)

val transfer_time : t -> bytes:int -> Time.span
(** Nominal duration of a transfer of [bytes], without queueing or
    retries.  Used by the message system for datagram delivery. *)

(** {1 Statistics} *)

type stats = {
  writes : int;
  reads : int;
  bytes_written : int;
  bytes_read : int;
  packet_retries : int;
  failures : int;
}

val stats : t -> stats

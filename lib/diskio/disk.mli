open Simkit

(** Mechanical disk timing model (2004-era drive).

    A [Disk.t] tracks head position and write-cache occupancy and
    computes per-request service times: seek distance-dependent
    positioning, rotational delay, and media transfer.  Sequential reads
    stream (settle time only); sequential synchronous writes skip the
    seek but still wait out a rotational miss before the target sector
    passes under the head — the millisecond floor under every audit-trail
    flush that persistent memory removes.

    The model is timing-only: requests carry sizes, not payloads.  Data
    content lives in the processes that own the volumes. *)

type geometry = {
  capacity_bytes : int;
  block_bytes : int;
  seek_base : Time.span;  (** shortest non-zero seek *)
  seek_full : Time.span;  (** full-stroke seek *)
  rotation_period : Time.span;
  bytes_per_ns : float;  (** media transfer rate *)
  sequential_settle : Time.span;
      (** positioning cost of a back-to-back sequential access *)
}

val default_geometry : geometry
(** 36 GB, 10 kRPM, ~5 ms average seek, 40 MB/s media rate. *)

type cache_config = {
  cache_bytes : int;  (** battery-backed write cache capacity *)
  destage_bytes_per_ns : float;  (** sustained drain rate to media *)
}

val default_cache : cache_config
(** 8 MiB draining at 30 MB/s.  A write the cache absorbs completes in a
    fixed 150 µs. *)

type t

val create : Sim.t -> ?geometry:geometry -> ?cache:cache_config -> unit -> t
(** [cache] enables a write cache (reads and cache-miss writes still pay
    mechanical time). *)

type parts = {
  seek : Time.span;  (** seek, or settle on a sequential access *)
  rotation : Time.span;  (** rotational delay waited out *)
  transfer : Time.span;  (** media (or cache) transfer *)
  cache_hit : bool;  (** absorbed by the write cache *)
}

val parts_total : parts -> Time.span

val service :
  t -> kind:[ `Read | `Write ] -> block:int -> len:int -> Time.span
(** Service time for a request starting now, updating head position and
    cache state.  [len] is in bytes; [block] addresses units of
    [block_bytes]. *)

val service_parts :
  t -> kind:[ `Read | `Write ] -> block:int -> len:int -> parts
(** Like {!service} but itemised, so instrumentation can attribute the
    rotational-miss share of synchronous log appends separately from
    seek and transfer time. *)

val cache_used : t -> int
(** Current write-cache occupancy in bytes (0 without a cache). *)

(** {1 Fail-slow injection}

    A degraded drive answers late instead of never: retry storms or
    thermal recalibration stretch every request.  Grayfail drills use
    this to prove the stack bounds tail latency under slow hardware. *)

val degrade : t -> factor:float -> ?jitter:Time.span -> unit -> unit
(** Multiply every service-time component by [factor] ([>= 1.0]) and add
    up to [jitter] seeded extra per request.  Cache hits are stretched
    too — a sick controller is slow even out of cache. *)

val restore_speed : t -> unit
(** Back to nominal timing (factor 1.0, no jitter). *)

val slow_factor : t -> float
(** The multiplier currently in force (1.0 when healthy). *)

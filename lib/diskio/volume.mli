open Simkit

(** A disk volume: a {!Disk.t} behind a FIFO request queue served by a
    dedicated process, as a NonStop disk process would.  Requests queue
    when the spindle is busy, so volumes shared by several writers show
    realistic queueing delay. *)

type error = Volume_down

type t

type scheduling = Fifo | Elevator
(** [Elevator] (SCAN) serves the queued request closest ahead of the
    head, sweeping alternately up and down the block range — classic
    disk-process behaviour for deep random queues. *)

val create :
  Sim.t ->
  name:string ->
  ?geometry:Disk.geometry ->
  ?cache:Disk.cache_config ->
  ?scheduling:scheduling ->
  ?obs:Obs.t ->
  unit ->
  t
(** [scheduling] defaults to [Fifo].  With [obs], every request gets a
    span on track ["vol:<name>"], service times feed the shared
    [disk.service_ns] stat, writes that waited out a rotational miss
    feed [disk.rotational_miss_ns], a [vol.<name>] probe tracks the
    queue, and [disk.ops]/[disk.cache_hits] count service and
    write-cache hits across every volume. *)

val name : t -> string

val sim : t -> Sim.t

val submit :
  ?parent:Span.span ->
  t ->
  kind:[ `Read | `Write ] ->
  block:int ->
  len:int ->
  (unit, error) result Ivar.t
(** Enqueue a request; the ivar fills at completion.  Never blocks.
    [parent] links the request's span under the caller's. *)

val write : ?parent:Span.span -> t -> block:int -> len:int -> (unit, error) result
(** Synchronous write: submit and wait.  Process context only. *)

val read : ?parent:Span.span -> t -> block:int -> len:int -> (unit, error) result

val append : ?parent:Span.span -> t -> len:int -> (unit, error) result
(** Synchronous sequential append at the volume's append cursor, the
    access pattern of an audit-trail volume. *)

val set_up : t -> bool -> unit
(** A down volume fails new and queued requests with [Volume_down]. *)

val degrade : t -> factor:float -> ?jitter:Time.span -> unit -> unit
(** Fail-slow injection on the backing disk ({!Disk.degrade}): requests
    keep completing, [factor]x late plus seeded jitter. *)

val restore_speed : t -> unit

val slow_factor : t -> float
(** The backing disk's multiplier (1.0 when healthy). *)

val queue_depth : t -> int

(** Cumulative counters. *)

val completed_ops : t -> int

val completed_bytes : t -> int

val busy_time : t -> Time.span

open Simkit

(** NonStop process pairs (Gray, TR-85.7).

    A pair runs a primary serve loop on one CPU, backed by a shadow on
    another, and owns the fault model every component shares: the
    primary serves from its {e live} state; before externalizing a
    change it {!checkpoint}s the delta, which the backup folds into its
    {e shadow} state.  When the primary dies — process crash or CPU
    halt — the monitor promotes the backup after a detection delay: the
    live state is dropped (uncheckpointed memory dies with its CPU), the
    component's port moves to the surviving CPU (failing outstanding
    calls so callers retry there), the component's own takeover hook
    runs, and the serve loop restarts.  A serve loop always starts by
    adopting the shadow into a fresh live state, so the promoted side
    serves exactly what the checkpoints built.

    ['live] is the primary's state, ['shadow] the backup's (the same
    type for most components) and ['ckpt] the checkpoint record.

    The backup is not a process.  {!checkpoint} queues the checkpoint
    with its acknowledgement; the first one queued schedules one
    zero-delay drain that applies every queued checkpoint and
    acknowledges each, in order.  The drain is charged to the process
    that checkpointed.  The backup is alive until promotion, {!halt} or
    its CPU's failure: a checkpoint still queued then is never applied
    or acknowledged. *)

type ('live, 'shadow, 'ckpt) t

type config = {
  takeover_delay : Time.span;
      (** failure detection + promotion; NonStop achieves "a second or
          less" (paper §4) *)
  ack_bytes : int;  (** size of the checkpoint acknowledgement *)
}

val default_config : config
(** 500 ms takeover, 64-byte acks. *)

val create :
  fabric:Servernet.Fabric.t ->
  name:string ->
  primary:Cpu.t ->
  backup:Cpu.t ->
  ?config:config ->
  port:('req, 'resp) Msgsys.server ->
  shadow:'shadow ->
  apply:('shadow -> 'ckpt -> 'shadow) ->
  unit ->
  ('live, 'shadow, 'ckpt) t
(** A pair that has not started: nothing runs until {!start}, so the
    component record can hold the pair before its serve loop exists.
    [port] is moved to the backup CPU at promotion.  [apply] folds each
    checkpoint into the shadow, in the backup's drain. *)

val start :
  ('live, 'shadow, 'ckpt) t ->
  adopt:('shadow -> 'live) ->
  ?on_takeover:(unit -> unit) ->
  ('live -> unit) ->
  unit
(** Spawn the serve loop on the primary and arm the backup (its
    liveness follows its CPU from here on).  Every serve incarnation (boot and takeover) first builds the live
    state from the shadow with [adopt], in process context, and is
    handed it; it is re-spawned on the surviving CPU after a takeover.
    [on_takeover] runs during promotion, after the port move and before
    the serve loop re-spawns: the component's own takeover work
    (dropping waiters, respawning helpers). *)

val view : ('state, 'state, 'ckpt) t -> 'state
(** Read-only view for gauges and maintenance paths: the live state once
    adopted, else the shadow. *)

val live : ('live, 'shadow, 'ckpt) t -> 'live option
(** The live state, [None] until the current serve loop has adopted it. *)

val shadow : ('live, 'shadow, 'ckpt) t -> 'shadow
(** The state the checkpoints have built so far. *)

val checkpoint : ('live, 'shadow, 'ckpt) t -> ?bytes:int -> 'ckpt -> unit
(** Ship a checkpoint to the backup and wait for its acknowledgement
    ([bytes], default 256, drives wire time).  Degrades to a no-op when
    the pair has no backup ({!has_backup}).  If the backup dies with the checkpoint
    unapplied, no acknowledgement comes and the caller goes on after
    [takeover_delay].  Must be called from the primary (process
    context). *)

val primary_cpu : ('live, 'shadow, 'ckpt) t -> Cpu.t

val has_backup : ('live, 'shadow, 'ckpt) t -> bool
(** The backup still applies checkpoints: true from {!start} until
    promotion, {!halt} or its CPU's failure.  A backup CPU restarted
    after a failure comes back empty and is not a backup again, so
    checkpoints stop and a later primary death halts the pair. *)

val is_halted : ('live, 'shadow, 'ckpt) t -> bool
(** True once both sides have died: the service is lost. *)

val takeovers : ('live, 'shadow, 'ckpt) t -> int

val outage_time : ('live, 'shadow, 'ckpt) t -> Time.span
(** Cumulative time between a primary's death and its replacement
    serving — the availability cost of failures. *)

val checkpoints_sent : ('live, 'shadow, 'ckpt) t -> int

val checkpoint_bytes : ('live, 'shadow, 'ckpt) t -> int
(** Process-pair checkpoint traffic this pair generated. *)

val kill_primary : ('live, 'shadow, 'ckpt) t -> unit
(** Fault injection: kill only the primary process (the monitor then
    promotes the backup as for any failure). *)

val halt : ('live, 'shadow, 'ckpt) t -> unit
(** Tear the pair down deliberately (kills the primary, stops the
    backup, no takeover). *)

open Simkit

(** NonStop process pairs (Gray, TR-85.7).

    A pair runs a primary serve loop on one CPU and a checkpoint applier
    on another.  Before externalizing state changes the primary
    {!checkpoint}s them to the backup and waits for the acknowledgement.
    When the primary dies — process crash or CPU halt — the monitor
    promotes the backup after a detection delay: the component's
    [on_takeover] hook runs (typically {!Msgsys.move} of its port), and
    the serve loop restarts on the surviving CPU against the state the
    checkpoints built.

    ['ckpt] is the component's checkpoint record type; the pair is
    oblivious to its contents. *)

type 'ckpt t

type config = {
  takeover_delay : Time.span;
      (** failure detection + promotion; NonStop achieves "a second or
          less" (paper §4) *)
  ack_bytes : int;  (** size of the checkpoint acknowledgement *)
}

val default_config : config
(** 500 ms takeover, 64-byte acks. *)

val start :
  fabric:Servernet.Fabric.t ->
  name:string ->
  primary:Cpu.t ->
  backup:Cpu.t ->
  ?config:config ->
  apply:('ckpt -> unit) ->
  serve:(unit -> unit) ->
  on_takeover:(unit -> unit) ->
  unit ->
  'ckpt t
(** [apply] runs in the backup applier for every checkpoint received.
    [serve] is the primary's body; it is spawned on [primary] now and
    re-spawned on the surviving CPU after a takeover.  [on_takeover] runs
    first during promotion. *)

val checkpoint : 'ckpt t -> ?bytes:int -> 'ckpt -> unit
(** Ship a checkpoint to the backup and wait for its acknowledgement
    ([bytes], default 256, drives wire time).  Degrades to a no-op when
    no backup is alive.  Must be called from the primary (process
    context). *)

val primary_cpu : 'ckpt t -> Cpu.t

val has_backup : 'ckpt t -> bool

val is_halted : 'ckpt t -> bool
(** True once both sides have died: the service is lost. *)

val takeovers : 'ckpt t -> int

val outage_time : 'ckpt t -> Time.span
(** Cumulative time between a primary's death and its replacement
    serving — the availability cost of failures. *)

val checkpoints_sent : 'ckpt t -> int

val checkpoint_bytes : 'ckpt t -> int

val kill_primary : 'ckpt t -> unit
(** Fault injection: kill only the primary process (the monitor then
    promotes the backup as for any failure). *)

val halt : 'ckpt t -> unit
(** Tear the pair down deliberately (kills both sides, no takeover). *)

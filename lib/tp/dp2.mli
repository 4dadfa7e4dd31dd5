open Simkit
open Nsk

(** The database writer (NSK's DP2): a process pair owning the partitions
    that live on one data volume.

    An insert acquires the key lock, applies the change to the in-memory
    table, sends the audit delta to this CPU's ADP, checkpoints the
    update to its backup, issues the data-volume write asynchronously,
    and acknowledges — durability of the change is the audit trail's job,
    which is why the trail's flush latency bounds commit latency.  Locks
    are strict two-phase: held until the transaction monitor reports the
    outcome ({!request.Finish}). *)

type request =
  | Insert of {
      txn : Audit.txn_id;
      file : int;
      key : int;
      len : int;
      crc : int;
      deadline : Time.t;
          (** transaction deadline (absolute, 0 = none): an insert that
              arrives expired is shed before taking its key lock, and
              the lock wait itself is bounded by the deadline *)
    }
  | Lookup of { file : int; key : int }
      (** browse-access read: no lock, sees the latest applied state *)
  | Read of { txn : Audit.txn_id; file : int; key : int }
      (** transactional read under a shared key lock (strong
          serializability, §1.1): blocks while another transaction holds
          the row exclusively *)
  | Scan of { file : int; lo : int; hi : int; limit : int }
      (** B-tree range scan over this writer's slice of [file] *)
  | Finish of { txn : Audit.txn_id; committed : bool }
      (** release locks; undo the transaction's changes if aborted *)
  | Control_point

type response =
  | Inserted of { asn : Audit.asn; adp : int }
  | Found of { len : int; crc : int }
  | Absent
  | Rows of (int * int * int) list  (** (key, len, crc), ascending *)
  | Finished
  | Cp_done of { asn : Audit.asn }
  | D_failed of string

type server = (request, response) Msgsys.server

val lock_timeout : Time.span
(** Longest wait for a key lock (5 s): the lock manager the writers
    share is built with it. *)

type t

type state
(** The writer's keyed files and per-transaction undo lists. *)

type ckpt

val start :
  fabric:Servernet.Fabric.t ->
  name:string ->
  dp2_index : int ->
  adp_index : int ->
  primary:Cpu.t ->
  backup:Cpu.t ->
  volume:Diskio.Volume.t ->
  adp:Adp.server ->
  locks:Lockmgr.t ->
  ?obs:Obs.t ->
  unit ->
  t
(** [adp_index] is reported in insert replies so clients can tell the
    transaction monitor which trails to flush at commit.  With [obs],
    inserts get spans on a track named after the writer (lock
    acquisition as a child span), parented under the caller's span. *)

val server : t -> server

val pair : t -> (state, state, ckpt) Procpair.t
(** The process pair: takeovers, outage time, fault injection.  A
    takeover keeps the checkpoint-built table. *)

val inserts : t -> int

val table_size : t -> int

val index_height : t -> int
(** Height of this writer's tallest keyed-file B-tree (1 = single leaf). *)

val lookup_direct : t -> file:int -> key:int -> (int * int) option
(** Maintenance-path table probe (no timing); tests and recovery
    verification. *)

val load_table : t -> (int * int * int * int) list -> unit
(** Maintenance-path bulk load of [(file, key, len, crc)], used by
    recovery to install a rebuilt image. *)

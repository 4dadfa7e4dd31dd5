open Simkit
open Nsk

(** The Transaction Monitor Facility: a process pair coordinating
    begin/commit/abort (paper §1.2, §4.2).

    Commit is where the storage gap bites: the monitor must (1) get every
    involved trail flushed through the transaction's highest audit
    sequence numbers, then (2) make its own commit record durable in the
    master audit trail, and only then answer the application.  With disk
    trails both steps cost rotational misses; with persistent-memory
    trails both cost RDMA writes.

    Lock release messages to the involved database writers happen after
    the reply, off the response-time-critical path.

    When a persistent-memory region is supplied for the transaction-state
    table ([txn_state]), the monitor records each transaction's state
    there at fine grain (§3.4), which lets recovery learn outcomes
    without heuristically searching the audit trail. *)

type request =
  | Begin_txn of { deadline : Time.t }
      (** [deadline] is an absolute sim time minted by the client at
          arrival ([0] = none).  With [admission] on ({!start}), the
          monitor rejects the begin when the estimated wait — active
          transactions times the commit-service EWMA — exceeds the
          remaining deadline, and the deadline rides every downstream
          hop (DP2 insert, lock wait, trail flush) so doomed work is
          shed instead of queued. *)
  | Commit_txn of {
      txn : Audit.txn_id;
      flushes : (int * Audit.asn) list;  (** (ADP index, highest ASN) *)
      involved : int list;  (** DP2 indices holding the txn's locks *)
    }
  | Abort_txn of { txn : Audit.txn_id; involved : int list }
  | Prepare_txn of {
      txn : Audit.txn_id;
      flushes : (int * Audit.asn) list;
      involved : int list;
      gtid : (int * Audit.txn_id) option;
          (** global transaction identity for distributed branches:
              (coordinator node, coordinator branch txn), the address an
              in-doubt resolver asks after a failure *)
    }
      (** two-phase commit, phase 1: force the trails and log a durable
          PREPARED record; locks stay held until the decision *)
  | Decide_txn of { txn : Audit.txn_id; commit : bool }
      (** phase 2: log the durable outcome and release *)
  | Query_outcome of { txn : Audit.txn_id }
      (** in-doubt resolution: what happened to [txn]?  Answered from the
          PM txn-state table when available, else live monitor state,
          else the disk-mode MAT probe. *)

type response =
  | Began of { txn : Audit.txn_id }
  | Rejected of { reason : string }
      (** admission control refused the begin.  Backpressure, not
          failure: nothing was started, acknowledged, or lost, and the
          client should back off rather than retry immediately. *)
  | Committed
  | Aborted
  | Prepared_ok
  | Decided
  | Outcome of { status : int }
      (** 0 unknown, 1 active, 2 committed, 3 aborted, 4 prepared.
          Presumed abort: resolvers treat anything but 2 as abort. *)
  | T_failed of string

type server = (request, response) Msgsys.server

val state_entry_bytes : int
(** Size of an entry of the PM txn-state table: the txn id (u64) and its
    status (u8, the codes of {!Outcome}), then unused bytes.  Entries
    carry no CRC. *)

val state_entry_txn : Bytes.t -> pos:int -> Audit.txn_id
(** The txn id of the entry at [pos]. *)

val state_entry_status : Bytes.t -> pos:int -> int
(** The status of the entry at [pos]. *)

val admits :
  now:Time.t ->
  deadline:Time.t ->
  queue:int ->
  svc_ewma_ns:float ->
  [ `Admit | `Reject | `Expired ]
(** The pure admission decision: [`Expired] when [now >= deadline],
    [`Reject] when [now + queue * svc_ewma_ns] overshoots the deadline,
    [`Admit] otherwise (and always when [deadline <= 0], meaning the
    client opted out).  Exposed for property tests: it must never admit
    a transaction whose deadline has already passed. *)

type t

type state
(** The monitor's transaction table: next id, active and prepared txns. *)

type ckpt

val start :
  fabric:Servernet.Fabric.t ->
  name:string ->
  primary:Cpu.t ->
  backup:Cpu.t ->
  adps:Adp.server array ->
  dp2s:Dp2.server array ->
  mat:Adp.server ->
  ?txn_state:Pm.Pm_client.t * Pm.Pm_client.handle ->
  ?outcome_probe:(Audit.txn_id -> int) ->
  ?admission:bool ->
  ?obs:Obs.t ->
  unit ->
  t
(** [admission] (default off — closed-loop workloads never need it)
    enables deadline-based admission control at [Begin_txn]; its
    estimate smooths commit service times with a fixed EWMA weight of
    0.2.  With [obs]: commit latency feeds the registry's [tmf.commit_ns]
    stat, the two commit-path stages feed [tmf.flush_wait_ns] (parallel
    trail flushes, measured once per commit) and [tmf.mat_write_ns]
    (commit record to the MAT), and each commit gets a ["tmf"]-track
    span tree parented under the client's span. *)

val server : t -> server

val pair : t -> (state, state, ckpt) Procpair.t
(** The process pair: takeovers, outage time, fault injection.  A
    takeover keeps the checkpointed transaction table and respawns the
    lock-release finisher. *)

val begun : t -> int

val committed : t -> int

val aborted : t -> int

val active_txns : t -> Audit.txn_id list

val prepared_txns : t -> Audit.txn_id list
(** Transactions in the prepared (in-doubt) window. *)

val in_doubt : t -> (Audit.txn_id * int list * (int * Audit.txn_id) option) list
(** The prepared window with resolution context: each entry is
    [(txn, involved DP2 indices, gtid)].  Recovery's resolver walks this
    list, asks the gtid's coordinator for the outcome, and decides. *)

val admitted : t -> int
(** Begins accepted while admission control was on. *)

val rejected : t -> int
(** Begins refused because the estimated wait exceeded the deadline
    (the [tmf.rejected] gauge). *)

val expired : t -> int
(** Work shed because its deadline had already passed: begins arriving
    expired plus commits shed before flushing (the [tmf.expired]
    gauge). *)

val commit_latency : t -> Stat.t
(** Time from commit request dequeue to reply, the monitor-side view of
    the paper's response-time story. *)

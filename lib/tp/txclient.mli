open Simkit
open Nsk

(** Application-side transaction library.

    A session binds a CPU to the transaction monitor and the database
    writers.  Inserts can be issued asynchronously — the paper's drivers
    boxcar several per transaction — and {!commit} gathers the
    outstanding acknowledgements, then asks the monitor to commit with
    the audit-flush horizon the inserts reported. *)

type error =
  | Tx_failed of string
  | Tx_rejected of string
      (** admission backpressure — the monitor refused the begin (its
          estimated wait exceeded the deadline) or a local circuit
          breaker is open.  Nothing was started, acknowledged, or lost:
          the right response is to back off, not retry immediately. *)

val error_to_string : error -> string

val is_rejected : error -> bool

(** Static routing: which DP2 owns a [(file, key)] pair. *)
type routing = {
  files : int;
  partitions_per_file : int;
  dp2_of : file:int -> key:int -> int;  (** index into the DP2 array *)
}

val uniform_routing : files:int -> partitions_per_file:int -> routing
(** Partition by [key mod partitions_per_file]; DP2 index is
    [file * partitions_per_file + partition] — the paper's four files,
    each distributed across four volumes. *)

type t

val create :
  cpu:Cpu.t ->
  tmf:Tmf.server ->
  dp2s:Dp2.server array ->
  routing:routing ->
  ?wan_latency:Time.span ->
  ?link:(unit -> bool) ->
  ?deadline_budget:Time.span ->
  ?op_timeout:Time.span ->
  ?retry_budget:Retry_budget.t ->
  ?breakers:bool ->
  ?obs:Obs.t ->
  unit ->
  t
(** Each insert first pays a fixed 500 µs application-side instruction
    path — SQL processing, buffer marshalling — on the session's CPU.
    [wan_latency] (default
    0) is the one-way inter-node link latency a remote session pays on
    every request and reply — an application tier reaching an ODS node
    across the cluster interconnect (§1.3 scale-out).  [link] (default
    always up) is polled on each leg of a WAN call; when it reports the
    link severed the request or reply is lost and the call fails with a
    timeout — when the reply leg is the one lost, the server has already
    acted, which is how in-doubt transactions arise.  With [obs], each
    transaction gets a root span on track ["client"] that the servers it
    touches parent their spans under, and response times feed the
    registry's [txn.response_ns] stat (plus [txn.insert_wait_ns] and
    [txn.commit_call_ns] for the two client-visible waits).

    Overload containment, all off by default: [deadline_budget] > 0
    stamps each transaction with an absolute deadline ([begin] time +
    budget) that propagates through the monitor to every downstream
    queue; [op_timeout] > 0 bounds the client's patience per
    synchronous call (begin, commit, insert replies) — an impatient
    client abandons slow calls and may retry, which is what turns
    overload into a retry storm, so arming it without the containment
    below is the negative-control configuration; [retry_budget] is a
    token bucket ({!Simkit.Retry_budget})
    each insert resend must clear — share one bucket across sessions to
    bound a whole client tier's retry volume; [breakers] enables a
    per-destination circuit breaker ({!Simkit.Breaker}) in front of the
    monitor and each writer, so a destination that keeps timing out is
    rested and probed instead of hammered. *)

type txn

val txn_id : txn -> Audit.txn_id

val begin_txn : t -> (txn, error) result

val insert_async : t -> txn -> file:int -> key:int -> len:int -> unit -> unit
(** Fire an insert of a content-free [len]-byte row (its CRC is drawn
    from the session's stream) without waiting.  Failures surface at
    the transaction's next {!insert}, {!commit}, {!prepare} or
    {!abort}, which first collect every outstanding insert. *)

val insert : t -> txn -> file:int -> key:int -> len:int -> unit -> (unit, error) result
(** Synchronous insert. *)

val commit : t -> txn -> (unit, error) result
(** Await outstanding inserts, then run the commit protocol.  On success
    the transaction's changes are durable. *)

val abort : t -> txn -> (unit, error) result

val prepare : ?gtid:int * Audit.txn_id -> t -> txn -> (unit, error) result
(** Two-phase commit, phase 1: await outstanding inserts and ask the
    monitor to force the trails and log a durable PREPARED record.  Locks
    stay held until {!decide}.  [gtid] — (coordinator node, coordinator
    branch txn) — rides in the prepared record so an in-doubt resolver
    knows whom to ask after a failure. *)

val decide : t -> txn -> commit:bool -> (unit, error) result
(** Phase 2: durable outcome record, then lock release. *)

val query_outcome : t -> Audit.txn_id -> (int, error) result
(** Ask the monitor what happened to a transaction (in-doubt
    resolution): 0 unknown, 1 active, 2 committed, 3 aborted,
    4 prepared.  Presumed abort — treat anything but 2 as abort. *)

val read : t -> txn -> file:int -> key:int -> ((int * int) option, error) result
(** Transactional read under a shared lock held to commit/abort: blocks
    while another transaction holds the row exclusively, so it never sees
    uncommitted data, and repeated reads within the transaction are
    stable (§1.1 strong serializability). *)

val lookup : t -> file:int -> key:int -> ((int * int) option, error) result
(** [(len, crc)] of a row, reading the owning DP2. *)

val scan : t -> file:int -> lo:int -> hi:int -> ?limit:int -> unit -> ((int * int * int) list, error) result
(** Range scan: [(key, len, crc)] rows with [lo <= key <= hi], merged in
    ascending key order across the file's partitions.  [limit] (default
    unlimited) caps rows per partition. *)

val timeouts : t -> int
(** Synchronous calls abandoned after [op_timeout] — each one left the
    server still working on a request nobody is waiting for. *)

val retry_budget : t -> Retry_budget.t option
(** The session's token bucket, if one was supplied. *)

val breaker_trips : t -> int
(** Closed→Open transitions summed over this session's breakers. *)

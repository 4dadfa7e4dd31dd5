open Simkit

(** The one load runner: a closed-loop client harness and the two
    drivers every hot-stock load runs, single-node and two-phase.

    A driver owns no tally: it hands each acknowledged commit (its keys
    and response time) to [commit] and each failed transaction to
    [fail], then moves on to its next transaction. *)

val clients : System.t array -> name:string -> int -> (int -> unit) -> unit -> unit
(** [clients systems ~name n body] spawns [n] clients, client [i] as
    process [name ^ string_of_int i] running [body i] on system
    [i mod (Array.length systems)], worker CPU [i mod worker_cpus].  It
    returns the join: calling it blocks until every client has
    returned.  Process context only. *)

val hot_stock :
  System.t ->
  records:int ->
  record_bytes:int ->
  per_txn:int ->
  begin_retries:int ->
  commit:((int * int) list -> Time.span -> unit) ->
  fail:(unit -> unit) ->
  int ->
  unit
(** The hot-stock driver (paper §4.3) with index [i]: [records] inserts
    of [record_bytes], boxcarred [per_txn] per transaction, each
    committed before the next begins.  Insert [idx] writes key
    [(i+1)*100_000_000 + idx + idx/per_txn] into file [idx mod files],
    so every transaction touches every file.  A [begin] refused across a
    takeover is retried [begin_retries] times, 250 ms apart; a
    transaction that still cannot begin, or fails to commit, is passed
    to [fail].  [commit] gets the [(file, key)] rows. *)

val two_phase :
  Cluster.t ->
  records:int ->
  record_bytes:int ->
  per_txn:int ->
  commit:((int * int * int) list -> Time.span -> unit) ->
  fail:(unit -> unit) ->
  int ->
  unit
(** The distributed hot-stock driver with index [i]: coordinated from
    node [i mod nodes], each transaction spreads its [per_txn] inserts
    across the nodes (insert [idx] goes to node [(coordinator + idx) mod
    nodes], file [idx mod files], key [(i+1)*100_000_000 + idx]) and
    commits two-phase.  A failed insert aborts the transaction; a failed
    transaction is passed to [fail] and the driver backs off 2 ms, so a
    dead monitor does not turn the loop into a zero-work spin.
    [commit] gets the [(node, file, key)] rows. *)

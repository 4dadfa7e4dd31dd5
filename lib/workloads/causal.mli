open Simkit

(** Causal-tracing runs: the hot-stock mix with spans enabled and every
    committed transaction's cross-node span DAG fed to a
    {!Simkit.Critpath} analyzer — where each transaction's microseconds
    actually went, queue vs service, hop by hop.

    The collector streams into the analyzer and retains nothing; with
    [~chrome:true] it also retains the records, as one more subscriber
    of the same stream, and exports them as a Chrome trace-event
    document (flow arrows included).  The analyzer's report is the same
    with or without the export. *)

type mode_run = {
  cp_mode : Tp.System.log_mode;
  cp_committed : int;
  cp_elapsed : Time.span;
  cp : Critpath.t;
  cp_chrome : string option;  (** Chrome trace JSON when [chrome] was set *)
}

val run_mode :
  ?seed:int64 ->
  ?config:Tp.System.config ->
  ?drivers:int ->
  ?inserts_per_txn:int ->
  ?records_per_driver:int ->
  ?chrome:bool ->
  mode:Tp.System.log_mode ->
  unit ->
  mode_run
(** One single-node hot-stock cell ({!Figures.run_cell}) under tracing.
    Defaults: 2 drivers x 500 records, boxcar 8.  Deterministic for a
    given seed — same seed, same critical-path report. *)

type cluster_run = {
  cl_nodes : int;
  cl_committed : int;
  cl_failed : int;
  cl_elapsed : Time.span;
  cl_cp : Critpath.t;
  cl_chrome : string option;
}

val run_cluster :
  ?seed:int64 ->
  ?nodes:int ->
  ?drivers:int ->
  ?txns_per_driver:int ->
  ?inserts_per_txn:int ->
  ?record_bytes:int ->
  ?chrome:bool ->
  unit ->
  cluster_run
(** The distributed variant: a PM-mode cluster running [drivers] of
    {!Tp.Load.two_phase} (the drill's 2PC driver, [txns_per_driver]
    transactions each) in {!Tp.Load.clients}, so every transaction
    spreads inserts across nodes and commits two-phase, prepare and
    decide hops carry each branch's trace id across the interconnect,
    and the analyzer sees whole cross-node DAGs.  A failed transaction
    is counted in [cl_failed] and followed by a 2 ms back-off. *)

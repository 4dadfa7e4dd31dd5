open Simkit

(** The hot-stock benchmark (paper §4.3, Denzinger).

    Up to 4 driver processes, each representing one hotly traded stock,
    insert [records_per_driver] records of [record_bytes] into [files]
    partitioned files.  A transaction boxcars [inserts_per_txn]
    asynchronous inserts (spread round-robin over the files) and commits
    before the next iteration begins — the regulatory ordering constraint
    that makes the workload response-time-critical.  Transaction size in
    the paper's axes is [inserts_per_txn × record_bytes]: 8→32K, 16→64K,
    32→128K. *)

type params = {
  drivers : int;
  records_per_driver : int;
  record_bytes : int;
  inserts_per_txn : int;
}

val paper_params : drivers:int -> inserts_per_txn:int -> params
(** 32 000 records of 4 KB, as §4.3 specifies. *)

val scaled_params : drivers:int -> inserts_per_txn:int -> records_per_driver:int -> params
(** Same shape, fewer records — for tests and quick runs. *)

type result = {
  elapsed : Time.span;  (** first driver start to last commit (Figure 2's axis) *)
  txns : int;
  committed : int;
  response : Stat.summary;  (** per-transaction response times (Figure 1's input) *)
  throughput_tps : float;
  audit_bytes : int;
  checkpoint_bytes : int;
}

val run : Tp.System.t -> params -> result
(** Drive the benchmark to completion: [drivers] runs of
    {!Tp.Load.hot_stock} in {!Tp.Load.clients}, whose key formula fixes
    the rows a crash-and-recover audit looks for.  A transaction that
    fails (after the drill's [begin] retries) is skipped: it shows as
    [txns - committed].  Keeps no list of acknowledged keys.  Process
    context only. *)

val txn_size_label : params -> string
(** "32k" / "64k" / "128k" as the paper labels its x-axis. *)

open Simkit

(** Telco call-data-record ingest (paper §1: an ODS for a telecommunication
    company sustains tens of thousands of CDR inserts per second while
    feeding billing, marketing and fraud detection).

    Switch front-ends insert small CDRs in tiny response-time-critical
    transactions — the worst case for a disk-based commit path, since
    there is almost nothing to boxcar.  Concurrent reader sessions run
    fraud-style lookups against recently inserted records to show the
    store serving queries while ingesting. *)

type arrival =
  | Closed  (** each switch issues the next transaction after the last commit *)
  | Open_poisson of float
      (** offered load in CDRs/second across all switches; transactions
          arrive whether or not earlier ones finished, so queueing shows
          up in the response-time tail *)

type params = {
  switches : int;  (** concurrent ingest streams *)
  cdrs_per_switch : int;
  cdr_bytes : int;  (** paper-era CDRs are a few hundred bytes *)
  cdrs_per_txn : int;  (** small: 1-4 *)
  fraud_readers : int;  (** concurrent lookup sessions *)
  arrival : arrival;
}

val default_params : params
(** 4 switches x 1000 CDRs of 256 bytes, 2 per transaction, 1 reader. *)

type result = {
  elapsed : Time.span;
  cdrs_inserted : int;
  cdrs_per_sec : float;
  txn_response : Stat.summary;
  lookups : int;
  lookup_hits : int;
  failed_txns : int;
      (** insert transactions that could not begin or failed to commit;
          each is counted and skipped *)
}

val run : Tp.System.t -> params -> result
(** Process context only. *)

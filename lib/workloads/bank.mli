open Simkit

(** TPC-B-style banking transactions — the classic update-heavy ODS mix
    (the paper's §1 "retail, finance" examples).

    Each transaction updates one account, its teller and its branch, and
    appends a history row, then commits.  Unlike the insert-only
    hot-stock workload this one overwrites rows, so every update carries
    a before-image in the audit trail, and the handful of branch rows are
    natural hot spots.  Response-time-critical: each client issues the
    next transaction only after the previous commit. *)

type params = {
  clients : int;
  txns_per_client : int;
  branches : int;
  tellers_per_branch : int;
  accounts : int;
  row_bytes : int;
}

val default_params : params
(** 4 clients × 250 txns, 2 branches, 10 tellers each, 10 000 accounts,
    256-byte rows. *)

type result = {
  elapsed : Time.span;
  committed : int;
  tps : float;
  response : Stat.summary;
  branch_conflicts : int;  (** lock conflicts observed (mostly branches) *)
  history_rows : int;
  failed : int;
      (** transactions that could not begin, ran out of lock-timeout
          retries or failed to commit; each is counted and skipped *)
}

val run : Tp.System.t -> params -> result
(** Loads the account/teller/branch tables first (one bulk transaction
    per client), then runs the measured mix.  Process context only. *)

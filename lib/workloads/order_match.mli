open Simkit

(** Stock-exchange order matching with hot symbols (paper §2).

    Brokerage streams submit buy/sell orders; matching a trade updates
    the {e same} position row for the traded symbol, so concurrent trades
    on one symbol serialize on its lock — and regulatory ordering forces
    each stream to wait for the previous trade's commit.  Per-symbol
    throughput is therefore inversely proportional to transaction
    response time: the Hot Stock problem.  A skewed symbol distribution
    (one headline stock taking a large share of volume) makes the effect
    visible in the per-symbol numbers. *)

type params = {
  streams : int;  (** brokerage feeds *)
  trades_per_stream : int;
  symbols : int;
  hot_symbol_share : float;  (** fraction of volume on symbol 0 *)
  order_bytes : int;
}

val default_params : params
(** 4 streams x 500 trades, 16 symbols, 50% on the headline stock. *)

type result = {
  elapsed : Time.span;
  trades : int;
  hot_trades : int;
  hot_tps : float;  (** trades/s on the headline symbol *)
  cold_tps : float;  (** trades/s on everything else *)
  trade_response : Stat.summary;
  lock_waits : int;  (** lock-manager conflicts observed *)
  failed : int;
      (** trades whose transaction could not begin or failed to commit;
          each is counted and skipped, and neither rate includes it *)
}

val run : Tp.System.t -> params -> result

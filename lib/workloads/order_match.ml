open Simkit

type params = {
  streams : int;
  trades_per_stream : int;
  symbols : int;
  hot_symbol_share : float;
  order_bytes : int;
}

let default_params =
  { streams = 4; trades_per_stream = 500; symbols = 16; hot_symbol_share = 0.5; order_bytes = 512 }

type result = {
  elapsed : Time.span;
  trades : int;
  hot_trades : int;
  hot_tps : float;
  cold_tps : float;
  trade_response : Stat.summary;
  lock_waits : int;
  failed : int;
}

(* Files: 0 holds per-symbol position rows (the contended updates),
   1..files-1 hold order history (insert-only).  A trade whose
   transaction cannot begin across a takeover or fails to commit is
   counted in [failed], and the stream moves on. *)
let stream system params ~rt ~hot_count ~failed index =
  let cfg = Tp.System.config system in
  let session = Tp.System.session system ~cpu:(index mod cfg.Tp.System.worker_cpus) in
  let files = cfg.Tp.System.files in
  let sim = Tp.System.sim system in
  let rng = Rng.create (Int64.of_int (0x07DE + index)) in
  let order_base = (index + 1) * 50_000_000 in
  for trade = 0 to params.trades_per_stream - 1 do
    let symbol =
      if Rng.bool rng params.hot_symbol_share then 0 else 1 + Rng.int rng (params.symbols - 1)
    in
    let t0 = Sim.now sim in
    (match Tp.Load.begin_txn session ~retries:Tp.Drill.default_params.begin_retries with
    | None -> incr failed
    | Some txn -> (
        (* The order record (no contention)... *)
        Tp.Txclient.insert_async session txn
          ~file:(1 + (trade mod (files - 1)))
          ~key:(order_base + trade) ~len:params.order_bytes ();
        (* ... and the position update on the symbol row (contended). *)
        Tp.Txclient.insert_async session txn ~file:0 ~key:symbol ~len:params.order_bytes ();
        match Tp.Txclient.commit session txn with
        | Ok () ->
            if symbol = 0 then incr hot_count;
            Stat.add_span rt (Sim.now sim - t0)
        | Error _ -> incr failed))
  done

let run system params =
  if params.symbols < 2 then invalid_arg "Order_match.run: need at least two symbols";
  let sim = Tp.System.sim system in
  let rt = Stat.create ~name:"trade-rt" () in
  let hot_count = ref 0 in
  let failed = ref 0 in
  let started = Sim.now sim in
  Tp.Load.clients [| system |] ~name:"stream" params.streams
    (stream system params ~rt ~hot_count ~failed)
    ();
  let elapsed = Sim.now sim - started in
  let trades = params.streams * params.trades_per_stream in
  let seconds = Time.to_sec elapsed in
  {
    elapsed;
    trades;
    hot_trades = !hot_count;
    hot_tps = (if seconds > 0.0 then float_of_int !hot_count /. seconds else 0.0);
    cold_tps =
      (if seconds > 0.0 then float_of_int (trades - !hot_count - !failed) /. seconds else 0.0);
    trade_response = Stat.summary rt;
    lock_waits = Tp.Lockmgr.conflicts (Tp.System.locks system);
    failed = !failed;
  }

open Simkit

type params = {
  drivers : int;
  records_per_driver : int;
  record_bytes : int;
  inserts_per_txn : int;
}

let paper_params ~drivers ~inserts_per_txn =
  { drivers; records_per_driver = 32_000; record_bytes = 4096; inserts_per_txn }

let scaled_params ~drivers ~inserts_per_txn ~records_per_driver =
  { drivers; records_per_driver; record_bytes = 4096; inserts_per_txn }

type result = {
  elapsed : Time.span;
  txns : int;
  committed : int;
  response : Stat.summary;
  throughput_tps : float;
  audit_bytes : int;
  checkpoint_bytes : int;
}

let txn_size_label p =
  let bytes = p.inserts_per_txn * p.record_bytes in
  Printf.sprintf "%dk" (bytes / 1024)

(* Each driver is a hotly traded stock: the one hot-stock driver, run
   through the one closed-loop harness.  A failed transaction is counted
   by its absence: [txns - committed]. *)
let run system params =
  if params.drivers < 1 then invalid_arg "Hot_stock.run: need at least one driver";
  if params.inserts_per_txn < 1 then
    invalid_arg "Hot_stock.run: need at least one insert per transaction";
  let sim = Tp.System.sim system in
  let response_stat = Stat.create ~name:"hot-stock-rt" () in
  let committed = ref 0 in
  let started = Sim.now sim in
  Tp.Load.clients [| system |] ~name:"driver" params.drivers
    (Tp.Load.hot_stock system ~records:params.records_per_driver
       ~record_bytes:params.record_bytes ~per_txn:params.inserts_per_txn
       ~begin_retries:Tp.Drill.default_params.begin_retries
       ~commit:(fun _ response ->
         incr committed;
         Stat.add_span response_stat response)
       ~fail:ignore)
    ();
  let elapsed = Sim.now sim - started in
  let txns =
    params.drivers
    * ((params.records_per_driver + params.inserts_per_txn - 1) / params.inserts_per_txn)
  in
  {
    elapsed;
    txns;
    committed = !committed;
    response = Stat.summary response_stat;
    throughput_tps =
      (if elapsed = 0 then 0.0 else float_of_int !committed /. Time.to_sec elapsed);
    audit_bytes = Tp.System.total_audit_bytes system;
    checkpoint_bytes = Tp.System.checkpoint_message_bytes system;
  }

open Simkit
open Nsk

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

(* One driver: a hotly traded stock.  Keys are unique per driver; inserts
   rotate over the files so each transaction touches every file, as the
   benchmark description requires. *)
let driver system params ~index ~response_stat ~committed ~on_done () =
  let cfg = Tp.System.config system in
  let session = Tp.System.session system ~cpu:(index mod cfg.Tp.System.worker_cpus) in
  let files = cfg.Tp.System.files in
  let key_base = (index + 1) * 100_000_000 in
  let total = params.records_per_driver in
  let per_txn = params.inserts_per_txn in
  let sim = Tp.System.sim system in
  let seq = ref 0 in
  (let rec txn_loop () =
     if !seq < total then begin
       let t0 = Sim.now sim in
       match Tp.Txclient.begin_txn session with
       | Error e ->
           failwith ("hot_stock: begin failed: " ^ Tp.Txclient.error_to_string e)
       | Ok txn ->
           let in_this_txn = min per_txn (total - !seq) in
           for i = 0 to in_this_txn - 1 do
             (* The per-transaction shift decorrelates file and partition
                so inserts really spread over files x volumes, as the
                benchmark description requires. *)
             let idx = !seq + i in
             let key = key_base + idx + (idx / per_txn) in
             let file = idx mod files in
             Tp.Txclient.insert_async session txn ~file ~key ~len:params.record_bytes ()
           done;
           seq := !seq + in_this_txn;
           (match Tp.Txclient.commit session txn with
           | Ok () ->
               incr committed;
               Stat.add_span response_stat (Sim.now sim - t0)
           | Error e ->
               failwith ("hot_stock: commit failed: " ^ Tp.Txclient.error_to_string e));
           txn_loop ()
     end
   in
   txn_loop ());
  on_done ()

let run system params =
  if params.drivers < 1 then invalid_arg "Hot_stock.run: need at least one driver";
  if params.inserts_per_txn < 1 then
    invalid_arg "Hot_stock.run: need at least one insert per transaction";
  let sim = Tp.System.sim system in
  let node = Tp.System.node system in
  let response_stat = Stat.create ~name:"hot-stock-rt" () in
  let committed = ref 0 in
  let gate = Gate.create params.drivers in
  let started = Sim.now sim in
  for index = 0 to params.drivers - 1 do
    let cfg = Tp.System.config system in
    let cpu = Node.cpu node (index mod cfg.Tp.System.worker_cpus) in
    ignore
      (Cpu.spawn cpu
         ~name:(Printf.sprintf "driver%d" index)
         (driver system params ~index ~response_stat ~committed ~on_done:(fun () ->
              Gate.arrive gate)))
  done;
  Gate.await gate;
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

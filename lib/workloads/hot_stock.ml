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

type open_result = {
  o_arrivals : int;
  o_committed : int;
  o_rejected : int;  (** begins refused by admission control / breakers *)
  o_failed : int;  (** began but did not commit *)
  o_elapsed : Time.span;
  o_response : Stat.summary;
  o_goodput_tps : float;
}

(* Open-loop variant: transactions arrive on the schedule, not after the
   previous ack — offered load is independent of service capacity, so
   in-flight work is unbounded unless the system's admission control
   bounds it.  Each arrival runs as its own worker over a small session
   pool; keys are unique per arrival. *)
let run_open ?sessions system schedule ~record_bytes ~inserts_per_txn =
  let cfg = Tp.System.config system in
  let sim = Tp.System.sim system in
  let node = Tp.System.node system in
  let workers = cfg.Tp.System.worker_cpus in
  let n_sessions = match sessions with Some n -> max 1 n | None -> workers in
  let pool =
    Array.init n_sessions (fun i -> Tp.System.session system ~cpu:(i mod workers))
  in
  let files = cfg.Tp.System.files in
  let rng = Rng.split (Sim.rng sim) in
  let response_stat = Stat.create ~name:"hot-stock-open-rt" () in
  let committed = ref 0 and rejected = ref 0 and failed = ref 0 in
  let outstanding = ref 0 in
  let started = Sim.now sim in
  let worker index () =
    let session = pool.(index mod n_sessions) in
    let t0 = Sim.now sim in
    (match Tp.Txclient.begin_txn session with
    | Error e -> if Tp.Txclient.is_rejected e then incr rejected else incr failed
    | Ok txn -> (
        let key_base = 900_000_000 + (index * (inserts_per_txn + 1)) in
        for i = 0 to inserts_per_txn - 1 do
          Tp.Txclient.insert_async session txn ~file:(i mod files)
            ~key:(key_base + i) ~len:record_bytes ()
        done;
        match Tp.Txclient.commit session txn with
        | Ok () ->
            incr committed;
            Stat.add_span response_stat (Sim.now sim - t0)
        | Error _ -> incr failed));
    decr outstanding
  in
  let arrivals =
    Arrival.run ~rng schedule ~f:(fun index ->
        incr outstanding;
        ignore
          (Cpu.spawn
             (Node.cpu node (index mod workers))
             ~name:(Printf.sprintf "open%d" index)
             (worker index)))
  in
  (* Drain: arrivals have all been dispatched; wait for the stragglers
     (which under collapse can be long — that is the point). *)
  while !outstanding > 0 do
    Sim.sleep (Time.ms 10)
  done;
  {
    o_arrivals = arrivals;
    o_committed = !committed;
    o_rejected = !rejected;
    o_failed = !failed;
    o_elapsed = Sim.now sim - started;
    o_response = Stat.summary response_stat;
    o_goodput_tps =
      (let dt = Sim.now sim - started in
       if dt = 0 then 0.0 else float_of_int !committed /. Time.to_sec dt);
  }

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

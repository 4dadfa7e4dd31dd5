open Simkit
open Nsk

let clients systems ~name n body =
  let gate = Gate.create n in
  for index = 0 to n - 1 do
    let system = systems.(index mod Array.length systems) in
    let cpu = index mod (System.config system).System.worker_cpus in
    ignore
      (Cpu.spawn
         (Node.cpu (System.node system) cpu)
         ~name:(name ^ string_of_int index)
         (fun () ->
           body index;
           Gate.arrive gate))
  done;
  fun () -> Gate.await gate

let hot_stock system ~records ~record_bytes ~per_txn ~begin_retries ~commit ~fail index =
  let cfg = System.config system in
  let session = System.session system ~cpu:(index mod cfg.System.worker_cpus) in
  let files = cfg.System.files in
  let key_base = (index + 1) * 100_000_000 in
  let sim = System.sim system in
  let rec begin_txn attempts =
    match Txclient.begin_txn session with
    | Ok txn -> Some txn
    | Error _ when attempts > 0 ->
        Sim.sleep (Time.ms 250);
        begin_txn (attempts - 1)
    | Error _ -> None
  in
  let seq = ref 0 in
  while !seq < records do
    let t0 = Sim.now sim in
    (* The per-transaction shift decorrelates file and partition so
       inserts really spread over files x volumes. *)
    let keys =
      List.init (min per_txn (records - !seq)) (fun i ->
          let idx = !seq + i in
          (idx mod files, key_base + idx + (idx / per_txn)))
    in
    seq := !seq + per_txn;
    match begin_txn begin_retries with
    | None -> fail ()
    | Some txn -> (
        List.iter
          (fun (file, key) -> Txclient.insert_async session txn ~file ~key ~len:record_bytes ())
          keys;
        match Txclient.commit session txn with
        | Ok () -> commit keys (Sim.now sim - t0)
        | Error _ -> fail ())
  done

let two_phase cluster ~records ~record_bytes ~per_txn ~commit ~fail index =
  let nodes = Cluster.node_count cluster in
  let coordinator = index mod nodes in
  let home = Cluster.system cluster coordinator in
  let cfg = System.config home in
  let sim = System.sim home in
  let files = cfg.System.files in
  let key_base = (index + 1) * 100_000_000 in
  let seq = ref 0 in
  while !seq < records do
    let t0 = Sim.now sim in
    let keys =
      List.init (min per_txn (records - !seq)) (fun i ->
          let idx = !seq + i in
          ((coordinator + idx) mod nodes, idx mod files, key_base + idx))
    in
    seq := !seq + per_txn;
    let dtx = Dtx.begin_dtx cluster ~coordinator ~cpu:(index mod cfg.System.worker_cpus) in
    let inserted =
      List.fold_left
        (fun acc (node, file, key) ->
          match acc with
          | Error _ as e -> e
          | Ok () -> Dtx.insert dtx ~node ~file ~key ~len:record_bytes)
        (Ok ()) keys
    in
    match inserted with
    | Error _ ->
        fail ();
        ignore (Dtx.abort dtx);
        Sim.sleep (Time.ms 2)
    | Ok () -> (
        match Dtx.commit dtx with
        | Ok () -> commit keys (Sim.now sim - t0)
        | Error _ ->
            fail ();
            Sim.sleep (Time.ms 2))
  done

open Simkit

(* Causal-tracing runs: the hot-stock mix (or its distributed 2PC
   variant) with spans enabled and every transaction's cross-node DAG
   streamed into a {!Simkit.Critpath} analyzer.  A Chrome trace export
   keeps the records as one more subscriber of the same stream, so the
   analyzer sees the same spans in the same order either way. *)

type mode_run = {
  cp_mode : Tp.System.log_mode;
  cp_committed : int;
  cp_elapsed : Time.span;
  cp : Critpath.t;
  cp_chrome : string option;
}

(* An enabled context streaming into a fresh analyzer and, for a Chrome
   export, into the collector's own buffer as well. *)
let traced ~chrome =
  let obs = Obs.create () in
  let spans = Obs.spans obs in
  Span.enable spans;
  let cp = Critpath.create () in
  Critpath.attach cp spans;
  if chrome then Span.retain spans;
  (obs, cp)

let chrome_json ~chrome obs =
  if chrome then Some (Span.to_chrome_json (Obs.spans obs)) else None

let run_mode ?(seed = 0xCA75AL) ?config ?(drivers = 2) ?(inserts_per_txn = 8)
    ?(records_per_driver = 500) ?(chrome = false) ~mode () =
  let obs, cp = traced ~chrome in
  let cell =
    Figures.run_cell ~seed ?config ~obs ~mode ~drivers ~inserts_per_txn
      ~records_per_driver ()
  in
  {
    cp_mode = mode;
    cp_committed = cell.Figures.result.Hot_stock.committed;
    cp_elapsed = cell.Figures.result.Hot_stock.elapsed;
    cp = cp;
    cp_chrome = chrome_json ~chrome obs;
  }

type cluster_run = {
  cl_nodes : int;
  cl_committed : int;
  cl_failed : int;
  cl_elapsed : Time.span;
  cl_cp : Critpath.t;
  cl_chrome : string option;
}

(* The distributed variant: every transaction spreads its inserts across
   the nodes and commits two-phase, so each branch's DAG crosses the
   interconnect — prepare and decide hops carry the branch's trace id to
   the remote monitor. *)
let run_cluster ?(seed = 0xC10CL) ?(nodes = 2) ?(drivers = 2) ?(txns_per_driver = 60)
    ?(inserts_per_txn = 4) ?(record_bytes = 1024) ?(chrome = false) () =
  if nodes < 2 then invalid_arg "Causal.run_cluster: need at least two nodes";
  let obs, cp = traced ~chrome in
  let cfg =
    {
      Tp.System.pm_config with
      Tp.System.log_mode = Tp.System.Pm_audit;
      txn_state_in_pm = true;
      seed;
    }
  in
  let committed = ref 0 in
  let failed = ref 0 in
  let elapsed =
    Figures.simulate ~seed (fun sim ->
        let cluster = Tp.Cluster.build sim ~nodes ~wan_latency:(Time.us 100) ~obs cfg in
        let gate = Gate.create drivers in
        let started = Sim.now sim in
        for index = 0 to drivers - 1 do
          let coordinator = index mod nodes in
          let home = Tp.Cluster.system cluster coordinator in
          let cfg = Tp.System.config home in
          let cpu =
            Nsk.Node.cpu (Tp.System.node home) (index mod cfg.Tp.System.worker_cpus)
          in
          ignore
            (Nsk.Cpu.spawn cpu
               ~name:(Printf.sprintf "causal-driver%d" index)
               (fun () ->
                 let files = cfg.Tp.System.files in
                 let key_base = (index + 1) * 100_000_000 in
                 for txn = 0 to txns_per_driver - 1 do
                   let keys =
                     List.init inserts_per_txn (fun i ->
                         let idx = (txn * inserts_per_txn) + i in
                         ((coordinator + idx) mod nodes, idx mod files, key_base + idx))
                   in
                   let dtx =
                     Tp.Dtx.begin_dtx cluster ~coordinator
                       ~cpu:(index mod cfg.Tp.System.worker_cpus)
                   in
                   let inserted =
                     List.fold_left
                       (fun acc (node, file, key) ->
                         match acc with
                         | Error _ as e -> e
                         | Ok () ->
                             Tp.Dtx.insert dtx ~node ~file ~key ~len:record_bytes)
                       (Ok ()) keys
                   in
                   match inserted with
                   | Error _ ->
                       incr failed;
                       ignore (Tp.Dtx.abort dtx)
                   | Ok () -> (
                       match Tp.Dtx.commit dtx with
                       | Ok () -> incr committed
                       | Error _ -> incr failed)
                 done;
                 Gate.arrive gate))
        done;
        Gate.await gate;
        Sim.now sim - started)
  in
  {
    cl_nodes = nodes;
    cl_committed = !committed;
    cl_failed = !failed;
    cl_elapsed = elapsed;
    cl_cp = cp;
    cl_chrome = chrome_json ~chrome obs;
  }

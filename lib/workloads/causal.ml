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
  let cfg = { Tp.System.pm_config with Tp.System.seed } in
  let committed = ref 0 in
  let failed = ref 0 in
  let elapsed =
    Figures.simulate ~seed (fun sim ->
        let cluster = Tp.Cluster.build sim ~nodes ~wan_latency:(Time.us 100) ~obs cfg in
        let started = Sim.now sim in
        Tp.Load.clients (Array.init nodes (Tp.Cluster.system cluster)) ~name:"causal-driver"
          drivers
          (Tp.Load.two_phase cluster ~records:(txns_per_driver * inserts_per_txn) ~record_bytes
             ~per_txn:inserts_per_txn
             ~commit:(fun _ _ -> incr committed)
             ~fail:(fun () -> incr failed))
          ();
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

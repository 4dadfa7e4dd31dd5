open Simkit

type cell = {
  mode : Tp.System.log_mode;
  drivers : int;
  inserts_per_txn : int;
  system : Tp.System.t;
  result : Hot_stock.result;
}

let config_for base mode =
  match mode with
  | Tp.System.Disk_audit -> { base with Tp.System.log_mode = Tp.System.Disk_audit }
  | Tp.System.Pm_audit ->
      { base with Tp.System.log_mode = Tp.System.Pm_audit; txn_state_in_pm = true }

let simulate ?prof ~seed f =
  let sim = Sim.create ~seed () in
  Option.iter (fun p -> Prof.install p sim) prof;
  let out = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Prof.uninstall prof;
      Sim.discard sim)
    (fun () ->
      let (_ : Sim.pid) = Sim.spawn sim ~name:"main" (fun () -> out := Some (f sim)) in
      Sim.run sim);
  match !out with
  | Some v -> v
  | None -> failwith "Figures.simulate: the simulation ended before its main process returned"

let run_cell_sampled ?(seed = 0xF19L) ?config ?obs ?prof ?sample_interval ~mode ~drivers
    ~inserts_per_txn ~records_per_driver () =
  (match (sample_interval, obs) with
  | Some _, None ->
      invalid_arg "Figures.run_cell_sampled: sample_interval requires obs"
  | _ -> ());
  let base = Option.value config ~default:Tp.System.default_config in
  let cfg = config_for base mode in
  simulate ?prof ~seed (fun sim ->
      let system = Tp.System.build ?obs sim cfg in
      let ts =
        match (sample_interval, obs) with
        | Some interval, Some o ->
            let t = Timeseries.create ~sim ~metrics:(Obs.metrics o) ~interval () in
            Timeseries.start t;
            Some t
        | _ -> None
      in
      let params =
        { Hot_stock.drivers; records_per_driver; record_bytes = 4096; inserts_per_txn }
      in
      let result = Hot_stock.run system params in
      Option.iter Timeseries.stop ts;
      ({ mode; drivers; inserts_per_txn; system; result }, ts))

let run_cell ?seed ?config ?obs ?prof ~mode ~drivers ~inserts_per_txn
    ~records_per_driver () =
  fst
    (run_cell_sampled ?seed ?config ?obs ?prof ~mode ~drivers ~inserts_per_txn
       ~records_per_driver ())

let boxcars = [ 8; 16; 32 ]

let label_of boxcar = Printf.sprintf "%dk" (boxcar * 4096 / 1024)

(* --- Figure 1 --- *)

type fig1_point = {
  f1_drivers : int;
  f1_boxcar : int;
  txn_size : string;
  rt_disk_us : float;
  rt_pm_us : float;
  speedup : float;
  paper_speedup : float option;
}

(* The paper's Figure 1 as read off its plot, by (drivers, boxcar). *)
let paper_figure1 =
  [
    ((1, 8), 3.3); ((1, 16), 2.4); ((1, 32), 1.6);
    ((2, 8), 3.4); ((2, 16), 2.5); ((2, 32), 1.7);
    ((3, 8), 2.6); ((3, 16), 2.0); ((3, 32), 1.5);
    ((4, 8), 2.2); ((4, 16), 1.8); ((4, 32), 1.4);
  ]

let figure1 ?(records_per_driver = 32_000) ?(drivers_list = [ 1; 2; 3; 4 ]) () =
  let point drivers boxcar =
    let disk =
      run_cell ~mode:Tp.System.Disk_audit ~drivers ~inserts_per_txn:boxcar ~records_per_driver ()
    in
    let pm =
      run_cell ~mode:Tp.System.Pm_audit ~drivers ~inserts_per_txn:boxcar ~records_per_driver ()
    in
    let rt_disk_us = disk.result.Hot_stock.response.Stat.mean /. 1e3 in
    let rt_pm_us = pm.result.Hot_stock.response.Stat.mean /. 1e3 in
    {
      f1_drivers = drivers;
      f1_boxcar = boxcar;
      txn_size = label_of boxcar;
      rt_disk_us;
      rt_pm_us;
      speedup = (if rt_pm_us > 0.0 then rt_disk_us /. rt_pm_us else 0.0);
      paper_speedup = List.assoc_opt (drivers, boxcar) paper_figure1;
    }
  in
  List.concat_map (fun drivers -> List.map (point drivers) boxcars) drivers_list

(* --- Figure 2 --- *)

type fig2_point = {
  f2_drivers : int;
  f2_boxcar : int;
  f2_txn_size : string;
  elapsed_disk_s : float;
  elapsed_pm_s : float;
}

let figure2 ?(records_per_driver = 32_000) ?(drivers_list = [ 1; 2 ]) () =
  let point drivers boxcar =
    let disk =
      run_cell ~mode:Tp.System.Disk_audit ~drivers ~inserts_per_txn:boxcar ~records_per_driver ()
    in
    let pm =
      run_cell ~mode:Tp.System.Pm_audit ~drivers ~inserts_per_txn:boxcar ~records_per_driver ()
    in
    {
      f2_drivers = drivers;
      f2_boxcar = boxcar;
      f2_txn_size = label_of boxcar;
      elapsed_disk_s = Time.to_sec disk.result.Hot_stock.elapsed;
      elapsed_pm_s = Time.to_sec pm.result.Hot_stock.elapsed;
    }
  in
  List.concat_map (fun drivers -> List.map (point drivers) boxcars) drivers_list

(* --- E3: latency sweep --- *)

type latency_point = { penalty : Time.span; rt_us : float; speedup_vs_disk : float }

let latency_sweep ?(records_per_driver = 4_000) ?penalties () =
  let penalties =
    Option.value penalties
      ~default:[ 0; Time.us 50; Time.us 200; Time.ms 1; Time.ms 3; Time.ms 8 ]
  in
  let disk =
    run_cell ~mode:Tp.System.Disk_audit ~drivers:1 ~inserts_per_txn:8 ~records_per_driver ()
  in
  let rt_disk = disk.result.Hot_stock.response.Stat.mean /. 1e3 in
  let point penalty =
    let config = { Tp.System.pm_config with Tp.System.pm_write_penalty = penalty } in
    let pm =
      run_cell ~config ~mode:Tp.System.Pm_audit ~drivers:1 ~inserts_per_txn:8
        ~records_per_driver ()
    in
    let rt_us = pm.result.Hot_stock.response.Stat.mean /. 1e3 in
    { penalty; rt_us; speedup_vs_disk = (if rt_us > 0.0 then rt_disk /. rt_us else 0.0) }
  in
  List.map point penalties

(* --- E4: mirroring ablation --- *)

type mirror_point = { mirrored : bool; rt_us : float; elapsed_s : float }

let mirror_ablation ?(records_per_driver = 4_000) () =
  let point mirrored =
    let config = { Tp.System.pm_config with Tp.System.pm_mirrored = mirrored } in
    let c =
      run_cell ~config ~mode:Tp.System.Pm_audit ~drivers:2 ~inserts_per_txn:8
        ~records_per_driver ()
    in
    {
      mirrored;
      rt_us = c.result.Hot_stock.response.Stat.mean /. 1e3;
      elapsed_s = Time.to_sec c.result.Hot_stock.elapsed;
    }
  in
  [ point true; point false ]

(* --- E5: MTTR --- *)

type mttr_point = { m_mode : Tp.System.log_mode; report : Tp.Recovery.report; trail_bytes : int }

let mttr ?(records_per_driver = 2_000) () =
  let one mode =
    let cfg = config_for Tp.System.default_config mode in
    simulate ~seed:0x3117L (fun sim ->
        let system = Tp.System.build sim cfg in
        let params =
          { Hot_stock.drivers = 2; records_per_driver; record_bytes = 4096; inserts_per_txn = 8 }
        in
        let (_ : Hot_stock.result) = Hot_stock.run system params in
        (* Crash: lose the in-memory images, then recover from trails. *)
        Array.iter (fun d -> Tp.Dp2.load_table d []) (Tp.System.dp2s system);
        match Tp.Recovery.run system with
        | Ok report -> { m_mode = mode; report; trail_bytes = Tp.System.total_audit_bytes system }
        | Error e -> failwith ("recovery failed: " ^ e))
  in
  [ one Tp.System.Disk_audit; one Tp.System.Pm_audit ]

(* --- E6: ADPs per node --- *)

type adp_scaling_point = { adps : int; a_mode : Tp.System.log_mode; tps : float }

let adp_scaling ?(records_per_driver = 4_000) ?(counts = [ 1; 2; 4 ]) () =
  let one mode adps =
    let config = { (config_for Tp.System.default_config mode) with Tp.System.adps_per_node = adps } in
    let c =
      run_cell ~config ~mode ~drivers:4 ~inserts_per_txn:8 ~records_per_driver ()
    in
    { adps; a_mode = mode; tps = c.result.Hot_stock.throughput_tps }
  in
  List.concat_map
    (fun adps -> [ one Tp.System.Disk_audit adps; one Tp.System.Pm_audit adps ])
    counts

(* --- E9: checkpoint traffic --- *)

type ckpt_traffic_point = {
  c_mode : Tp.System.log_mode;
  committed_txns : int;
  audit_bytes : int;
  checkpoint_bytes : int;
  ckpt_bytes_per_txn : float;
}

let checkpoint_traffic ?(records_per_driver = 2_000) () =
  let one mode =
    let c = run_cell ~mode ~drivers:2 ~inserts_per_txn:8 ~records_per_driver () in
    let committed = c.result.Hot_stock.committed in
    {
      c_mode = mode;
      committed_txns = committed;
      audit_bytes = c.result.Hot_stock.audit_bytes;
      checkpoint_bytes = c.result.Hot_stock.checkpoint_bytes;
      ckpt_bytes_per_txn =
        (if committed = 0 then 0.0
         else float_of_int c.result.Hot_stock.checkpoint_bytes /. float_of_int committed);
    }
  in
  [ one Tp.System.Disk_audit; one Tp.System.Pm_audit ]

(* --- E8: shared-nothing scale-out --- *)

type scaleout_point = {
  s_nodes : int;
  s_mode : Tp.System.log_mode;
  aggregate_tps : float;
  per_node_tps : float;
}

let scaleout ?(records_per_driver = 2_000) ?(nodes_list = [ 1; 2; 4 ]) () =
  let one mode nodes =
    let cfg = config_for Tp.System.default_config mode in
    let params =
      { Hot_stock.drivers = 2; records_per_driver; record_bytes = 4096; inserts_per_txn = 8 }
    in
    let committed = ref 0 in
    let finished =
      simulate ~seed:0x5CA1EL (fun sim ->
          let gate = Gate.create nodes in
          for _ = 1 to nodes do
            let (_ : Sim.pid) =
              Sim.spawn sim ~name:"node" (fun () ->
                  let r = Hot_stock.run (Tp.System.build sim cfg) params in
                  committed := !committed + r.Hot_stock.committed;
                  Gate.arrive gate)
            in
            ()
          done;
          Gate.await gate;
          Sim.now sim)
    in
    let seconds = Time.to_sec finished in
    let aggregate = if seconds > 0.0 then float_of_int !committed /. seconds else 0.0 in
    { s_nodes = nodes; s_mode = mode; aggregate_tps = aggregate; per_node_tps = aggregate /. float_of_int nodes }
  in
  List.concat_map
    (fun nodes -> [ one Tp.System.Disk_audit nodes; one Tp.System.Pm_audit nodes ])
    nodes_list

(* --- E10: distributed transactions --- *)

type dtx_point = {
  d_mode : Tp.System.log_mode;
  local_rt_ms : float;
  dtx_rt_ms : float;
  protocol_overhead_ms : float;
}

let dtx_latency ?(transfers = 20) () =
  let one mode =
    let cfg = config_for Tp.System.default_config mode in
    simulate ~seed:0xD70L (fun sim ->
        let cluster = Tp.Cluster.build sim ~nodes:2 ~wan_latency:(Time.us 100) cfg in
        let run_local key =
          let session = Tp.Cluster.local_session cluster ~node:0 ~cpu:2 in
          let t0 = Sim.now sim in
          (match Tp.Txclient.begin_txn session with
          | Error e -> failwith (Tp.Txclient.error_to_string e)
          | Ok txn -> (
              (match Tp.Txclient.insert session txn ~file:0 ~key ~len:64 () with
              | Ok () -> ()
              | Error e -> failwith (Tp.Txclient.error_to_string e));
              match Tp.Txclient.commit session txn with
              | Ok () -> ()
              | Error e -> failwith (Tp.Txclient.error_to_string e)));
          Sim.now sim - t0
        in
        let run_dtx key =
          let dtx = Tp.Dtx.begin_dtx cluster ~coordinator:0 ~cpu:3 in
          let t0 = Sim.now sim in
          (match Tp.Dtx.insert dtx ~node:0 ~file:1 ~key ~len:64 with
          | Ok () -> ()
          | Error e -> failwith (Tp.Txclient.error_to_string e));
          (match Tp.Dtx.insert dtx ~node:1 ~file:1 ~key ~len:64 with
          | Ok () -> ()
          | Error e -> failwith (Tp.Txclient.error_to_string e));
          (match Tp.Dtx.commit dtx with
          | Ok () -> ()
          | Error e -> failwith (Tp.Txclient.error_to_string e));
          Sim.now sim - t0
        in
        let avg f base =
          let total = ref 0 in
          for i = 1 to transfers do
            total := !total + f (base + i)
          done;
          float_of_int (!total / transfers) /. 1e6
        in
        let local = avg run_local 1_000 in
        let dtx = avg run_dtx 2_000 in
        { d_mode = mode; local_rt_ms = local; dtx_rt_ms = dtx;
          protocol_overhead_ms = dtx -. local })
  in
  [ one Tp.System.Disk_audit; one Tp.System.Pm_audit ]

(* --- E7: failover under load --- *)

type failover_report = {
  committed_before : int;
  committed_total : int;
  adp_takeovers : int;
  outage : Time.span;
  lost_transactions : int;
}

let failover_under_load ?(records_per_driver = 400) () =
  let committed_before = ref 0 in
  simulate ~seed:0xFA11L (fun sim ->
      let system = Tp.System.build sim Tp.System.default_config in
      let params =
        { Hot_stock.drivers = 2; records_per_driver; record_bytes = 4096; inserts_per_txn = 8 }
      in
      (* Kill ADP 1's primary mid-run. *)
      Sim.at sim ~after:(Time.ms 500) (fun () ->
          committed_before := Tp.Tmf.committed (Tp.System.tmf system);
          Nsk.Procpair.kill_primary (Tp.Adp.pair (Tp.System.adps system).(1)));
      let result = Hot_stock.run system params in
      (* Every committed transaction must be recoverable from the
         (takeover-surviving) trails. *)
      Array.iter (fun d -> Tp.Dp2.load_table d []) (Tp.System.dp2s system);
      let rows_rebuilt =
        match Tp.Recovery.run system with
        | Ok report -> report.Tp.Recovery.rows_rebuilt
        | Error e -> failwith ("post-failover recovery failed: " ^ e)
      in
      let expected_rows = 2 * records_per_driver in
      {
        committed_before = !committed_before;
        committed_total = result.Hot_stock.committed;
        adp_takeovers = Nsk.Procpair.takeovers (Tp.Adp.pair (Tp.System.adps system).(1));
        outage = Nsk.Procpair.default_config.Nsk.Procpair.takeover_delay;
        lost_transactions = max 0 (expected_rows - rows_rebuilt);
      })

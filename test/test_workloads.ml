(* Tests for the workload generators and the experiment harness. *)

open Simkit
open Workloads

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_pm = { Tp.System.pm_config with Tp.System.pm_capacity = 8 * 1024 * 1024; pm_region_bytes = 1024 * 1024 }

let in_system ?(cfg = Tp.System.default_config) ~seed f =
  let sim = Sim.create ~seed () in
  let out = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let system = Tp.System.build sim cfg in
        out := Some (f system))
  in
  Sim.run sim;
  match !out with Some v -> v | None -> Alcotest.fail "workload did not complete"

(* --- Hot_stock --- *)

let test_hot_stock_accounting () =
  let r =
    in_system ~seed:0x111L (fun system ->
        Hot_stock.run system (Hot_stock.scaled_params ~drivers:3 ~inserts_per_txn:8 ~records_per_driver:40))
  in
  check_int "txns" 15 r.Hot_stock.txns;
  check_int "committed all" 15 r.Hot_stock.committed;
  check_int "one response sample per txn" 15 r.Hot_stock.response.Stat.n;
  check_bool "throughput positive" true (r.Hot_stock.throughput_tps > 0.0)

let test_hot_stock_partial_last_boxcar () =
  (* 50 records with boxcar 8 = 6 full + one 2-insert transaction. *)
  let r =
    in_system ~seed:0x112L (fun system ->
        Hot_stock.run system (Hot_stock.scaled_params ~drivers:1 ~inserts_per_txn:8 ~records_per_driver:50))
  in
  check_int "txns include the remainder" 7 r.Hot_stock.txns;
  check_int "committed" 7 r.Hot_stock.committed

let test_hot_stock_rows_unique () =
  let rows =
    in_system ~seed:0x113L (fun system ->
        let (_ : Hot_stock.result) =
          Hot_stock.run system
            (Hot_stock.scaled_params ~drivers:2 ~inserts_per_txn:4 ~records_per_driver:32)
        in
        Array.fold_left (fun acc d -> acc + Tp.Dp2.table_size d) 0 (Tp.System.dp2s system))
  in
  check_int "64 distinct rows" 64 rows

(* The benchmark's loss-audit contract: after a crash, recovery rebuilds
   exactly the rows a completed run acknowledged.  Driver [d]'s insert
   [idx] is key [(d+1)*100_000_000 + idx + idx/per_txn] in file
   [idx mod files]; a driver change that moved a key fails here. *)
let test_hot_stock_loss_audit_contract () =
  let p = Hot_stock.scaled_params ~drivers:2 ~inserts_per_txn:8 ~records_per_driver:60 in
  List.iter
    (fun (label, cfg) ->
      let missing, rebuilt, expected =
        in_system ~cfg ~seed:0x114L (fun system ->
            let r = Hot_stock.run system p in
            check_int (label ^ ": every transaction committed") r.Hot_stock.txns
              r.Hot_stock.committed;
            Array.iter (fun d -> Tp.Dp2.load_table d []) (Tp.System.dp2s system);
            let report =
              match Tp.Recovery.run system with Ok r -> r | Error e -> Alcotest.fail e
            in
            let files = (Tp.System.config system).Tp.System.files in
            let rows =
              List.sort_uniq compare
                (List.concat
                   (List.init p.Hot_stock.drivers (fun d ->
                        List.init p.Hot_stock.records_per_driver (fun idx ->
                            ( idx mod files,
                              ((d + 1) * 100_000_000) + idx + (idx / p.Hot_stock.inserts_per_txn)
                            )))))
            in
            let present (file, key) =
              let dp2 = (Tp.System.routing system).Tp.Txclient.dp2_of ~file ~key in
              Tp.Dp2.lookup_direct (Tp.System.dp2s system).(dp2) ~file ~key <> None
            in
            ( List.length (List.filter (fun row -> not (present row)) rows),
              report.Tp.Recovery.rows_rebuilt,
              List.length rows ))
      in
      check_int (label ^ ": 120 distinct acked rows") 120 expected;
      check_int (label ^ ": every acked row found") 0 missing;
      check_int (label ^ ": rows rebuilt = acked rows") expected rebuilt)
    [ ("pm", small_pm); ("disk", Tp.System.default_config) ]

let test_txn_size_label () =
  Alcotest.(check string) "32k" "32k"
    (Hot_stock.txn_size_label (Hot_stock.paper_params ~drivers:1 ~inserts_per_txn:8));
  Alcotest.(check string) "128k" "128k"
    (Hot_stock.txn_size_label (Hot_stock.paper_params ~drivers:1 ~inserts_per_txn:32))

(* --- Telco --- *)

let test_telco_completes_and_serves_reads () =
  let r =
    in_system ~cfg:small_pm ~seed:0x7E1L (fun system ->
        Telco_cdr.run system
          { Telco_cdr.switches = 3; cdrs_per_switch = 60; cdr_bytes = 256; cdrs_per_txn = 2;
            fraud_readers = 2; arrival = Telco_cdr.Closed })
  in
  check_int "all CDRs in" 180 r.Telco_cdr.cdrs_inserted;
  check_bool "ingest rate positive" true (r.Telco_cdr.cdrs_per_sec > 0.0);
  check_bool "readers ran" true (r.Telco_cdr.lookups > 0);
  check_bool "some lookups hit" true (r.Telco_cdr.lookup_hits > 0)

(* --- Order matching --- *)

let test_order_match_contention () =
  let r =
    in_system ~seed:0x5701L (fun system ->
        Order_match.run system
          { Order_match.streams = 4; trades_per_stream = 40; symbols = 8; hot_symbol_share = 0.6; order_bytes = 256 })
  in
  check_int "trades" 160 r.Order_match.trades;
  check_bool "hot volume dominates" true (r.Order_match.hot_trades > 60);
  check_bool "hot symbol causes lock conflicts" true (r.Order_match.lock_waits > 0)

let test_order_match_pm_lifts_hot_throughput () =
  let run cfg =
    in_system ~cfg ~seed:0x5702L (fun system ->
        Order_match.run system
          { Order_match.streams = 2; trades_per_stream = 50; symbols = 8; hot_symbol_share = 0.5; order_bytes = 256 })
  in
  let disk = run Tp.System.default_config in
  let pm = run small_pm in
  check_bool
    (Printf.sprintf "hot tps improves (disk %.1f, pm %.1f)" disk.Order_match.hot_tps pm.Order_match.hot_tps)
    true
    (pm.Order_match.hot_tps > disk.Order_match.hot_tps *. 2.0)

(* --- PMP prototype parity (paper section 4.2) --- *)

let test_pmp_prototype_parity () =
  (* The paper's experiments ran on process-hosted PMPs, not hardware
     NPMUs, and report the hardware is only "slightly faster".  Our PMP
     shares the NPMU's fabric path, so the benchmark results must agree. *)
  let run kind =
    let cfg = { small_pm with Tp.System.pm_device_kind = kind } in
    in_system ~cfg ~seed:0x939L (fun system ->
        Hot_stock.run system
          (Hot_stock.scaled_params ~drivers:1 ~inserts_per_txn:8 ~records_per_driver:160))
  in
  let hw = run Tp.System.Hardware_npmu in
  let proto = run Tp.System.Prototype_pmp in
  let ratio = proto.Hot_stock.response.Stat.mean /. hw.Hot_stock.response.Stat.mean in
  check_bool
    (Printf.sprintf "PMP within 10%% of hardware (ratio %.3f)" ratio)
    true
    (ratio > 0.9 && ratio < 1.1);
  check_int "same work" hw.Hot_stock.committed proto.Hot_stock.committed

(* --- Bank (TPC-B-style) --- *)

let bank_params =
  { Bank.clients = 3; txns_per_client = 30; branches = 2; tellers_per_branch = 5;
    accounts = 200; row_bytes = 128 }

let test_bank_completes () =
  let r = in_system ~seed:0xBA11L (fun system -> Bank.run system bank_params) in
  check_int "all committed" 90 r.Bank.committed;
  check_int "history rows" 90 r.Bank.history_rows;
  check_bool "branch contention observed" true (r.Bank.branch_conflicts > 0)

let test_bank_updates_carry_before_images () =
  (* The measured phase overwrites preloaded rows, so the trails must
     carry before-images (update audit is larger than the payload). *)
  let audit =
    in_system ~seed:0xBA12L (fun system ->
        let (_ : Bank.result) = Bank.run system bank_params in
        (* Replay the trails and count updates with before_len > 0. *)
        let with_before = ref 0 in
        Array.iter
          (fun adp ->
            match Tp.Log_backend.recovery_read (Tp.Adp.backend adp) with
            | Ok records ->
                List.iter
                  (fun (_, r) ->
                    match r with
                    | Tp.Audit.Update { before_len; _ } when before_len > 0 -> incr with_before
                    | _ -> ())
                  records
            | Error _ -> ())
          (Tp.System.adps system);
        !with_before)
  in
  check_bool "before-images present" true (audit > 100)

let test_bank_pm_faster () =
  let run cfg = in_system ~cfg ~seed:0xBA13L (fun system -> Bank.run system bank_params) in
  let disk = run Tp.System.default_config in
  let pm = run small_pm in
  check_bool
    (Printf.sprintf "pm tps > 2x disk (disk %.0f, pm %.0f)" disk.Bank.tps pm.Bank.tps)
    true (pm.Bank.tps > disk.Bank.tps *. 2.0)

(* --- Figures harness --- *)

let test_figure_cell_speedup () =
  let disk =
    Figures.run_cell ~mode:Tp.System.Disk_audit ~drivers:1 ~inserts_per_txn:8 ~records_per_driver:160 ()
  in
  let pm =
    Figures.run_cell ~mode:Tp.System.Pm_audit ~drivers:1 ~inserts_per_txn:8 ~records_per_driver:160 ()
  in
  let speedup = disk.Figures.result.Hot_stock.response.Stat.mean /. pm.Figures.result.Hot_stock.response.Stat.mean in
  check_bool (Printf.sprintf "PM speedup > 2 at boxcar 8 (got %.2f)" speedup) true (speedup > 2.0)

let test_figure1_shape () =
  (* Tiny-scale figure 1: speedup must decline with the boxcar degree. *)
  let points = Figures.figure1 ~records_per_driver:160 ~drivers_list:[ 1 ] () in
  check_int "three boxcar points" 3 (List.length points);
  match points with
  | [ p8; p16; p32 ] ->
      check_bool "speedup declines with boxcarring" true
        (p8.Figures.speedup > p16.Figures.speedup && p16.Figures.speedup > p32.Figures.speedup);
      check_bool "all above 1" true (p32.Figures.speedup > 1.0)
  | _ -> Alcotest.fail "unexpected shape"

let test_figure2_shape () =
  let points = Figures.figure2 ~records_per_driver:160 ~drivers_list:[ 1 ] () in
  match points with
  | [ p8; _; p32 ] ->
      check_bool "disk elapsed falls with boxcarring" true
        (p8.Figures.elapsed_disk_s > p32.Figures.elapsed_disk_s);
      let disk_rise = p8.Figures.elapsed_disk_s /. p32.Figures.elapsed_disk_s in
      let pm_rise = p8.Figures.elapsed_pm_s /. p32.Figures.elapsed_pm_s in
      check_bool
        (Printf.sprintf "PM much flatter (disk rise %.2f, pm rise %.2f)" disk_rise pm_rise)
        true
        (pm_rise < disk_rise /. 1.5)
  | _ -> Alcotest.fail "unexpected shape"

let test_latency_sweep_monotone () =
  let points = Figures.latency_sweep ~records_per_driver:320 ~penalties:[ 0; Time.ms 1; Time.ms 8 ] () in
  match points with
  | [ a; b; c ] ->
      check_bool "RT grows with device latency" true
        (a.Figures.rt_us < b.Figures.rt_us && b.Figures.rt_us < c.Figures.rt_us);
      check_bool "advantage dies at disk-class latency" true (c.Figures.speedup_vs_disk < 1.0)
  | _ -> Alcotest.fail "unexpected sweep shape"

let test_mttr_pm_faster () =
  match Figures.mttr ~records_per_driver:400 () with
  | [ disk; pm ] ->
      check_bool "pm MTTR shorter" true (pm.Figures.report.Tp.Recovery.mttr < disk.Figures.report.Tp.Recovery.mttr);
      check_int "same rows rebuilt" disk.Figures.report.Tp.Recovery.rows_rebuilt
        pm.Figures.report.Tp.Recovery.rows_rebuilt;
      check_bool "sources differ" true
        (disk.Figures.report.Tp.Recovery.outcome_source = Tp.Recovery.Mat_scan
        && pm.Figures.report.Tp.Recovery.outcome_source = Tp.Recovery.Pm_txn_table)
  | _ -> Alcotest.fail "expected two mttr points"

let test_failover_no_loss () =
  let r = Figures.failover_under_load ~records_per_driver:200 () in
  check_int "no lost transactions" 0 r.Figures.lost_transactions;
  check_int "one takeover" 1 r.Figures.adp_takeovers;
  check_int "all committed" 50 r.Figures.committed_total

let test_adp_scaling_helps_pm () =
  (* "For scaling audit throughput, multiple ADPs can be configured per
     node" (paper §4.2): with fast trails the log writer's instruction
     path is the bottleneck, so spreading it over CPUs pays; disk mode is
     rotation-bound and stays flat. *)
  let points = Figures.adp_scaling ~records_per_driver:800 ~counts:[ 1; 4 ] () in
  let find n mode =
    List.find (fun p -> p.Figures.adps = n && p.Figures.a_mode = mode) points
  in
  let pm1 = find 1 Tp.System.Pm_audit in
  let pm4 = find 4 Tp.System.Pm_audit in
  check_bool
    (Printf.sprintf "more ADPs lift PM throughput (1: %.0f, 4: %.0f tps)" pm1.Figures.tps
       pm4.Figures.tps)
    true
    (pm4.Figures.tps > pm1.Figures.tps *. 1.1)

let test_checkpoint_traffic_eliminated () =
  match Figures.checkpoint_traffic ~records_per_driver:200 () with
  | [ disk; pm ] ->
      check_bool "disk checkpoints ~ audit volume" true
        (disk.Figures.checkpoint_bytes > disk.Figures.audit_bytes / 2);
      check_bool
        (Printf.sprintf "pm eliminates audit checkpoints (disk %d B/txn, pm %.0f B/txn)"
           (int_of_float disk.Figures.ckpt_bytes_per_txn)
           pm.Figures.ckpt_bytes_per_txn)
        true
        (pm.Figures.ckpt_bytes_per_txn < disk.Figures.ckpt_bytes_per_txn /. 20.0)
  | _ -> Alcotest.fail "expected two points"

let test_scaleout_linear () =
  let points = Figures.scaleout ~records_per_driver:200 ~nodes_list:[ 1; 2 ] () in
  let find n mode = List.find (fun p -> p.Figures.s_nodes = n && p.Figures.s_mode = mode) points in
  let d1 = find 1 Tp.System.Disk_audit in
  let d2 = find 2 Tp.System.Disk_audit in
  check_bool
    (Printf.sprintf "2 nodes ~ 2x aggregate (1: %.0f, 2: %.0f)" d1.Figures.aggregate_tps
       d2.Figures.aggregate_tps)
    true
    (d2.Figures.aggregate_tps > d1.Figures.aggregate_tps *. 1.8)

(* A zero boxcar never advances a driver's insert cursor: it must be
   refused up front, not loop forever. *)
let test_hot_stock_rejects_empty_boxcar () =
  Alcotest.check_raises "zero boxcar"
    (Invalid_argument "Hot_stock.run: need at least one insert per transaction") (fun () ->
      ignore
        (Figures.run_cell ~mode:Tp.System.Disk_audit ~drivers:1 ~inserts_per_txn:0
           ~records_per_driver:8 ()))

(* --- Failed transactions are counted, not fatal --- *)

(* Both rails down for 5 ms from [from] ms: PM commits in flight fail with
   both NPMUs unreachable, and each workload must count them and finish
   its run rather than abort the simulation. *)
let under_partition ~from ~seed f =
  in_system ~cfg:Tp.System.pm_config ~seed (fun system ->
      let plan =
        Tp.Faultplan.
          [
            at (Time.ms from) (Rail_down 0);
            at (Time.ms from) (Rail_down 1);
            at (Time.ms (from + 5)) (Rail_up 0);
            at (Time.ms (from + 5)) (Rail_up 1);
          ]
      in
      let run = Tp.Faultplan.launch (Tp.Faultplan.Single system) plan in
      let r = f system in
      Tp.Faultplan.await run;
      r)

(* After the bank's load phase, which still refuses to continue on a
   half-loaded table. *)
let test_bank_counts_failures () =
  let r = under_partition ~from:100 ~seed:0xBA11L (fun system -> Bank.run system bank_params) in
  check_bool (Printf.sprintf "some failed (%d)" r.Bank.failed) true (r.Bank.failed > 0);
  check_int "every transaction committed or counted" 90 (r.Bank.committed + r.Bank.failed);
  check_int "one history row per commit" r.Bank.committed r.Bank.history_rows

let test_order_match_counts_failures () =
  let r =
    under_partition ~from:10 ~seed:0x5L (fun system ->
        Order_match.run system
          { Order_match.streams = 4; trades_per_stream = 40; symbols = 8; hot_symbol_share = 0.6;
            order_bytes = 256 })
  in
  check_bool (Printf.sprintf "some failed (%d)" r.Order_match.failed) true (r.Order_match.failed > 0);
  check_int "one response sample per committed trade" (r.Order_match.trades - r.Order_match.failed)
    r.Order_match.trade_response.Stat.n;
  check_bool "hot trades are committed ones" true
    (r.Order_match.hot_trades + r.Order_match.failed <= r.Order_match.trades)

let test_telco_counts_failures () =
  let r =
    under_partition ~from:10 ~seed:0x6L (fun system ->
        Telco_cdr.run system
          { Telco_cdr.switches = 3; cdrs_per_switch = 60; cdr_bytes = 256; cdrs_per_txn = 2;
            fraud_readers = 2; arrival = Telco_cdr.Closed })
  in
  check_bool (Printf.sprintf "some failed (%d)" r.Telco_cdr.failed_txns) true
    (r.Telco_cdr.failed_txns > 0);
  check_int "every CDR inserted or its transaction counted" 180
    (r.Telco_cdr.cdrs_inserted + (2 * r.Telco_cdr.failed_txns))

let suite =
  [
    ( "workloads.hot_stock",
      [
        Alcotest.test_case "transaction accounting" `Quick test_hot_stock_accounting;
        Alcotest.test_case "zero boxcar is refused" `Quick test_hot_stock_rejects_empty_boxcar;
        Alcotest.test_case "partial last boxcar" `Quick test_hot_stock_partial_last_boxcar;
        Alcotest.test_case "distinct rows land" `Quick test_hot_stock_rows_unique;
        Alcotest.test_case "recovery rebuilds exactly the acked rows" `Quick
          test_hot_stock_loss_audit_contract;
        Alcotest.test_case "txn size labels" `Quick test_txn_size_label;
      ] );
    ( "workloads.telco",
      [ Alcotest.test_case "ingest with concurrent readers" `Quick test_telco_completes_and_serves_reads ] );
    ( "workloads.pmp",
      [ Alcotest.test_case "prototype PMP matches hardware NPMU" `Quick test_pmp_prototype_parity ] );
    ( "workloads.bank",
      [
        Alcotest.test_case "transactions complete with retries" `Quick test_bank_completes;
        Alcotest.test_case "updates carry before-images" `Quick test_bank_updates_carry_before_images;
        Alcotest.test_case "PM multiplies throughput" `Quick test_bank_pm_faster;
      ] );
    ( "workloads.order_match",
      [
        Alcotest.test_case "hot symbol contends" `Quick test_order_match_contention;
        Alcotest.test_case "PM lifts hot-symbol throughput" `Quick test_order_match_pm_lifts_hot_throughput;
      ] );
    ( "workloads.failures",
      [
        Alcotest.test_case "bank counts failed transactions" `Quick test_bank_counts_failures;
        Alcotest.test_case "order matching counts failed trades" `Quick
          test_order_match_counts_failures;
        Alcotest.test_case "telco counts failed transactions" `Quick test_telco_counts_failures;
      ] );
    ( "figures",
      [
        Alcotest.test_case "single cell speedup" `Quick test_figure_cell_speedup;
        Alcotest.test_case "figure 1 shape (boxcar trend)" `Quick test_figure1_shape;
        Alcotest.test_case "figure 2 shape (PM flat)" `Quick test_figure2_shape;
        Alcotest.test_case "E3 latency sweep monotone" `Quick test_latency_sweep_monotone;
        Alcotest.test_case "E5 PM recovers faster" `Quick test_mttr_pm_faster;
        Alcotest.test_case "E7 failover loses nothing" `Quick test_failover_no_loss;
        Alcotest.test_case "E6 ADP scaling helps PM audit" `Quick test_adp_scaling_helps_pm;
        Alcotest.test_case "E8 shared-nothing scale-out is linear" `Quick test_scaleout_linear;
        Alcotest.test_case "E9 PM eliminates audit checkpoint traffic" `Quick
          test_checkpoint_traffic_eliminated;
      ] );
  ]

(* --- Open-loop telco ingest --- *)

let open_params rate =
  { Telco_cdr.switches = 4; cdrs_per_switch = 200; cdr_bytes = 256; cdrs_per_txn = 2;
    fraud_readers = 0; arrival = Telco_cdr.Open_poisson rate }

let test_open_loop_sustains_offered_load () =
  (* PM mode at a modest rate: the system keeps up, so measured
     throughput ~ offered load and the tail stays tight. *)
  let r = in_system ~cfg:small_pm ~seed:0x0931L (fun s -> Telco_cdr.run s (open_params 2000.0)) in
  check_int "all CDRs in" 800 r.Telco_cdr.cdrs_inserted;
  check_bool
    (Printf.sprintf "throughput tracks offered load (%.0f)" r.Telco_cdr.cdrs_per_sec)
    true
    (r.Telco_cdr.cdrs_per_sec > 1400.0);
  check_bool "tail tight when keeping up" true
    (r.Telco_cdr.txn_response.Stat.p99 < 50e6)

let test_open_loop_overload_grows_tail () =
  (* Disk mode offered far beyond its capacity: arrivals queue, so the
     p99 blows up relative to an easy rate. *)
  let easy = in_system ~seed:0x0932L (fun s -> Telco_cdr.run s (open_params 100.0)) in
  let hot = in_system ~seed:0x0933L (fun s -> Telco_cdr.run s (open_params 5000.0)) in
  check_bool
    (Printf.sprintf "overload p99 >> easy p99 (%.1fms vs %.1fms)"
       (hot.Telco_cdr.txn_response.Stat.p99 /. 1e6)
       (easy.Telco_cdr.txn_response.Stat.p99 /. 1e6))
    true
    (hot.Telco_cdr.txn_response.Stat.p99 > easy.Telco_cdr.txn_response.Stat.p99 *. 3.0)

let open_loop_cases =
  [
    Alcotest.test_case "sustains offered load (PM)" `Quick test_open_loop_sustains_offered_load;
    Alcotest.test_case "overload grows the tail (disk)" `Quick test_open_loop_overload_grows_tail;
  ]

let suite = suite @ [ ("workloads.open_loop", open_loop_cases) ]

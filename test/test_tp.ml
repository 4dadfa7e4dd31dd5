(* Tests for the transaction-processing stack. *)

open Simkit
open Tp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Audit records --- *)

let sample_update =
  Audit.Update
    { txn = 7; file = 2; partition = 5; key = 123456; payload_len = 4096; payload_crc = 99; before_len = 0 }

let test_audit_roundtrip () =
  let records =
    [
      Audit.Begin { txn = 1 };
      sample_update;
      Audit.Commit { txn = 7 };
      Audit.Abort { txn = 8 };
      Audit.Prepared { txn = 9 };
      Audit.Control_point { active = [ 1; 2; 3 ] };
      Audit.Control_point { active = [] };
    ]
  in
  List.iter
    (fun record ->
      let bytes = Audit.encode_to_bytes record in
      check_int "wire size matches" (Audit.wire_size record) (Bytes.length bytes);
      match Audit.decode bytes ~pos:0 with
      | Some (back, next) ->
          check_bool "equal" true (back = record);
          check_int "consumed all" (Bytes.length bytes) next
      | None -> Alcotest.fail "decode failed")
    records

let test_audit_corruption_detected () =
  let bytes = Audit.encode_to_bytes sample_update in
  Bytes.set bytes 6 'X';
  check_bool "corrupt record rejected" true (Audit.decode bytes ~pos:0 = None)

let test_audit_stream_decode () =
  let enc = Pm.Codec.Enc.create () in
  Audit.encode enc (Audit.Begin { txn = 42 });
  Audit.encode enc sample_update;
  Audit.encode enc (Audit.Commit { txn = 42 });
  let buf = Pm.Codec.Enc.to_bytes enc in
  let rec collect pos acc =
    match Audit.decode buf ~pos with
    | Some (r, next) -> collect next (r :: acc)
    | None -> List.rev acc
  in
  check_int "three records" 3 (List.length (collect 0 []))

let prop_audit_roundtrip =
  QCheck.Test.make ~name:"audit update roundtrip" ~count:100
    QCheck.(quad small_nat small_nat small_nat (int_bound 100000))
    (fun (txn, file, key, len) ->
      let r =
        Audit.Update
          { txn; file; partition = file; key; payload_len = len; payload_crc = len * 7; before_len = 0 }
      in
      match Audit.decode (Audit.encode_to_bytes r) ~pos:0 with
      | Some (back, _) -> back = r
      | None -> false)

(* --- Lock manager --- *)

let test_locks_exclusive_blocks () =
  Test_util.run_process (fun sim ->
      let locks = Lockmgr.create sim () in
      let order = ref [] in
      let g = Gate.create 2 in
      let worker txn delay () =
        Sim.sleep delay;
        (match Lockmgr.acquire locks ~owner:txn ~key:(0, 1) Lockmgr.Exclusive with
        | Ok () -> order := txn :: !order
        | Error _ -> Alcotest.fail "unexpected timeout");
        Sim.sleep (Time.ms 1);
        Lockmgr.release_all locks ~owner:txn;
        Gate.arrive g
      in
      let (_ : Sim.pid) = Sim.spawn sim ~name:"t1" (worker 1 0) in
      let (_ : Sim.pid) = Sim.spawn sim ~name:"t2" (worker 2 (Time.us 10)) in
      Gate.await g;
      Alcotest.(check (list int)) "fifo-ish grant order" [ 2; 1 ] !order)

let test_locks_shared_compatible () =
  Test_util.run_process (fun sim ->
      let locks = Lockmgr.create sim () in
      (match Lockmgr.acquire locks ~owner:1 ~key:(0, 5) Lockmgr.Shared with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "t1 shared");
      (match Lockmgr.acquire locks ~owner:2 ~key:(0, 5) Lockmgr.Shared with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "t2 shared");
      check_int "two holders" 2 (List.length (Lockmgr.holders locks (0, 5))))

let test_locks_timeout () =
  Test_util.run_process (fun sim ->
      let locks = Lockmgr.create sim ~timeout:(Time.ms 5) () in
      (match Lockmgr.acquire locks ~owner:1 ~key:(1, 1) Lockmgr.Exclusive with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "first acquire");
      match Lockmgr.acquire locks ~owner:2 ~key:(1, 1) Lockmgr.Exclusive with
      | Error Lockmgr.Lock_timeout -> check_int "counted" 1 (Lockmgr.timeouts locks)
      | Ok () -> Alcotest.fail "conflicting grant")

let test_locks_upgrade () =
  Test_util.run_process (fun sim ->
      let locks = Lockmgr.create sim () in
      (match Lockmgr.acquire locks ~owner:1 ~key:(2, 2) Lockmgr.Shared with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "shared");
      match Lockmgr.acquire locks ~owner:1 ~key:(2, 2) Lockmgr.Exclusive with
      | Ok () ->
          check_bool "upgraded" true (Lockmgr.holders locks (2, 2) = [ (1, Lockmgr.Exclusive) ])
      | Error _ -> Alcotest.fail "upgrade refused")

let test_locks_release_wakes () =
  Test_util.run_process (fun sim ->
      let locks = Lockmgr.create sim () in
      let granted_at = ref Time.zero in
      (match Lockmgr.acquire locks ~owner:1 ~key:(3, 3) Lockmgr.Exclusive with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "first");
      let g = Gate.create 1 in
      let (_ : Sim.pid) =
        Sim.spawn sim ~name:"waiter" (fun () ->
            (match Lockmgr.acquire locks ~owner:2 ~key:(3, 3) Lockmgr.Exclusive with
            | Ok () -> granted_at := Sim.now sim
            | Error _ -> Alcotest.fail "waiter timeout");
            Gate.arrive g)
      in
      Sim.sleep (Time.ms 2);
      Lockmgr.release_all locks ~owner:1;
      Gate.await g;
      check_int "granted right at release" (Time.ms 2) !granted_at)

(* A granted wait retires its deadline at once: nothing is left queued
   for the lock timeout, and the run ends at the grant, not 5 s later. *)
let test_locks_grant_retires_deadline () =
  let sim = Sim.create () in
  let locks = Lockmgr.create sim () in
  let depth_at_grant = ref (-1) in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"holder" (fun () ->
        (match Lockmgr.acquire locks ~owner:1 ~key:(4, 4) Lockmgr.Exclusive with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "holder");
        Sim.sleep (Time.ms 2);
        Lockmgr.release_all locks ~owner:1)
  in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"waiter" (fun () ->
        match Lockmgr.acquire locks ~owner:2 ~key:(4, 4) Lockmgr.Exclusive with
        | Ok () -> depth_at_grant := Sim.queue_depth sim
        | Error _ -> Alcotest.fail "waiter timeout")
  in
  Sim.run sim;
  check_int "nothing queued at the grant" 0 !depth_at_grant;
  check_int "run ends at the grant" (Time.ms 2) (Sim.now sim)

(* --- End-to-end small hot-stock runs --- *)

(* Small PM devices keep test allocations (and wall time) down. *)
let small_pm_config =
  { Tp.System.pm_config with
    Tp.System.pm_capacity = 8 * 1024 * 1024;
    pm_region_bytes = 1024 * 1024 }

let small_run mode ~drivers ~inserts_per_txn =
  let sim = Sim.create ~seed:0x7E57L () in
  let cfg =
    match mode with
    | `Disk -> Tp.System.default_config
    | `Pm -> small_pm_config
  in
  let result = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"bench-main" (fun () ->
        let system = System.build sim cfg in
        let params =
          Workloads.Hot_stock.scaled_params ~drivers ~inserts_per_txn ~records_per_driver:64
        in
        result := Some (system, Workloads.Hot_stock.run system params))
  in
  Sim.run sim;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "hot-stock run did not complete"

let test_hot_stock_disk_completes () =
  let system, r = small_run `Disk ~drivers:2 ~inserts_per_txn:8 in
  check_int "txns" 16 r.Workloads.Hot_stock.txns;
  check_int "all committed" 16 r.Workloads.Hot_stock.committed;
  check_int "tmf agrees" 16 (Tmf.committed (System.tmf system));
  (* 128 inserts spread over the DP2s. *)
  let total_inserts = Array.fold_left (fun acc d -> acc + Dp2.inserts d) 0 (System.dp2s system) in
  check_int "inserts" 128 total_inserts;
  check_bool "audit written" true (r.Workloads.Hot_stock.audit_bytes > 128 * 4096);
  check_bool "disk mode checkpoints audit" true (r.Workloads.Hot_stock.checkpoint_bytes > 128 * 4096)

let test_hot_stock_pm_completes () =
  let system, r = small_run `Pm ~drivers:2 ~inserts_per_txn:8 in
  check_int "all committed" 16 r.Workloads.Hot_stock.committed;
  check_bool "pm devices exist" true (List.length (System.npmus system) = 2);
  (* The PM configuration must not checkpoint record payloads. *)
  check_bool "pm mode skips audit checkpoints" true
    (r.Workloads.Hot_stock.checkpoint_bytes < 128 * 1024)

let test_pm_faster_than_disk () =
  let _, disk = small_run `Disk ~drivers:1 ~inserts_per_txn:8 in
  let _, pm = small_run `Pm ~drivers:1 ~inserts_per_txn:8 in
  let d = disk.Workloads.Hot_stock.response.Stat.mean in
  let p = pm.Workloads.Hot_stock.response.Stat.mean in
  check_bool
    (Printf.sprintf "pm response beats disk (disk=%.0fus pm=%.0fus)" (d /. 1e3) (p /. 1e3))
    true (p < d)

let test_rows_actually_inserted () =
  let system, _ = small_run `Disk ~drivers:1 ~inserts_per_txn:8 in
  let dp2s = System.dp2s system in
  let rows = Array.fold_left (fun acc d -> acc + Dp2.table_size d) 0 dp2s in
  check_int "rows present" 64 rows

(* --- Recovery --- *)

let run_with_recovery mode =
  let sim = Sim.create ~seed:0xDEADL () in
  let cfg = match mode with `Disk -> System.default_config | `Pm -> small_pm_config in
  let out = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let system = System.build sim cfg in
        let params =
          Workloads.Hot_stock.scaled_params ~drivers:2 ~inserts_per_txn:4 ~records_per_driver:32
        in
        let (_ : Workloads.Hot_stock.result) = Workloads.Hot_stock.run system params in
        (* Wipe the tables, then recover them from the trails. *)
        Array.iter (fun d -> Dp2.load_table d []) (System.dp2s system);
        match Recovery.run system with
        | Ok report -> out := Some (system, report)
        | Error e -> Alcotest.fail ("recovery failed: " ^ e))
  in
  Sim.run sim;
  match !out with Some v -> v | None -> Alcotest.fail "run did not finish"

let test_recovery_rebuilds_disk () =
  let system, report = run_with_recovery `Disk in
  check_int "rows rebuilt" 64 report.Recovery.rows_rebuilt;
  check_bool "mat scan" true (report.Recovery.outcome_source = Recovery.Mat_scan);
  let rows = Array.fold_left (fun acc d -> acc + Dp2.table_size d) 0 (System.dp2s system) in
  check_int "installed" 64 rows;
  check_int "committed txns" 16 report.Recovery.committed_txns

let test_recovery_rebuilds_pm () =
  let _, report = run_with_recovery `Pm in
  check_int "rows rebuilt" 64 report.Recovery.rows_rebuilt;
  check_bool "pm txn table" true (report.Recovery.outcome_source = Recovery.Pm_txn_table)

let test_recovery_pm_mttr_shorter () =
  let _, disk_report = run_with_recovery `Disk in
  let _, pm_report = run_with_recovery `Pm in
  check_bool
    (Printf.sprintf "MTTR pm < disk (disk=%s pm=%s)"
       (Time.to_string disk_report.Recovery.mttr)
       (Time.to_string pm_report.Recovery.mttr))
    true
    (pm_report.Recovery.mttr < disk_report.Recovery.mttr)

let suite =
  [
    ( "tp.audit",
      [
        Alcotest.test_case "record roundtrip" `Quick test_audit_roundtrip;
        Alcotest.test_case "corruption detected" `Quick test_audit_corruption_detected;
        Alcotest.test_case "stream decode" `Quick test_audit_stream_decode;
        QCheck_alcotest.to_alcotest prop_audit_roundtrip;
      ] );
    ( "tp.lockmgr",
      [
        Alcotest.test_case "exclusive blocks and hands over" `Quick test_locks_exclusive_blocks;
        Alcotest.test_case "shared locks coexist" `Quick test_locks_shared_compatible;
        Alcotest.test_case "timeout breaks deadlock" `Quick test_locks_timeout;
        Alcotest.test_case "upgrade when sole holder" `Quick test_locks_upgrade;
        Alcotest.test_case "release wakes waiter" `Quick test_locks_release_wakes;
        Alcotest.test_case "granted wait retires its deadline" `Quick
          test_locks_grant_retires_deadline;
      ] );
    ( "tp.end_to_end",
      [
        Alcotest.test_case "hot-stock on disk audit" `Quick test_hot_stock_disk_completes;
        Alcotest.test_case "hot-stock on PM audit" `Quick test_hot_stock_pm_completes;
        Alcotest.test_case "PM beats disk on response time" `Quick test_pm_faster_than_disk;
        Alcotest.test_case "rows land in DP2 tables" `Quick test_rows_actually_inserted;
      ] );
    ( "tp.recovery",
      [
        Alcotest.test_case "disk recovery rebuilds tables" `Quick test_recovery_rebuilds_disk;
        Alcotest.test_case "PM recovery rebuilds tables" `Quick test_recovery_rebuilds_pm;
        Alcotest.test_case "PM recovery is faster" `Quick test_recovery_pm_mttr_shorter;
      ] );
  ]

(* Tests for the copy-on-write persistent B-tree index. *)

open Simkit
open Nsk
open Pm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type rig = { sim : Sim.t; node : Node.t; npmu_a : Npmu.t; npmu_b : Npmu.t; pmm : Pmm.t }

let make_rig ?(capacity = 4 * 1024 * 1024) () =
  let sim = Sim.create ~seed:0x1D8L () in
  let node = Node.create sim ~cpus:4 () in
  let fabric = Node.fabric node in
  let npmu_a = Npmu.create sim fabric ~name:"ix-a" ~capacity in
  let npmu_b = Npmu.create sim fabric ~name:"ix-b" ~capacity in
  let da = Pmm.device_of_npmu npmu_a in
  let db = Pmm.device_of_npmu npmu_b in
  Pmm.format da db;
  let pmm =
    Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Node.cpu node 0) ~backup_cpu:(Node.cpu node 1)
      ~primary_dev:da ~mirror_dev:db ()
  in
  { sim; node; npmu_a; npmu_b; pmm }

let client rig cpu_idx =
  Pm_client.attach ~cpu:(Node.cpu rig.node cpu_idx) ~fabric:(Node.fabric rig.node)
    ~pmm:(Pmm.server rig.pmm) ()

let with_index ?(size = 2 * 1024 * 1024) ?degree rig f =
  Test_util.run_in rig.sim (fun () ->
      let c = client rig 2 in
      let h = Test_util.ok_or_fail ~msg:"region" (Pm_client.create_region c ~name:"ix" ~size) in
      let ix = Test_util.ok_or_fail ~msg:"create" (Pm_index.create c h ?degree ()) in
      f c h ix)

let expect_find ix key =
  match Pm_index.find ix ~key with
  | Ok v -> v
  | Error e -> Alcotest.failf "find %d: %s" key (Pm_types.error_to_string e)

let test_insert_find () =
  let rig = make_rig () in
  with_index rig ~degree:3 (fun _ _ ix ->
      for i = 1 to 300 do
        Test_util.check_result_ok "insert" (Pm_index.insert ix ~key:(i * 7) ~value:(i * 100))
      done;
      check_int "count" 300 (Pm_index.cardinal ix);
      check_bool "multi-level" true (Pm_index.height ix >= 2);
      for i = 1 to 300 do
        Alcotest.(check (option int)) "find" (Some (i * 100)) (expect_find ix (i * 7))
      done;
      Alcotest.(check (option int)) "absent" None (expect_find ix 5))

let test_replace () =
  let rig = make_rig () in
  with_index rig (fun _ _ ix ->
      Test_util.check_result_ok "i1" (Pm_index.insert ix ~key:9 ~value:1);
      Test_util.check_result_ok "i2" (Pm_index.insert ix ~key:9 ~value:2);
      check_int "count stays 1" 1 (Pm_index.cardinal ix);
      Alcotest.(check (option int)) "latest value" (Some 2) (expect_find ix 9))

let test_range () =
  let rig = make_rig () in
  with_index rig ~degree:2 (fun _ _ ix ->
      for i = 0 to 50 do
        Test_util.check_result_ok "insert" (Pm_index.insert ix ~key:(i * 2) ~value:i)
      done;
      match Pm_index.range ix ~lo:10 ~hi:19 with
      | Ok rows ->
          Alcotest.(check (list (pair int int))) "window"
            [ (10, 5); (12, 6); (14, 7); (16, 8); (18, 9) ]
            rows
      | Error e -> Alcotest.fail (Pm_types.error_to_string e))

let test_cross_client_reader () =
  let rig = make_rig () in
  Test_util.run_in rig.sim (fun () ->
      let writer = client rig 2 in
      let h =
        Test_util.ok_or_fail ~msg:"region"
          (Pm_client.create_region writer ~name:"shared-ix" ~size:(1 lsl 20))
      in
      let ix = Test_util.ok_or_fail ~msg:"create" (Pm_index.create writer h ()) in
      Test_util.check_result_ok "insert" (Pm_index.insert ix ~key:123 ~value:456);
      (* A reader on another CPU opens the same region. *)
      let reader = client rig 3 in
      let h2 = Test_util.ok_or_fail ~msg:"open" (Pm_client.open_region reader ~name:"shared-ix") in
      let rix = Test_util.ok_or_fail ~msg:"open ix" (Pm_index.open_existing reader h2) in
      Alcotest.(check (option int)) "reader sees entry" (Some 456) (expect_find rix 123);
      (* Writer adds more; reader refreshes to observe. *)
      Test_util.check_result_ok "insert2" (Pm_index.insert ix ~key:124 ~value:789);
      Alcotest.(check (option int)) "stale before refresh" None (expect_find rix 124);
      Test_util.check_result_ok "refresh" (Pm_index.refresh rix);
      Alcotest.(check (option int)) "visible after refresh" (Some 789) (expect_find rix 124))

let test_survives_power_cycle () =
  let rig = make_rig () in
  Test_util.run_in rig.sim (fun () ->
      let c = client rig 2 in
      let h = Test_util.ok_or_fail ~msg:"region" (Pm_client.create_region c ~name:"dur-ix" ~size:(1 lsl 20)) in
      let ix = Test_util.ok_or_fail ~msg:"create" (Pm_index.create c h ~degree:2 ()) in
      for i = 1 to 100 do
        Test_util.check_result_ok "insert" (Pm_index.insert ix ~key:i ~value:(i * i))
      done;
      Npmu.power_loss rig.npmu_a;
      Npmu.power_loss rig.npmu_b;
      Npmu.power_restore rig.npmu_a;
      Npmu.power_restore rig.npmu_b;
      let ix2 = Test_util.ok_or_fail ~msg:"reopen" (Pm_index.open_existing c h) in
      check_int "count survives" 100 (Pm_index.cardinal ix2);
      for i = 1 to 100 do
        Alcotest.(check (option int)) "entry survives" (Some (i * i)) (expect_find ix2 i)
      done)

let test_torn_update_is_invisible () =
  (* Orphan nodes written past the committed frontier (a crash mid-CoW,
     before the header flip) must not affect the tree. *)
  let rig = make_rig () in
  Test_util.run_in rig.sim (fun () ->
      let c = client rig 2 in
      let h = Test_util.ok_or_fail ~msg:"region" (Pm_client.create_region c ~name:"torn" ~size:(1 lsl 20)) in
      let ix = Test_util.ok_or_fail ~msg:"create" (Pm_index.create c h ~degree:2 ()) in
      for i = 1 to 20 do
        Test_util.check_result_ok "insert" (Pm_index.insert ix ~key:i ~value:i)
      done;
      (* Simulate the crashed writer's half-finished path: garbage in the
         unallocated area, header untouched. *)
      let junk = Bytes.make 2048 '\xAB' in
      Test_util.check_result_ok "junk write"
        (Pm_client.write c h ~off:(Pm_index.bytes_allocated ix) ~data:junk);
      let ix2 = Test_util.ok_or_fail ~msg:"reopen" (Pm_index.open_existing c h) in
      check_int "count unchanged" 20 (Pm_index.cardinal ix2);
      for i = 1 to 20 do
        Alcotest.(check (option int)) "old tree intact" (Some i) (expect_find ix2 i)
      done)

let test_out_of_space () =
  let rig = make_rig () in
  Test_util.run_in rig.sim (fun () ->
      let c = client rig 2 in
      (* Room for only a handful of 1 KiB CoW slots. *)
      let h = Test_util.ok_or_fail ~msg:"region" (Pm_client.create_region c ~name:"tiny" ~size:8192) in
      let ix = Test_util.ok_or_fail ~msg:"create" (Pm_index.create c h ()) in
      let rec fill i =
        if i > 100 then Alcotest.fail "never filled up"
        else
          match Pm_index.insert ix ~key:i ~value:i with
          | Ok () -> fill (i + 1)
          | Error Pm_types.Out_of_space -> ()
          | Error e -> Alcotest.fail (Pm_types.error_to_string e)
      in
      fill 1)

let test_insert_cost_is_microseconds () =
  let rig = make_rig () in
  with_index rig (fun _ _ ix ->
      for i = 1 to 50 do
        Test_util.check_result_ok "warm" (Pm_index.insert ix ~key:i ~value:i)
      done;
      let t0 = Sim.now rig.sim in
      Test_util.check_result_ok "probe" (Pm_index.insert ix ~key:1000 ~value:1);
      let dt = Sim.now rig.sim - t0 in
      check_bool
        (Printf.sprintf "durable index update in sub-ms (%s)" (Time.to_string dt))
        true
        (dt > Time.us 20 && dt < Time.ms 1))

let prop_matches_map =
  let module IM = Map.Make (Int) in
  QCheck.Test.make ~name:"pm_index behaves like Map under random inserts" ~count:15
    (QCheck.make
       ~print:(fun l -> string_of_int (List.length l))
       QCheck.Gen.(list_size (int_range 1 120) (int_bound 500)))
    (fun keys ->
      let rig = make_rig () in
      Test_util.run_in rig.sim (fun () ->
          let c = client rig 2 in
          match Pm_client.create_region c ~name:"p" ~size:(2 * 1024 * 1024) with
          | Error _ -> false
          | Ok h -> (
              match Pm_index.create c h ~degree:2 () with
              | Error _ -> false
              | Ok ix ->
                  let model = ref IM.empty in
                  let ok = ref true in
                  List.iteri
                    (fun i k ->
                      (match Pm_index.insert ix ~key:k ~value:i with
                      | Ok () -> ()
                      | Error _ -> ok := false);
                      model := IM.add k i !model)
                    keys;
                  (match Pm_index.range ix ~lo:min_int ~hi:max_int with
                  | Ok rows -> if rows <> IM.bindings !model then ok := false
                  | Error _ -> ok := false);
                  !ok && Pm_index.cardinal ix = IM.cardinal !model)))

let suite =
  [
    ( "pm.index",
      [
        Alcotest.test_case "insert and find through RDMA" `Quick test_insert_find;
        Alcotest.test_case "replace keeps count" `Quick test_replace;
        Alcotest.test_case "range scan" `Quick test_range;
        Alcotest.test_case "cross-client reader with refresh" `Quick test_cross_client_reader;
        Alcotest.test_case "survives power cycle" `Quick test_survives_power_cycle;
        Alcotest.test_case "torn CoW update invisible" `Quick test_torn_update_is_invisible;
        Alcotest.test_case "out of space reported" `Quick test_out_of_space;
        Alcotest.test_case "durable update in microseconds" `Quick test_insert_cost_is_microseconds;
        QCheck_alcotest.to_alcotest prop_matches_map;
      ] );
  ]

(* Tests for the durable key-value store. *)

open Simkit
open Nsk
open Pm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

type rig = { sim : Sim.t; node : Node.t; npmu_a : Npmu.t; npmu_b : Npmu.t; pmm : Pmm.t }

let make_rig () =
  let sim = Sim.create ~seed:0x6BL () in
  let node = Node.create sim ~cpus:4 () in
  let fabric = Node.fabric node in
  let npmu_a = Npmu.create sim fabric ~name:"kv-a" ~capacity:(8 * 1024 * 1024) in
  let npmu_b = Npmu.create sim fabric ~name:"kv-b" ~capacity:(8 * 1024 * 1024) in
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

let make_store ?(index_size = 2 * 1024 * 1024) ?(log_size = 1024 * 1024) c =
  let index =
    Test_util.ok_or_fail ~msg:"index region" (Pm_client.create_region c ~name:"kv-ix" ~size:index_size)
  in
  let log =
    Test_util.ok_or_fail ~msg:"log region" (Pm_client.create_region c ~name:"kv-log" ~size:log_size)
  in
  Test_util.ok_or_fail ~msg:"create kv" (Pm_kv.create c ~index ~log)

let expect_get kv key =
  match Pm_kv.get kv ~key with
  | Ok v -> v
  | Error e -> Alcotest.failf "get %d: %s" key (Pm_types.error_to_string e)

let test_put_get_delete () =
  let rig = make_rig () in
  Test_util.run_in rig.sim (fun () ->
      let c = client rig 2 in
      let kv = make_store c in
      Test_util.check_result_ok "put" (Pm_kv.put kv ~key:1 (Bytes.of_string "value-one"));
      Test_util.check_result_ok "put2" (Pm_kv.put kv ~key:2 (Bytes.of_string "value-two"));
      (match expect_get kv 1 with
      | Some v -> check_str "get" "value-one" (Bytes.to_string v)
      | None -> Alcotest.fail "missing");
      Test_util.check_result_ok "delete" (Pm_kv.delete kv ~key:1);
      check_bool "deleted" true (expect_get kv 1 = None);
      check_bool "other survives" true (expect_get kv 2 <> None);
      Test_util.check_result_ok "re-delete idempotent" (Pm_kv.delete kv ~key:1))

let test_overwrite_returns_latest () =
  let rig = make_rig () in
  Test_util.run_in rig.sim (fun () ->
      let c = client rig 2 in
      let kv = make_store c in
      Test_util.check_result_ok "v1" (Pm_kv.put kv ~key:9 (Bytes.of_string "first"));
      Test_util.check_result_ok "v2" (Pm_kv.put kv ~key:9 (Bytes.of_string "second, longer"));
      match expect_get kv 9 with
      | Some v -> check_str "latest wins" "second, longer" (Bytes.to_string v)
      | None -> Alcotest.fail "missing")

let test_empty_value () =
  let rig = make_rig () in
  Test_util.run_in rig.sim (fun () ->
      let c = client rig 2 in
      let kv = make_store c in
      Test_util.check_result_ok "empty put" (Pm_kv.put kv ~key:5 Bytes.empty);
      match expect_get kv 5 with
      | Some v -> check_int "empty value" 0 (Bytes.length v)
      | None -> Alcotest.fail "empty value lost")

let test_survives_power_cycle () =
  let rig = make_rig () in
  Test_util.run_in rig.sim (fun () ->
      let c = client rig 2 in
      let kv = make_store c in
      for i = 1 to 50 do
        Test_util.check_result_ok "put"
          (Pm_kv.put kv ~key:i (Bytes.of_string (Printf.sprintf "row-%d" i)))
      done;
      Test_util.check_result_ok "delete" (Pm_kv.delete kv ~key:25);
      Npmu.power_loss rig.npmu_a;
      Npmu.power_loss rig.npmu_b;
      Npmu.power_restore rig.npmu_a;
      Npmu.power_restore rig.npmu_b;
      let index = Test_util.ok_or_fail ~msg:"reopen ix" (Pm_client.open_region c ~name:"kv-ix") in
      let log = Test_util.ok_or_fail ~msg:"reopen log" (Pm_client.open_region c ~name:"kv-log") in
      let kv2 = Test_util.ok_or_fail ~msg:"reopen kv" (Pm_kv.open_existing c ~index ~log) in
      (match expect_get kv2 17 with
      | Some v -> check_str "row survives" "row-17" (Bytes.to_string v)
      | None -> Alcotest.fail "row lost");
      check_bool "tombstone survives" true (expect_get kv2 25 = None))

let test_reader_refresh () =
  let rig = make_rig () in
  Test_util.run_in rig.sim (fun () ->
      let writer = client rig 2 in
      let kv = make_store writer in
      Test_util.check_result_ok "put" (Pm_kv.put kv ~key:1 (Bytes.of_string "hello"));
      let reader = client rig 3 in
      let index = Test_util.ok_or_fail ~msg:"open ix" (Pm_client.open_region reader ~name:"kv-ix") in
      let log = Test_util.ok_or_fail ~msg:"open log" (Pm_client.open_region reader ~name:"kv-log") in
      let rkv = Test_util.ok_or_fail ~msg:"open kv" (Pm_kv.open_existing reader ~index ~log) in
      (match Pm_kv.get rkv ~key:1 with
      | Ok (Some v) -> check_str "reader sees put" "hello" (Bytes.to_string v)
      | _ -> Alcotest.fail "reader get");
      Test_util.check_result_ok "writer adds" (Pm_kv.put kv ~key:2 (Bytes.of_string "more"));
      Test_util.check_result_ok "refresh" (Pm_kv.refresh rkv);
      check_bool "reader sees new key after refresh" true
        (match Pm_kv.get rkv ~key:2 with Ok (Some _) -> true | _ -> false))

let test_fold_range_skips_tombstones () =
  let rig = make_rig () in
  Test_util.run_in rig.sim (fun () ->
      let c = client rig 2 in
      let kv = make_store c in
      for i = 1 to 10 do
        Test_util.check_result_ok "put" (Pm_kv.put kv ~key:i (Bytes.make i 'x'))
      done;
      Test_util.check_result_ok "del" (Pm_kv.delete kv ~key:5);
      match Pm_kv.fold_range kv ~lo:3 ~hi:7 ~init:[] ~f:(fun acc k v -> (k, Bytes.length v) :: acc) with
      | Ok acc ->
          Alcotest.(check (list (pair int int))) "live window"
            [ (7, 7); (6, 6); (4, 4); (3, 3) ]
            acc
      | Error e -> Alcotest.fail (Pm_types.error_to_string e))

let test_log_exhaustion () =
  let rig = make_rig () in
  Test_util.run_in rig.sim (fun () ->
      let c = client rig 2 in
      let kv = make_store ~log_size:4096 c in
      let rec fill i =
        if i > 100 then Alcotest.fail "log never filled"
        else
          match Pm_kv.put kv ~key:i (Bytes.make 512 'v') with
          | Ok () -> fill (i + 1)
          | Error Pm_types.Out_of_space -> ()
          | Error e -> Alcotest.fail (Pm_types.error_to_string e)
      in
      fill 1;
      (* Existing data still readable after a refused put. *)
      check_bool "old data intact" true (expect_get kv 1 <> None))

let prop_kv_matches_hashtbl =
  QCheck.Test.make ~name:"pm_kv behaves like Hashtbl under random ops" ~count:10
    (QCheck.make
       ~print:(fun l -> string_of_int (List.length l))
       QCheck.Gen.(list_size (int_range 1 80) (triple (int_bound 2) (int_bound 40) (int_bound 60))))
    (fun ops ->
      let rig = make_rig () in
      Test_util.run_in rig.sim (fun () ->
          let c = client rig 2 in
          let kv = make_store c in
          let model : (int, Bytes.t) Hashtbl.t = Hashtbl.create 64 in
          let ok = ref true in
          List.iter
            (fun (op, key, len) ->
              match op with
              | 0 ->
                  let v = Bytes.make len (Char.chr (97 + (key mod 26))) in
                  (match Pm_kv.put kv ~key v with
                  | Ok () -> Hashtbl.replace model key v
                  | Error _ -> ok := false)
              | 1 -> (
                  match Pm_kv.delete kv ~key with
                  | Ok () -> Hashtbl.remove model key
                  | Error _ -> ok := false)
              | _ -> (
                  match Pm_kv.get kv ~key with
                  | Ok got ->
                      if got <> Hashtbl.find_opt model key then ok := false
                  | Error _ -> ok := false))
            ops;
          !ok))

let suite =
  [
    ( "pm.kv",
      [
        Alcotest.test_case "put/get/delete" `Quick test_put_get_delete;
        Alcotest.test_case "overwrite returns latest" `Quick test_overwrite_returns_latest;
        Alcotest.test_case "empty values" `Quick test_empty_value;
        Alcotest.test_case "survives power cycle" `Quick test_survives_power_cycle;
        Alcotest.test_case "reader refresh" `Quick test_reader_refresh;
        Alcotest.test_case "fold_range skips tombstones" `Quick test_fold_range_skips_tombstones;
        Alcotest.test_case "value-log exhaustion" `Quick test_log_exhaustion;
        QCheck_alcotest.to_alcotest prop_kv_matches_hashtbl;
      ] );
  ]

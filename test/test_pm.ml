(* Tests for the persistent-memory core: devices, manager, client. *)

open Simkit
open Nsk
open Pm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Crc32 --- *)

let test_crc32_vector () =
  (* Standard IEEE check value. *)
  Alcotest.(check int32) "123456789" 0xCBF43926l (Crc32.string "123456789")

let test_crc32_detects_flip () =
  let b = Bytes.of_string "persistent memory" in
  let c1 = Crc32.bytes b in
  Bytes.set b 3 'X';
  check_bool "differs" true (c1 <> Crc32.bytes b)

(* --- Codec --- *)

let test_codec_roundtrip () =
  let enc = Codec.Enc.create () in
  Codec.Enc.u8 enc 0xAB;
  Codec.Enc.u16 enc 0xBEEF;
  Codec.Enc.u32 enc 0xDEADBEEF;
  Codec.Enc.u64 enc 0x1122334455667788;
  Codec.Enc.str enc "audit";
  Codec.Enc.blob enc (Bytes.of_string "payload");
  let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
  check_int "u8" 0xAB (Codec.Dec.u8 dec);
  check_int "u16" 0xBEEF (Codec.Dec.u16 dec);
  check_int "u32" 0xDEADBEEF (Codec.Dec.u32 dec);
  check_int "u64" 0x1122334455667788 (Codec.Dec.u64 dec);
  check_str "str" "audit" (Codec.Dec.str dec);
  check_str "blob" "payload" (Bytes.to_string (Codec.Dec.blob dec));
  check_int "drained" 0 (Codec.Dec.remaining dec)

let test_codec_truncated () =
  let enc = Codec.Enc.create () in
  Codec.Enc.u16 enc 5;
  let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
  Alcotest.check_raises "truncated" Codec.Dec.Truncated (fun () -> ignore (Codec.Dec.u32 dec))

let prop_codec_ints =
  QCheck.Test.make ~name:"codec u64 roundtrip" ~count:200
    QCheck.(int_bound max_int)
    (fun v ->
      let enc = Codec.Enc.create () in
      Codec.Enc.u64 enc v;
      let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
      Codec.Dec.u64 dec = v)

(* --- Test topology --- *)

type topo = {
  sim : Sim.t;
  node : Node.t;
  npmu_a : Npmu.t;
  npmu_b : Npmu.t;
  pmm : Pmm.t;
}

let make_topo ?(capacity = 1 lsl 20) () =
  let sim = Sim.create ~seed:0x9L () in
  let node = Node.create sim ~cpus:4 () in
  let fabric = Node.fabric node in
  let npmu_a = Npmu.create sim fabric ~name:"npmu-a" ~capacity in
  let npmu_b = Npmu.create sim fabric ~name:"npmu-b" ~capacity in
  let dev_a = Pmm.device_of_npmu npmu_a in
  let dev_b = Pmm.device_of_npmu npmu_b in
  Pmm.format dev_a dev_b;
  let pmm =
    Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Node.cpu node 0) ~backup_cpu:(Node.cpu node 1)
      ~primary_dev:dev_a ~mirror_dev:dev_b ()
  in
  { sim; node; npmu_a; npmu_b; pmm }

let client topo cpu_idx =
  Pm_client.attach ~cpu:(Node.cpu topo.node cpu_idx) ~fabric:(Node.fabric topo.node)
    ~pmm:(Pmm.server topo.pmm) ()

(* --- Npmu / Pmp --- *)

let test_npmu_survives_power_loss () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:4096) in
      Test_util.check_result_ok "write" (Pm_client.write c h ~off:0 ~data:(Bytes.of_string "durable!"));
      Npmu.power_loss topo.npmu_a;
      Npmu.power_loss topo.npmu_b;
      check_bool "off fabric" false (Npmu.is_powered topo.npmu_a);
      Npmu.power_restore topo.npmu_a;
      Npmu.power_restore topo.npmu_b;
      match Pm_client.read c h ~off:0 ~len:8 with
      | Ok data -> check_str "contents survive" "durable!" (Bytes.to_string data)
      | Error _ -> Alcotest.fail "read after power cycle failed")

let test_pmp_loses_contents () =
  let sim = Sim.create () in
  let node = Node.create sim ~cpus:2 () in
  let fabric = Node.fabric node in
  let pmp = Pmp.create (Node.cpu node 1) fabric ~name:"pmp" ~capacity:4096 in
  Test_util.check_result_ok "map"
    (Servernet.Avt.map (Pmp.avt pmp) ~net_base:0 ~length:4096 ~phys_base:0
       ~access:(Servernet.Avt.read_write Servernet.Avt.Any_initiator));
  Test_util.run_in sim (fun () ->
      let src = Cpu.endpoint (Node.cpu node 0) in
      Test_util.check_result_ok "write"
        (Servernet.Fabric.rdma_write fabric ~src ~dst:(Pmp.id pmp) ~addr:0
           ~data:(Bytes.of_string "volatile"));
      check_str "stored" "volatile" (Bytes.to_string (Pmp.peek pmp ~off:0 ~len:8));
      Pmp.power_loss pmp;
      check_bool "dead" false (Pmp.is_alive pmp);
      check_str "contents gone" (String.make 8 '\000') (Bytes.to_string (Pmp.peek pmp ~off:0 ~len:8)))

let test_pmp_dies_with_cpu () =
  let sim = Sim.create () in
  let node = Node.create sim ~cpus:2 () in
  let pmp = Pmp.create (Node.cpu node 1) (Node.fabric node) ~name:"pmp" ~capacity:1024 in
  Sim.at sim ~after:(Time.ms 1) (fun () -> Cpu.fail (Node.cpu node 1));
  Sim.run sim;
  check_bool "pmp died with its cpu" false (Pmp.is_alive pmp)

(* --- Pmm + Pm_client happy paths --- *)

let test_create_write_read () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"log" ~size:65536)
      in
      let info = Pm_client.info h in
      check_int "size" 65536 info.Pm_types.length;
      check_bool "data area starts past metadata" true
        (info.Pm_types.net_base >= Pmm.meta_reserve);
      let data = Bytes.of_string "transaction-audit-record" in
      Test_util.check_result_ok "write" (Pm_client.write c h ~off:128 ~data);
      (match Pm_client.read c h ~off:128 ~len:(Bytes.length data) with
      | Ok back -> check_str "roundtrip" (Bytes.to_string data) (Bytes.to_string back)
      | Error _ -> Alcotest.fail "read failed");
      (* Both mirrors hold the data at the same physical offset. *)
      let phys = info.Pm_types.net_base + 128 in
      check_str "on npmu-a" (Bytes.to_string data)
        (Bytes.to_string (Npmu.peek topo.npmu_a ~off:phys ~len:(Bytes.length data)));
      check_str "on npmu-b" (Bytes.to_string data)
        (Bytes.to_string (Npmu.peek topo.npmu_b ~off:phys ~len:(Bytes.length data))))

let test_write_latency_is_tens_of_us () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192) in
      let t0 = Sim.now topo.sim in
      Test_util.check_result_ok "write" (Pm_client.write c h ~off:0 ~data:(Bytes.create 4096));
      let dt = Sim.now topo.sim - t0 in
      (* Mirrored 4K write: 2 RDMA ops, each tens of us — far below 1 ms. *)
      check_bool "fast persistence" true (dt >= Time.us 20 && dt < Time.us 200))

let test_create_duplicate_rejected () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let _ = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"dup" ~size:4096) in
      match Pm_client.create_region c ~name:"dup" ~size:4096 with
      | Error Pm_types.Region_exists -> ()
      | _ -> Alcotest.fail "duplicate create accepted")

let test_out_of_space () =
  let topo = make_topo ~capacity:(256 * 1024) () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      (* Capacity minus 64K metadata reserve leaves 192K. *)
      let _ = Test_util.ok_or_fail ~msg:"r1" (Pm_client.create_region c ~name:"r1" ~size:(128 * 1024)) in
      match Pm_client.create_region c ~name:"r2" ~size:(128 * 1024) with
      | Error Pm_types.Out_of_space -> ()
      | _ -> Alcotest.fail "expected Out_of_space")

let test_delete_and_reuse_space () =
  let topo = make_topo ~capacity:(256 * 1024) () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = Test_util.ok_or_fail ~msg:"r1" (Pm_client.create_region c ~name:"r1" ~size:(128 * 1024)) in
      Test_util.check_result_ok "close" (Pm_client.close_region c h);
      Test_util.check_result_ok "delete" (Pm_client.delete_region c ~name:"r1");
      let _ = Test_util.ok_or_fail ~msg:"reuse" (Pm_client.create_region c ~name:"r2" ~size:(128 * 1024)) in
      ())

let test_delete_busy_region () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let _ = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"busy" ~size:4096) in
      match Pm_client.delete_region c ~name:"busy" with
      | Error Pm_types.Region_busy -> ()
      | _ -> Alcotest.fail "busy delete accepted")

let test_open_unknown_region () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      match Pm_client.open_region c ~name:"ghost" with
      | Error Pm_types.No_such_region -> ()
      | _ -> Alcotest.fail "expected No_such_region")

let test_access_requires_open () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let creator = client topo 2 in
      let stranger = client topo 3 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region creator ~name:"priv" ~size:4096)
      in
      Test_util.check_result_ok "creator write"
        (Pm_client.write creator h ~off:0 ~data:(Bytes.of_string "mine"));
      (* The stranger knows the address but has no AVT rights until Open. *)
      let stolen = { (Pm_client.info h) with Pm_types.region_name = "priv" } in
      ignore stolen;
      (match Pm_client.write stranger h ~off:0 ~data:(Bytes.of_string "theirs") with
      | Error Pm_types.Permission_denied -> ()
      | Ok () -> Alcotest.fail "unauthorized write accepted"
      | Error e -> Alcotest.failf "unexpected error: %s" (Pm_types.error_to_string e));
      let h2 = Test_util.ok_or_fail ~msg:"open" (Pm_client.open_region stranger ~name:"priv") in
      Test_util.check_result_ok "after open" (Pm_client.write stranger h2 ~off:0 ~data:(Bytes.of_string "ours")))

let test_bounds_checked () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"b" ~size:1024) in
      (match Pm_client.write c h ~off:1020 ~data:(Bytes.create 8) with
      | Error (Pm_types.Bad_request _) -> ()
      | _ -> Alcotest.fail "oob write accepted");
      match Pm_client.read c h ~off:(-4) ~len:8 with
      | Error (Pm_types.Bad_request _) -> ()
      | _ -> Alcotest.fail "negative offset accepted")

let test_list_regions () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let _ = Test_util.ok_or_fail ~msg:"a" (Pm_client.create_region c ~name:"a" ~size:4096) in
      let _ = Test_util.ok_or_fail ~msg:"b" (Pm_client.create_region c ~name:"b" ~size:4096) in
      match Pm_client.list_regions c with
      | Ok rs ->
          Alcotest.(check (list string))
            "names" [ "a"; "b" ]
            (List.sort compare (List.map (fun r -> r.Pm_types.region_name) rs))
      | Error _ -> Alcotest.fail "list failed")

(* --- Mirroring and degradation --- *)

let test_degraded_write_survives_one_npmu () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"m" ~size:4096) in
      Npmu.power_loss topo.npmu_a;
      Test_util.check_result_ok "degraded write ok"
        (Pm_client.write c h ~off:0 ~data:(Bytes.of_string "half"));
      check_int "degraded count" 1 (Pm_client.degraded_writes c);
      (* Reads fail over to the survivor. *)
      (match Pm_client.read c h ~off:0 ~len:4 with
      | Ok d -> check_str "failover read" "half" (Bytes.to_string d)
      | Error _ -> Alcotest.fail "failover read failed");
      Npmu.power_loss topo.npmu_b;
      match Pm_client.write c h ~off:0 ~data:(Bytes.of_string "none") with
      | Error Pm_types.Device_failed -> ()
      | _ -> Alcotest.fail "write with both devices down accepted")

let test_unmirrored_ablation () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let cpu = Node.cpu topo.node 2 in
      let cfg = { Pm_client.default_config with mirrored_writes = false } in
      let c =
        Pm_client.attach ~cpu ~fabric:(Node.fabric topo.node) ~pmm:(Pmm.server topo.pmm)
          ~config:cfg ()
      in
      let h = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"u" ~size:4096) in
      let t0 = Sim.now topo.sim in
      Test_util.check_result_ok "write" (Pm_client.write c h ~off:0 ~data:(Bytes.create 4096));
      let unmirrored = Sim.now topo.sim - t0 in
      let c2 = client topo 3 in
      let h2 = Test_util.ok_or_fail ~msg:"open" (Pm_client.open_region c2 ~name:"u") in
      let t1 = Sim.now topo.sim in
      Test_util.check_result_ok "write2" (Pm_client.write c2 h2 ~off:0 ~data:(Bytes.create 4096));
      let mirrored = Sim.now topo.sim - t1 in
      check_bool "mirroring costs roughly 2x" true (mirrored > unmirrored * 3 / 2))

(* --- Metadata durability and recovery --- *)

let test_metadata_survives_pmm_restart () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"keep" ~size:8192) in
      Test_util.check_result_ok "write" (Pm_client.write c h ~off:0 ~data:(Bytes.of_string "precious"));
      (* Tear the whole manager down; devices keep metadata + data. *)
      Procpair.halt (Pmm.pair topo.pmm);
      Sim.sleep (Time.ms 10);
      let pmm2 =
        Pmm.start ~fabric:(Node.fabric topo.node) ~name:"$PMM2"
          ~primary_cpu:(Node.cpu topo.node 2) ~backup_cpu:(Node.cpu topo.node 3)
          ~primary_dev:(Pmm.device_of_npmu topo.npmu_a)
          ~mirror_dev:(Pmm.device_of_npmu topo.npmu_b) ()
      in
      let c2 =
        Pm_client.attach ~cpu:(Node.cpu topo.node 3) ~fabric:(Node.fabric topo.node)
          ~pmm:(Pmm.server pmm2) ()
      in
      let h2 = Test_util.ok_or_fail ~msg:"reopen" (Pm_client.open_region c2 ~name:"keep") in
      (match Pm_client.read c2 h2 ~off:0 ~len:8 with
      | Ok d -> check_str "data intact" "precious" (Bytes.to_string d)
      | Error _ -> Alcotest.fail "read after recovery failed");
      match Pmm.last_recovery_time pmm2 with
      | Some dt -> check_bool "recovery took real time" true (dt > 0)
      | None -> Alcotest.fail "no recovery recorded")

let test_pmm_takeover_keeps_metadata () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let _ = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"ha" ~size:4096) in
      Cpu.fail (Node.cpu topo.node 0);
      Sim.sleep (Time.sec 1);
      (* The promoted backup must still know the region. *)
      let h = Test_util.ok_or_fail ~msg:"open after takeover" (Pm_client.open_region c ~name:"ha") in
      Test_util.check_result_ok "write after takeover"
        (Pm_client.write c h ~off:0 ~data:(Bytes.of_string "alive"));
      check_int "one takeover" 1 (Procpair.takeovers (Pmm.pair topo.pmm)))

let test_torn_metadata_slot_recovers_older () =
  (* Corrupt the newest slot on both devices: recovery must fall back to
     the older generation instead of failing. *)
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let _ = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"a" ~size:4096) in
      let _ = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"b" ~size:4096) in
      Procpair.halt (Pmm.pair topo.pmm);
      Sim.sleep (Time.ms 1);
      (* Generation counter: format wrote gen 1 in both slots; creates made
         gens 2 ("a") and 3 ("a","b").  Tear gen 3 (slot 1). *)
      let meta_half = Pmm.meta_reserve / 2 in
      let garbage = Bytes.make 64 '\xFF' in
      Npmu.poke topo.npmu_a ~off:meta_half ~data:garbage;
      Npmu.poke topo.npmu_b ~off:meta_half ~data:garbage;
      let pmm2 =
        Pmm.start ~fabric:(Node.fabric topo.node) ~name:"$PMM2"
          ~primary_cpu:(Node.cpu topo.node 2) ~backup_cpu:(Node.cpu topo.node 3)
          ~primary_dev:(Pmm.device_of_npmu topo.npmu_a)
          ~mirror_dev:(Pmm.device_of_npmu topo.npmu_b) ()
      in
      let c2 =
        Pm_client.attach ~cpu:(Node.cpu topo.node 3) ~fabric:(Node.fabric topo.node)
          ~pmm:(Pmm.server pmm2) ()
      in
      (* Gen 2 knew "a" but not "b". *)
      let _ = Test_util.ok_or_fail ~msg:"a survives" (Pm_client.open_region c2 ~name:"a") in
      match Pm_client.open_region c2 ~name:"b" with
      | Error Pm_types.No_such_region -> ()
      | _ -> Alcotest.fail "torn region resurrected")

let suite =
  [
    ( "pm.crc32",
      [
        Alcotest.test_case "IEEE check vector" `Quick test_crc32_vector;
        Alcotest.test_case "detects bit flips" `Quick test_crc32_detects_flip;
      ] );
    ( "pm.codec",
      [
        Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "truncation detected" `Quick test_codec_truncated;
        QCheck_alcotest.to_alcotest prop_codec_ints;
      ] );
    ( "pm.devices",
      [
        Alcotest.test_case "NPMU survives power loss" `Quick test_npmu_survives_power_loss;
        Alcotest.test_case "PMP prototype loses contents" `Quick test_pmp_loses_contents;
        Alcotest.test_case "PMP dies with its CPU" `Quick test_pmp_dies_with_cpu;
      ] );
    ( "pm.client",
      [
        Alcotest.test_case "create/write/read on both mirrors" `Quick test_create_write_read;
        Alcotest.test_case "write latency tens of microseconds" `Quick test_write_latency_is_tens_of_us;
        Alcotest.test_case "duplicate create rejected" `Quick test_create_duplicate_rejected;
        Alcotest.test_case "out of space" `Quick test_out_of_space;
        Alcotest.test_case "delete frees space for reuse" `Quick test_delete_and_reuse_space;
        Alcotest.test_case "busy region cannot be deleted" `Quick test_delete_busy_region;
        Alcotest.test_case "open unknown region" `Quick test_open_unknown_region;
        Alcotest.test_case "AVT rights require open" `Quick test_access_requires_open;
        Alcotest.test_case "bounds checked client-side" `Quick test_bounds_checked;
        Alcotest.test_case "list regions" `Quick test_list_regions;
      ] );
    ( "pm.mirroring",
      [
        Alcotest.test_case "degraded write survives one NPMU" `Quick
          test_degraded_write_survives_one_npmu;
        Alcotest.test_case "unmirrored ablation is cheaper" `Quick test_unmirrored_ablation;
      ] );
    ( "pm.recovery",
      [
        Alcotest.test_case "metadata survives PMM restart" `Quick test_metadata_survives_pmm_restart;
        Alcotest.test_case "PMM takeover keeps metadata" `Quick test_pmm_takeover_keeps_metadata;
        Alcotest.test_case "torn slot falls back a generation" `Quick
          test_torn_metadata_slot_recovers_older;
      ] );
  ]

(* --- PMM close/delete edges and the region-table bound --- *)

let restart_pmm topo =
  Procpair.halt (Pmm.pair topo.pmm);
  Sim.sleep (Time.ms 1);
  let pmm2 =
    Pmm.start ~fabric:(Node.fabric topo.node) ~name:"$PMM2" ~primary_cpu:(Node.cpu topo.node 2)
      ~backup_cpu:(Node.cpu topo.node 3)
      ~primary_dev:(Pmm.device_of_npmu topo.npmu_a)
      ~mirror_dev:(Pmm.device_of_npmu topo.npmu_b) ()
  in
  Pm_client.attach ~cpu:(Node.cpu topo.node 3) ~fabric:(Node.fabric topo.node)
    ~pmm:(Pmm.server pmm2) ()

(* The region table fits in the front eighth of a metadata slot (8 KiB).
   A create whose name cannot fit, or whose table would outgrow that area,
   is refused with nothing written: the device health flags stay as they
   were, and a restarted manager still finds every earlier region. *)
let test_region_table_bound names () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let _ = Test_util.ok_or_fail ~msg:"a" (Pm_client.create_region c ~name:"a" ~size:4096) in
      let _ = Test_util.ok_or_fail ~msg:"b" (Pm_client.create_region c ~name:"b" ~size:4096) in
      (* Every name but the last fits; the last is refused. *)
      let rec create kept = function
        | [] -> Alcotest.fail "no name was refused"
        | [ n ] -> (
            match Pm_client.create_region c ~name:(String.make n 'x') ~size:4096 with
            | Error (Pm_types.Bad_request msg) ->
                check_str "names the limit" "region table limited to 8192 bytes" msg;
                kept
            | Ok _ -> Alcotest.failf "%d-byte name accepted" n
            | Error e -> Alcotest.failf "unexpected error: %s" (Pm_types.error_to_string e))
        | n :: rest ->
            let name = String.make n (Char.chr (Char.code 'c' + List.length rest)) in
            let _ = Test_util.ok_or_fail ~msg:"fits" (Pm_client.create_region c ~name ~size:4096) in
            create (name :: kept) rest
      in
      let kept = create [ "a"; "b" ] names in
      check_bool "health flags untouched" false (Pmm.degraded topo.pmm);
      let c2 = restart_pmm topo in
      List.iter
        (fun name ->
          let _ = Test_util.ok_or_fail ~msg:"reopen" (Pm_client.open_region c2 ~name) in
          ())
        kept)

(* An open that adds one opener to a full table is refused too.  The
   frame header (20 bytes), the region count, two one-letter regions with
   one opener each, the generation and the epoch take 84 bytes, so an
   8,108-byte name fills the table to exactly 8 KiB. *)
let test_open_outgrowing_table () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let big = String.make 8_108 'z' in
      List.iter
        (fun name ->
          let _ = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name ~size:4096) in
          ())
        [ "a"; "b"; big ];
      (match Pm_client.open_region (client topo 3) ~name:big with
      | Error (Pm_types.Bad_request msg) ->
          check_str "names the limit" "region table limited to 8192 bytes" msg
      | Ok _ -> Alcotest.fail "open outgrew the table"
      | Error e -> Alcotest.failf "unexpected error: %s" (Pm_types.error_to_string e));
      match Pm_client.list_regions (restart_pmm topo) with
      | Ok rs -> check_int "every region survives" 3 (List.length rs)
      | Error _ -> Alcotest.fail "list after restart failed")

let test_close_unknown_region () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      match
        Msgsys.call (Pmm.server topo.pmm) ~from:(Node.cpu topo.node 2)
          (Pmm.Close { rname = "ghost"; client = 0 })
      with
      | Ok (Pmm.R_error Pm_types.No_such_region) -> ()
      | _ -> Alcotest.fail "expected No_such_region")

let test_list_after_delete () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = Test_util.ok_or_fail ~msg:"a" (Pm_client.create_region c ~name:"a" ~size:4096) in
      let _ = Test_util.ok_or_fail ~msg:"b" (Pm_client.create_region c ~name:"b" ~size:4096) in
      Test_util.check_result_ok "close" (Pm_client.close_region c h);
      Test_util.check_result_ok "delete" (Pm_client.delete_region c ~name:"a");
      match Pm_client.list_regions c with
      | Ok [ r ] -> Alcotest.(check string) "only b" "b" r.Pm_types.region_name
      | _ -> Alcotest.fail "unexpected listing")

let pmm_edge_cases =
  [
    Alcotest.test_case "close unknown region" `Quick test_close_unknown_region;
    Alcotest.test_case "list after delete" `Quick test_list_after_delete;
    Alcotest.test_case "9000-byte name refused" `Quick (test_region_table_bound [ 9_000 ]);
    Alcotest.test_case "40000-byte name refused" `Quick (test_region_table_bound [ 40_000 ]);
    Alcotest.test_case "70000-byte name refused" `Quick (test_region_table_bound [ 70_000 ]);
    Alcotest.test_case "full region table refused" `Quick
      (test_region_table_bound [ 5_000; 5_000 ]);
    Alcotest.test_case "open outgrowing the table refused" `Quick test_open_outgrowing_table;
  ]

let suite = suite @ [ ("pm.manager_edges", pmm_edge_cases) ]

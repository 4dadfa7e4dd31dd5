(* Second corner-case sweep: protocol edges of TMF/Dtx, message-system
   link latency, client counters, small cases. *)

open Simkit
open Nsk
open Tp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let in_system ?(cfg = System.default_config) ~seed f =
  let sim = Sim.create ~seed () in
  let out = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let system = System.build sim cfg in
        out := Some (f system))
  in
  Sim.run sim;
  match !out with Some v -> v | None -> Alcotest.fail "run incomplete"

(* --- TMF protocol edges --- *)

let test_commit_unknown_txn () =
  in_system ~seed:0x1AL (fun system ->
      let tmf = Tmf.server (System.tmf system) in
      let cpu = Node.cpu (System.node system) 2 in
      match Msgsys.call tmf ~from:cpu (Tmf.Commit_txn { txn = 999; flushes = []; involved = [] }) with
      | Ok (Tmf.T_failed _) -> ()
      | _ -> Alcotest.fail "unknown txn committed")

let test_decide_unprepared_txn () =
  in_system ~seed:0x1BL (fun system ->
      let tmf = Tmf.server (System.tmf system) in
      let cpu = Node.cpu (System.node system) 2 in
      match Msgsys.call tmf ~from:cpu (Tmf.Decide_txn { txn = 5; commit = true }) with
      | Ok (Tmf.T_failed _) -> ()
      | _ -> Alcotest.fail "unprepared decision accepted")

let test_prepared_txn_not_active () =
  in_system ~seed:0x1CL (fun system ->
      let session = System.session system ~cpu:2 in
      let txn = Test_util.ok_or_fail ~msg:"begin" (Txclient.begin_txn session) in
      Test_util.check_result_ok "insert" (Txclient.insert session txn ~file:0 ~key:3 ~len:64 ());
      Test_util.check_result_ok "prepare" (Txclient.prepare session txn);
      let tmf = System.tmf system in
      check_int "moved out of active" 0 (List.length (Tmf.active_txns tmf));
      check_int "into prepared" 1 (List.length (Tmf.prepared_txns tmf));
      (* Deciding commit finishes it. *)
      Test_util.check_result_ok "decide" (Txclient.decide session txn ~commit:true);
      check_int "resolved" 0 (List.length (Tmf.prepared_txns tmf));
      check_int "counted as committed" 1 (Tmf.committed tmf))

let test_prepared_locks_block_until_decision () =
  in_system ~seed:0x1DL (fun system ->
      let s1 = System.session system ~cpu:2 in
      let s2 = System.session system ~cpu:3 in
      let node = System.node system in
      let t1 = Test_util.ok_or_fail ~msg:"b1" (Txclient.begin_txn s1) in
      Test_util.check_result_ok "i1" (Txclient.insert s1 t1 ~file:0 ~key:11 ~len:64 ());
      Test_util.check_result_ok "prep" (Txclient.prepare s1 t1);
      (* A second writer wants the key; it must wait for the decision. *)
      let second_done = ref Time.zero in
      let g = Gate.create 1 in
      ignore
        (Cpu.spawn (Node.cpu node 3) ~name:"w2" (fun () ->
             let t2 = Test_util.ok_or_fail ~msg:"b2" (Txclient.begin_txn s2) in
             Test_util.check_result_ok "i2" (Txclient.insert s2 t2 ~file:0 ~key:11 ~len:64 ());
             Test_util.check_result_ok "c2" (Txclient.commit s2 t2);
             second_done := Sim.now (System.sim system);
             Gate.arrive g));
      Sim.sleep (Time.ms 80);
      let decided_at = Sim.now (System.sim system) in
      Test_util.check_result_ok "decide" (Txclient.decide s1 t1 ~commit:true);
      Gate.await g;
      check_bool "second writer waited for the decision" true (!second_done > decided_at))

(* --- Msgsys link latency --- *)

let test_msgsys_extra_latency () =
  let sim = Sim.create () in
  let node = Node.create sim ~cpus:2 () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"echo" in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 0) ~name:"server" (fun () ->
        while true do
          let req, respond = Msgsys.next_request server in
          respond req
        done)
  in
  let run () =
    let out = ref Time.zero in
    let (_ : Sim.pid) =
      Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
          let t0 = Sim.now sim in
          (match Msgsys.call server ~from:(Node.cpu node 1) 1 with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "call failed");
          out := Sim.now sim - t0)
    in
    Sim.run sim;
    !out
  in
  let base = run () in
  Msgsys.set_extra_latency server (Time.ms 1);
  let slow = run () in
  check_bool
    (Printf.sprintf "RTT grew by ~2ms (base %s, slow %s)" (Time.to_string base)
       (Time.to_string slow))
    true
    (slow >= base + Time.ms 2)

(* --- Pm_client degraded/latency counters --- *)

let test_pm_client_write_latency_stat () =
  let sim = Sim.create ~seed:0x2AL () in
  let node = Node.create sim ~cpus:3 () in
  let fabric = Node.fabric node in
  let done_ = ref false in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let a = Pm.Npmu.create sim fabric ~name:"a" ~capacity:(1 lsl 20) in
        let b = Pm.Npmu.create sim fabric ~name:"b" ~capacity:(1 lsl 20) in
        let da = Pm.Pmm.device_of_npmu a in
        let db = Pm.Pmm.device_of_npmu b in
        Pm.Pmm.format da db;
        let pmm =
          Pm.Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Node.cpu node 0)
            ~backup_cpu:(Node.cpu node 1) ~primary_dev:da ~mirror_dev:db ()
        in
        let c = Pm.Pm_client.attach ~cpu:(Node.cpu node 2) ~fabric ~pmm:(Pm.Pmm.server pmm) () in
        let h = Test_util.ok_or_fail ~msg:"region" (Pm.Pm_client.create_region c ~name:"r" ~size:8192) in
        for _ = 1 to 10 do
          Test_util.check_result_ok "write" (Pm.Pm_client.write c h ~off:0 ~data:(Bytes.create 512))
        done;
        let stat = Pm.Pm_client.write_latency c in
        check_int "ten samples" 10 (Stat.count stat);
        check_bool "mean in tens of microseconds" true
          (Stat.mean stat > 10e3 && Stat.mean stat < 200e3);
        done_ := true)
  in
  Sim.run sim;
  check_bool "ran" true !done_

(* --- Trail archiver --- *)

let test_trail_archiver_bounds_replay () =
  in_system ~seed:0x3AL (fun system ->
      System.start_trail_archiver system ~interval:(Time.ms 200) ~rounds:8 ();
      let session = System.session system ~cpu:2 in
      for k = 1 to 30 do
        let txn = Test_util.ok_or_fail ~msg:"begin" (Txclient.begin_txn session) in
        Test_util.check_result_ok "insert" (Txclient.insert session txn ~file:0 ~key:k ~len:256 ());
        Test_util.check_result_ok "commit" (Txclient.commit session txn)
      done;
      (* Let the archiver finish its sweeps, then check the replayable
         windows shrank below the full history. *)
      Sim.sleep (Time.sec 2);
      let replayable =
        Array.fold_left
          (fun acc adp ->
            match Log_backend.recovery_read (Adp.backend adp) with
            | Ok records -> acc + List.length records
            | Error _ -> acc)
          0 (System.adps system)
      in
      check_bool
        (Printf.sprintf "trails trimmed (%d records left of 30+)" replayable)
        true (replayable < 30))

let suite =
  [
    ( "tp.protocol_edges",
      [
        Alcotest.test_case "commit of unknown txn refused" `Quick test_commit_unknown_txn;
        Alcotest.test_case "decide of unprepared txn refused" `Quick test_decide_unprepared_txn;
        Alcotest.test_case "prepare moves txn to in-doubt set" `Quick test_prepared_txn_not_active;
        Alcotest.test_case "prepared locks block until decision" `Quick
          test_prepared_locks_block_until_decision;
      ] );
    ( "edges.msgsys",
      [ Alcotest.test_case "extra link latency applies both ways" `Quick test_msgsys_extra_latency ] );
    ( "edges.pm_client",
      [ Alcotest.test_case "write latency statistics" `Quick test_pm_client_write_latency_stat ] );
    ( "edges.archiver",
      [ Alcotest.test_case "archiver bounds the replayable trail" `Quick test_trail_archiver_bounds_replay ] );
  ]

(* --- Extras --- *)

let test_time_roundtrips () =
  check_int "ms of us" (Time.ms 3) (Time.us 3000);
  Alcotest.(check (float 1e-9)) "to_ms" 2.5 (Time.to_ms (Time.us 2500));
  check_int "sec_f" (Time.ms 1500) (Time.sec_f 1.5)

let extra2_cases =
  [
    Alcotest.test_case "time conversions" `Quick test_time_roundtrips;
  ]

let suite = suite @ [ ("edges.more", extra2_cases) ]

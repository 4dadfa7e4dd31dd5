(* Corner-case tests across the substrate: argument validation, failure
   exhaustion paths, counters, and the PM trail ring. *)

open Simkit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Sim --- *)

let test_sim_stop () =
  let sim = Sim.create () in
  let ran = ref 0 in
  Sim.at sim ~after:(Time.us 1) (fun () ->
      incr ran;
      Sim.stop sim);
  Sim.at sim ~after:(Time.us 2) (fun () -> incr ran);
  Sim.run sim;
  check_int "stopped after first event" 1 !ran;
  (* A later run resumes the queue. *)
  Sim.run sim;
  check_int "resumed" 2 !ran

let test_sim_rejects_past_and_negative () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative after" (Invalid_argument "Sim.at: negative span") (fun () ->
      Sim.at sim ~after:(-1) (fun () -> ()));
  Sim.at sim ~after:(Time.ms 1) (fun () ->
      Alcotest.check_raises "past time" (Invalid_argument "Sim: scheduling in the past")
        (fun () -> Sim.at_time sim ~time:0 (fun () -> ())));
  Sim.run sim

let test_sim_live_process_accounting () =
  let sim = Sim.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let pid = Sim.spawn sim ~name:"p" (fun () -> ignore (Mailbox.recv mb)) in
  check_int "one live" 1 (Sim.live_processes sim);
  Sim.run sim;
  check_int "still live while blocked" 1 (Sim.live_processes sim);
  Sim.kill sim pid;
  check_int "none after kill" 0 (Sim.live_processes sim)

let test_double_kill_is_noop () =
  let sim = Sim.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let pid = Sim.spawn sim ~name:"p" (fun () -> ignore (Mailbox.recv mb)) in
  Sim.run sim;
  Sim.kill sim pid;
  Sim.kill sim pid;
  check_bool "dead" false (Sim.is_alive sim pid)

let test_on_exit_after_death_fires_immediately () =
  let sim = Sim.create () in
  let pid = Sim.spawn sim ~name:"quick" (fun () -> ()) in
  Sim.run sim;
  let fired = ref false in
  Sim.on_exit sim pid (fun _ -> fired := true);
  check_bool "late hook fires" true !fired

(* --- Cpu restart --- *)

let test_cpu_restart () =
  let sim = Sim.create () in
  let node = Nsk.Node.create sim ~cpus:2 () in
  let cpu = Nsk.Node.cpu node 1 in
  Nsk.Cpu.fail cpu;
  check_bool "down" false (Nsk.Cpu.is_up cpu);
  Nsk.Cpu.restart cpu;
  check_bool "up again" true (Nsk.Cpu.is_up cpu);
  (* New processes may be spawned after restart. *)
  let ran = ref false in
  let (_ : Sim.pid) = Nsk.Cpu.spawn cpu ~name:"reborn" (fun () -> ran := true) in
  Sim.run sim;
  check_bool "spawn works" true !ran

(* --- Fabric failure exhaustion --- *)

let test_crc_exhaustion_fails () =
  let sim = Sim.create ~seed:3L () in
  let config = { Servernet.Fabric.default_config with crc_error_rate = 0.97; max_retries = 1 } in
  let fabric = Servernet.Fabric.create sim ~config () in
  let a = Servernet.Fabric.attach fabric ~name:"a" ~store:(Servernet.Fabric.byte_store 64) in
  let b = Servernet.Fabric.attach fabric ~name:"b" ~store:(Servernet.Fabric.byte_store 65536) in
  (match
     Servernet.Avt.map (Servernet.Fabric.avt b) ~net_base:0 ~length:65536 ~phys_base:0
       ~access:(Servernet.Avt.read_write Servernet.Avt.Any_initiator)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let saw_failure = ref false in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"w" (fun () ->
        (* With a 97% corruption rate some 16-packet transfer exhausts its
           retries quickly. *)
        for _ = 1 to 20 do
          match
            Servernet.Fabric.rdma_write fabric ~src:a ~dst:(Servernet.Fabric.id b) ~addr:0
              ~data:(Bytes.create 8192)
          with
          | Error Servernet.Fabric.Crc_failure -> saw_failure := true
          | Ok () | Error _ -> ()
        done)
  in
  Sim.run sim;
  check_bool "retries exhausted at least once" true !saw_failure;
  check_bool "failures counted" true ((Servernet.Fabric.stats fabric).Servernet.Fabric.failures > 0)

let test_unknown_endpoint_unreachable () =
  let sim = Sim.create () in
  let fabric = Servernet.Fabric.create sim () in
  let a = Servernet.Fabric.attach fabric ~name:"a" ~store:(Servernet.Fabric.byte_store 64) in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"w" (fun () ->
        match Servernet.Fabric.rdma_read fabric ~src:a ~dst:999 ~addr:0 ~len:4 with
        | Error Servernet.Fabric.Unreachable -> ()
        | _ -> Alcotest.fail "expected Unreachable")
  in
  Sim.run sim

(* --- Stat counters --- *)

let test_stat_counter () =
  let c = Stat.Counter.create () in
  Stat.Counter.incr c;
  Stat.Counter.add c 5;
  check_int "value" 6 (Stat.Counter.get c)

(* --- Log backend: PM ring wrap --- *)

let test_pm_ring_wraps_without_error () =
  let sim = Sim.create ~seed:0x21BL () in
  let node = Nsk.Node.create sim ~cpus:3 () in
  let fabric = Nsk.Node.fabric node in
  let done_ = ref false in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let a = Pm.Npmu.create sim fabric ~name:"a" ~capacity:(1 lsl 20) in
        let b = Pm.Npmu.create sim fabric ~name:"b" ~capacity:(1 lsl 20) in
        let da = Pm.Pmm.device_of_npmu a in
        let db = Pm.Pmm.device_of_npmu b in
        Pm.Pmm.format da db;
        let pmm =
          Pm.Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Nsk.Node.cpu node 0)
            ~backup_cpu:(Nsk.Node.cpu node 1) ~primary_dev:da ~mirror_dev:db ()
        in
        let client =
          Pm.Pm_client.attach ~cpu:(Nsk.Node.cpu node 2) ~fabric ~pmm:(Pm.Pmm.server pmm) ()
        in
        (* An 8 KiB ring fed 100 x ~300 B records wraps many times. *)
        let handle =
          Test_util.ok_or_fail ~msg:"region"
            (Pm.Pm_client.create_region client ~name:"ring" ~size:8192)
        in
        let backend = Tp.Log_backend.pm client handle in
        for i = 1 to 100 do
          match
            Tp.Log_backend.write_records backend
              [ (i, Tp.Audit.Update
                   { txn = i; file = 0; partition = 0; key = i; payload_len = 256;
                     payload_crc = i; before_len = 0 }) ]
          with
          | Ok () -> ()
          | Error e -> Alcotest.fail e
        done;
        (* Recovery still parses a consistent prefix of the latest lap. *)
        (match Tp.Log_backend.recovery_read backend with
        | Ok records -> check_bool "some records recovered" true (List.length records > 0)
        | Error e -> Alcotest.fail e);
        done_ := true)
  in
  Sim.run sim;
  check_bool "completed" true !done_

let suite =
  [
    ( "edges.sim",
      [
        Alcotest.test_case "stop pauses the run" `Quick test_sim_stop;
        Alcotest.test_case "negative/past scheduling rejected" `Quick
          test_sim_rejects_past_and_negative;
        Alcotest.test_case "live process accounting" `Quick test_sim_live_process_accounting;
        Alcotest.test_case "double kill is a no-op" `Quick test_double_kill_is_noop;
        Alcotest.test_case "late exit hooks fire immediately" `Quick
          test_on_exit_after_death_fires_immediately;
      ] );
    ( "edges.cpu",
      [ Alcotest.test_case "restart brings a CPU back" `Quick test_cpu_restart ] );
    ( "edges.fabric",
      [
        Alcotest.test_case "CRC retry exhaustion" `Quick test_crc_exhaustion_fails;
        Alcotest.test_case "unknown endpoint unreachable" `Quick test_unknown_endpoint_unreachable;
      ] );
    ( "edges.stat",
      [
        Alcotest.test_case "counters" `Quick test_stat_counter;
      ] );
    ( "edges.pm_ring",
      [ Alcotest.test_case "trail ring wraps and re-parses" `Quick test_pm_ring_wraps_without_error ] );
  ]

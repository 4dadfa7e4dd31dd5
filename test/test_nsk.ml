(* Tests for the NSK layer: CPUs, message system, process pairs. *)

open Simkit
open Nsk

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_node ?(cpus = 4) () =
  let sim = Sim.create ~seed:0x42L () in
  let node = Node.create sim ~cpus () in
  (sim, node)

(* --- Cpu --- *)

let test_cpu_execute_serializes () =
  let sim, node = make_node () in
  let cpu = Node.cpu node 0 in
  let finish = ref Time.zero in
  let worker () =
    Cpu.execute cpu (Time.ms 1);
    finish := max !finish (Sim.now sim)
  in
  let (_ : Sim.pid) = Cpu.spawn cpu ~name:"w1" worker in
  let (_ : Sim.pid) = Cpu.spawn cpu ~name:"w2" worker in
  Sim.run sim;
  check_int "two 1ms slices serialize" (Time.ms 2) !finish;
  check_int "busy accounted" (Time.ms 2) (Cpu.busy_time cpu)

let test_cpu_failure_kills_residents () =
  let sim, node = make_node () in
  let cpu = Node.cpu node 1 in
  let survived = ref false in
  let (_ : Sim.pid) =
    Cpu.spawn cpu ~name:"victim" (fun () ->
        Sim.sleep (Time.ms 10);
        survived := true)
  in
  Sim.at sim ~after:(Time.ms 1) (fun () -> Cpu.fail cpu);
  Sim.run sim;
  check_bool "resident killed" false !survived;
  check_bool "cpu down" false (Cpu.is_up cpu)

let test_cpu_failure_hook () =
  let sim, node = make_node () in
  let cpu = Node.cpu node 2 in
  let fired = ref false in
  Cpu.on_failure cpu (fun () -> fired := true);
  Sim.at sim ~after:(Time.us 1) (fun () -> Cpu.fail cpu);
  Sim.run sim;
  check_bool "hook fired" true !fired

let test_cpu_spawn_on_down_cpu () =
  let _, node = make_node () in
  let cpu = Node.cpu node 0 in
  Cpu.fail cpu;
  Alcotest.check_raises "spawn refused" (Invalid_argument "Cpu.spawn: CPU is down") (fun () ->
      ignore (Cpu.spawn cpu ~name:"x" (fun () -> ())))

(* --- Msgsys --- *)

let test_rpc_roundtrip () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"echo" in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 0) ~name:"server" (fun () ->
        while true do
          let req, respond = Msgsys.next_request server in
          respond (req * 2)
        done)
  in
  let got = ref 0 in
  let t0 = ref Time.zero in
  let elapsed = ref Time.zero in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
        t0 := Sim.now sim;
        match Msgsys.call server ~from:(Node.cpu node 1) 21 with
        | Ok v ->
            got := v;
            elapsed := Sim.now sim - !t0
        | Error _ -> Alcotest.fail "rpc failed")
  in
  Sim.run sim;
  check_int "doubled" 42 !got;
  check_bool "a message costs 10s of us" true (!elapsed >= Time.us 20 && !elapsed < Time.ms 1)

let test_rpc_server_down () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"dead" in
  Cpu.fail (Node.cpu node 0);
  let result = ref (Ok 0) in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
        result := Msgsys.call server ~from:(Node.cpu node 1) 1)
  in
  Sim.run sim;
  match !result with
  | Error Msgsys.Server_down -> ()
  | _ -> Alcotest.fail "expected Server_down"

let test_rpc_fail_outstanding () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"slow" in
  (* Server never answers; failing outstanding calls must release the
     blocked client. *)
  let result = ref None in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
        result := Some (Msgsys.call server ~from:(Node.cpu node 1) 7))
  in
  Sim.at sim ~after:(Time.ms 5) (fun () -> Msgsys.fail_outstanding server);
  Sim.run sim;
  match !result with
  | Some (Error Msgsys.Server_down) -> ()
  | _ -> Alcotest.fail "client not released"

let test_rpc_timeout () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"mute" in
  let result = ref None in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
        result := Some (Msgsys.call server ~from:(Node.cpu node 1) ~timeout:(Time.ms 2) 7))
  in
  Sim.run sim;
  match !result with
  | Some (Error Msgsys.Timed_out) -> ()
  | _ -> Alcotest.fail "expected timeout"

(* Reply bookkeeping: every delivered call holds a port entry until its
   reply lands, so a port that answers everything returns to empty. *)
let test_rpc_async_replies_retire () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"sink" in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 0) ~name:"server" (fun () ->
        while true do
          let req, respond = Msgsys.next_request server in
          respond req
        done)
  in
  let ok = ref 0 in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
        List.init 2000 (fun i -> Msgsys.call_async server ~from:(Node.cpu node 1) i)
        |> List.iter (fun iv -> match Ivar.read iv with Ok _ -> incr ok | Error _ -> ()))
  in
  Sim.run sim;
  check_int "every async call answered" 2000 !ok;
  check_int "no entry outlives its reply" 0 (Msgsys.outstanding server)

let test_rpc_fail_order () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"stuck" in
  (* The server dequeues two requests and never answers either. *)
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 0) ~name:"server" (fun () ->
        let (_ : int * (int -> unit)) = Msgsys.next_request server in
        let (_ : int * (int -> unit)) = Msgsys.next_request server in
        ())
  in
  let resumed = ref [] in
  let client id ~after =
    Sim.at sim ~after (fun () ->
        ignore
          (Cpu.spawn (Node.cpu node 1) ~name:id (fun () ->
               match Msgsys.call server ~from:(Node.cpu node 1) 0 with
               | Error Msgsys.Server_down -> resumed := id :: !resumed
               | _ -> Alcotest.fail "expected Server_down")))
  in
  client "first" ~after:Time.zero;
  client "second" ~after:(Time.ms 1);
  Sim.at sim ~after:(Time.ms 5) (fun () ->
      check_int "both delivered, unanswered" 2 (Msgsys.outstanding server);
      Msgsys.fail_outstanding server);
  Sim.run sim;
  Alcotest.(check (list string)) "newest delivery resumes first" [ "second"; "first" ]
    (List.rev !resumed);
  check_int "failed entries dropped" 0 (Msgsys.outstanding server)

let test_rpc_late_reply_after_timeout () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"late" in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 0) ~name:"server" (fun () ->
        let req, respond = Msgsys.next_request server in
        Sim.sleep (Time.ms 5);
        respond req)
  in
  let result = ref None in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
        result := Some (Msgsys.call server ~from:(Node.cpu node 1) ~timeout:(Time.ms 2) 7))
  in
  Sim.run sim;
  (match !result with
  | Some (Error Msgsys.Timed_out) -> ()
  | _ -> Alcotest.fail "expected timeout");
  check_int "late reply drops the entry" 0 (Msgsys.outstanding server)

(* --- Procpair --- *)

(* A counting service: requests increment the live counter and the
   primary checkpoints the new value before replying.  Both sides hold
   the count in an [int ref]: the backup's shadow takes each checkpoint,
   and every serve incarnation adopts a fresh copy of it. *)
let start_counter_pair ?on_takeover node ~primary ~backup =
  let fabric = Node.fabric node in
  let server = Msgsys.create_server fabric ~cpu:primary ~name:"counter" in
  let pair =
    Procpair.create ~fabric ~name:"counter" ~primary ~backup
      ~config:{ Procpair.takeover_delay = Time.ms 100; ack_bytes = 64 }
      ~port:server ~shadow:(ref 0)
      ~apply:(fun shadow v ->
        shadow := v;
        shadow)
      ()
  in
  let on_takeover = Option.map (fun f () -> f pair) on_takeover in
  Procpair.start pair ~adopt:(fun shadow -> ref !shadow) ?on_takeover (fun live ->
      while true do
        let (), respond = Msgsys.next_request server in
        incr live;
        Procpair.checkpoint pair ~bytes:8 !live;
        respond !live
      done);
  (server, pair)

let test_procpair_checkpointing () =
  let sim, node = make_node () in
  let server, pair = start_counter_pair node ~primary:(Node.cpu node 0) ~backup:(Node.cpu node 1) in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 2) ~name:"client" (fun () ->
        for expect = 1 to 5 do
          match Msgsys.call server ~from:(Node.cpu node 2) () with
          | Ok v -> check_int "count" expect v
          | Error _ -> Alcotest.fail "call failed"
        done)
  in
  Sim.run sim;
  check_int "five checkpoints" 5 (Procpair.checkpoints_sent pair)

let test_procpair_takeover_preserves_state () =
  let sim, node = make_node () in
  let server, pair = start_counter_pair node ~primary:(Node.cpu node 0) ~backup:(Node.cpu node 1) in
  let final = ref 0 in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 2) ~name:"client" (fun () ->
        for _ = 1 to 3 do
          match Msgsys.call server ~from:(Node.cpu node 2) () with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "pre-failure call failed"
        done;
        (* Kill the primary CPU, then keep calling until the backup
           answers. *)
        Cpu.fail (Node.cpu node 0);
        let rec retry () =
          match Msgsys.call server ~from:(Node.cpu node 2) ~timeout:(Time.ms 500) () with
          | Ok v -> final := v
          | Error _ ->
              Sim.sleep (Time.ms 50);
              retry ()
        in
        retry ())
  in
  Sim.run sim;
  check_int "continues from checkpointed state" 4 !final;
  check_int "one takeover" 1 (Procpair.takeovers pair);
  check_bool "sub-second outage" true (Procpair.outage_time pair < Time.sec 1);
  check_bool "no backup anymore" false (Procpair.has_backup pair)

(* The pair's state contract: after a primary kill, a change the primary
   made to its live state without checkpointing it is gone, every
   checkpointed change survives, the view falls back to the shadow until
   the promoted side adopts it, and the port follows the backup. *)
let test_procpair_state_contract () =
  let sim, node = make_node () in
  let primary = Node.cpu node 0 and client = Node.cpu node 2 in
  let at_promotion = ref None in
  let server, pair =
    start_counter_pair node ~primary ~backup:(Node.cpu node 1) ~on_takeover:(fun pair ->
        at_promotion := Some (Procpair.live pair = None, !(Procpair.view pair)))
  in
  let after_takeover = ref 0 in
  let (_ : Sim.pid) =
    Cpu.spawn client ~name:"client" (fun () ->
        for _ = 1 to 3 do
          match Msgsys.call server ~from:client () with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "pre-failure call failed"
        done;
        (* An in-memory change the primary never checkpointed. *)
        (match Procpair.live pair with Some live -> incr live | None -> ());
        check_int "view reads the live state" 4 !(Procpair.view pair);
        Procpair.kill_primary pair;
        Sim.sleep (Time.ms 200);
        (* With the old primary's CPU down, only the backup can answer. *)
        Cpu.fail primary;
        match Msgsys.call server ~from:client ~timeout:(Time.ms 500) () with
        | Ok v -> after_takeover := v
        | Error _ -> Alcotest.fail "call after takeover failed")
  in
  Sim.run sim;
  check_int "one takeover" 1 (Procpair.takeovers pair);
  (match !at_promotion with
  | Some (dropped, seen) ->
      check_bool "live state dropped at promotion" true dropped;
      check_int "view reads the shadow until adoption" 3 seen
  | None -> Alcotest.fail "no promotion");
  check_int "uncheckpointed change gone, checkpointed ones kept" 4 !after_takeover

let test_procpair_halted_when_both_die () =
  let sim, node = make_node () in
  let _, pair = start_counter_pair node ~primary:(Node.cpu node 0) ~backup:(Node.cpu node 1) in
  Sim.at sim ~after:(Time.ms 1) (fun () -> Cpu.fail (Node.cpu node 1));
  Sim.at sim ~after:(Time.ms 2) (fun () -> Cpu.fail (Node.cpu node 0));
  Sim.run sim;
  check_bool "pair halted" true (Procpair.is_halted pair)

let test_procpair_checkpoint_degrades_without_backup () =
  let sim, node = make_node () in
  let server, pair = start_counter_pair node ~primary:(Node.cpu node 0) ~backup:(Node.cpu node 1) in
  Cpu.fail (Node.cpu node 1);
  (* Checkpoints silently stop; service continues. *)
  let got = ref 0 in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 2) ~name:"client" (fun () ->
        match Msgsys.call server ~from:(Node.cpu node 2) () with
        | Ok v -> got := v
        | Error _ -> Alcotest.fail "call failed")
  in
  Sim.run sim;
  check_int "service alive" 1 !got;
  check_int "no checkpoints shipped" 0 (Procpair.checkpoints_sent pair)

(* A backup CPU that fails and restarts comes back empty: it applies no
   checkpoints, so a call must not wait out the takeover delay for an
   acknowledgement nobody sends, and a later primary death has no shadow
   to promote and halts the pair. *)
let test_procpair_restarted_backup_is_not_a_backup () =
  let sim, node = make_node () in
  let backup = Node.cpu node 1 and client = Node.cpu node 2 in
  let server, pair = start_counter_pair node ~primary:(Node.cpu node 0) ~backup in
  let took = ref Time.zero in
  let (_ : Sim.pid) =
    Cpu.spawn client ~name:"client" (fun () ->
        Cpu.fail backup;
        Cpu.restart backup;
        let t0 = Sim.now sim in
        (match Msgsys.call server ~from:client () with
        | Ok v -> check_int "served" 1 v
        | Error _ -> Alcotest.fail "call failed");
        took := Sim.now sim - t0;
        Procpair.kill_primary pair)
  in
  Sim.run sim;
  check_bool "restarted CPU is not a backup" false (Procpair.has_backup pair);
  check_bool "call answers in microseconds" true (!took < Time.ms 1);
  check_int "no checkpoints shipped" 0 (Procpair.checkpoints_sent pair);
  check_int "no takeover" 0 (Procpair.takeovers pair);
  check_bool "pair halted" true (Procpair.is_halted pair)

(* The backup CPU fails after a checkpoint is shipped and before the
   backup applies it: the checkpoint is lost with the backup, no ack
   comes, and the primary waits out the takeover delay before it goes
   on.  The saboteur's timer fires at the instant the checkpoint is
   shipped, queued behind the primary's, so its slice runs after the
   send and before the backup's apply. *)
let test_procpair_backup_dies_mid_checkpoint () =
  let sim, node = make_node () in
  let fabric = Node.fabric node in
  let primary = Node.cpu node 0 and backup = Node.cpu node 1 in
  let server = Msgsys.create_server fabric ~cpu:primary ~name:"counter" in
  let delay = Time.ms 100 in
  let pair =
    Procpair.create ~fabric ~name:"counter" ~primary ~backup
      ~config:{ Procpair.takeover_delay = delay; ack_bytes = 64 }
      ~port:server ~shadow:0
      ~apply:(fun _ v -> v)
      ()
  in
  let wire = Servernet.Fabric.transfer_time fabric ~bytes:8 in
  let resumed_at = ref Time.zero in
  Procpair.start pair ~adopt:Fun.id (fun _ ->
      Procpair.checkpoint pair ~bytes:8 1;
      resumed_at := Sim.now sim);
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 2) ~name:"saboteur" (fun () ->
        Sim.sleep wire;
        Cpu.fail backup)
  in
  Sim.run sim;
  check_int "one checkpoint shipped" 1 (Procpair.checkpoints_sent pair);
  check_int "never applied" 0 (Procpair.shadow pair);
  check_int "primary resumes after the takeover delay" (wire + delay) !resumed_at

let suite =
  [
    ( "nsk.cpu",
      [
        Alcotest.test_case "execute serializes on one CPU" `Quick test_cpu_execute_serializes;
        Alcotest.test_case "failure kills residents" `Quick test_cpu_failure_kills_residents;
        Alcotest.test_case "failure hooks fire" `Quick test_cpu_failure_hook;
        Alcotest.test_case "spawn on down CPU refused" `Quick test_cpu_spawn_on_down_cpu;
      ] );
    ( "nsk.msgsys",
      [
        Alcotest.test_case "request/reply roundtrip" `Quick test_rpc_roundtrip;
        Alcotest.test_case "dead server reported" `Quick test_rpc_server_down;
        Alcotest.test_case "fail_outstanding releases callers" `Quick test_rpc_fail_outstanding;
        Alcotest.test_case "call timeout" `Quick test_rpc_timeout;
        Alcotest.test_case "answered async calls leave no entry" `Quick
          test_rpc_async_replies_retire;
        Alcotest.test_case "fail_outstanding wakes newest delivery first" `Quick
          test_rpc_fail_order;
        Alcotest.test_case "late reply after timeout drops the entry" `Quick
          test_rpc_late_reply_after_timeout;
      ] );
    ( "nsk.procpair",
      [
        Alcotest.test_case "checkpoints flow to backup" `Quick test_procpair_checkpointing;
        Alcotest.test_case "takeover preserves checkpointed state" `Quick
          test_procpair_takeover_preserves_state;
        Alcotest.test_case "takeover drops uncheckpointed state" `Quick
          test_procpair_state_contract;
        Alcotest.test_case "halted when both sides die" `Quick test_procpair_halted_when_both_die;
        Alcotest.test_case "degrades without backup" `Quick
          test_procpair_checkpoint_degrades_without_backup;
        Alcotest.test_case "backup dies mid-checkpoint" `Quick
          test_procpair_backup_dies_mid_checkpoint;
        Alcotest.test_case "restarted backup CPU is not a backup" `Quick
          test_procpair_restarted_backup_is_not_a_backup;
      ] );
  ]

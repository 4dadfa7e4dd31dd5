(* Tests for the disk subsystem. *)

open Simkit
open Diskio

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_disk_write_is_milliseconds () =
  Test_util.run_process (fun sim ->
      let disk = Disk.create sim () in
      let dt = Disk.service disk ~kind:`Write ~block:500_000 ~len:4096 in
      check_bool "random write costs ms" true (dt >= Time.ms 1 && dt <= Time.ms 20))

let test_disk_sequential_cheaper () =
  Test_util.run_process (fun sim ->
      let disk = Disk.create sim () in
      (* Compare average sequential-write and random-write service times:
         both pay rotation, only random pays the seek. *)
      let n = 200 in
      let seq_total = ref 0 and rand_total = ref 0 in
      let _ = Disk.service disk ~kind:`Write ~block:0 ~len:4096 in
      (* 4096 bytes = 8 blocks: each write starts where the head landed. *)
      for i = 1 to n do
        seq_total := !seq_total + Disk.service disk ~kind:`Write ~block:(i * 8) ~len:4096
      done;
      let disk2 = Disk.create sim () in
      let rng = Rng.create 77L in
      for _ = 1 to n do
        rand_total :=
          !rand_total + Disk.service disk2 ~kind:`Write ~block:(Rng.int rng 60_000_000) ~len:4096
      done;
      check_bool "sequential avoids the seek" true (!seq_total < !rand_total);
      (* Sequential reads stream. *)
      let disk3 = Disk.create sim () in
      let _ = Disk.service disk3 ~kind:`Read ~block:100 ~len:4096 in
      let seq_read = Disk.service disk3 ~kind:`Read ~block:108 ~len:4096 in
      check_bool "sequential read sub-ms" true (seq_read < Time.ms 1))

let test_disk_seek_scales_with_distance () =
  Test_util.run_process (fun sim ->
      (* Remove rotational randomness by comparing many samples. *)
      let avg_service distance =
        let disk = Disk.create sim () in
        let total = ref 0 in
        let n = 50 in
        for _ = 1 to n do
          let _ = Disk.service disk ~kind:`Read ~block:0 ~len:512 in
          total := !total + Disk.service disk ~kind:`Read ~block:distance ~len:512
        done;
        !total / n
      in
      let near = avg_service 10_000 in
      let far = avg_service 60_000_000 in
      check_bool "long seeks cost more" true (far > near))

let test_write_cache_absorbs () =
  Test_util.run_process (fun sim ->
      let disk = Disk.create sim ~cache:Disk.default_cache () in
      let dt = Disk.service disk ~kind:`Write ~block:12345 ~len:4096 in
      check_bool "cache hit is fast" true (dt <= Time.us 200);
      check_int "occupancy tracked" 4096 (Disk.cache_used disk))

let test_write_cache_fills_then_blocks () =
  Test_util.run_process (fun sim ->
      let cache = { Disk.cache_bytes = 8192; destage_bytes_per_ns = 1e-6 } in
      let disk = Disk.create sim ~cache () in
      let fast1 = Disk.service disk ~kind:`Write ~block:0 ~len:4096 in
      let fast2 = Disk.service disk ~kind:`Write ~block:8 ~len:4096 in
      let slow = Disk.service disk ~kind:`Write ~block:16 ~len:4096 in
      check_bool "first absorbed" true (fast1 <= Time.us 200);
      check_bool "second absorbed" true (fast2 <= Time.us 200);
      check_bool "overflow pays mechanical time" true (slow >= Time.us 300))

let test_volume_sync_write () =
  Test_util.run_process (fun sim ->
      let vol = Volume.create sim ~name:"$DATA00" () in
      let t0 = Sim.now sim in
      Test_util.check_result_ok "write" (Volume.write vol ~block:1000 ~len:4096);
      check_bool "took time" true (Sim.now sim > t0);
      check_int "one op" 1 (Volume.completed_ops vol))

let test_volume_queueing () =
  (* Many async submissions serve one at a time: total elapsed is at least
     the sum of individual busy times. *)
  Test_util.run_process (fun sim ->
      let vol = Volume.create sim ~name:"$DATA01" () in
      let ivars =
        List.init 8 (fun i -> Volume.submit vol ~kind:`Write ~block:(i * 100_000) ~len:4096)
      in
      List.iter (fun iv -> Test_util.check_result_ok "completion" (Ivar.read iv)) ivars;
      check_int "all ops" 8 (Volume.completed_ops vol);
      let elapsed = Sim.now sim in
      check_bool "busy most of the elapsed time" true (Volume.busy_time vol >= elapsed / 2))

let test_volume_down_fails_requests () =
  Test_util.run_process (fun sim ->
      let vol = Volume.create sim ~name:"$DATA02" () in
      Volume.set_up vol false;
      (match Volume.write vol ~block:0 ~len:512 with
      | Error Volume.Volume_down -> ()
      | Ok () -> Alcotest.fail "write to down volume succeeded");
      Volume.set_up vol true;
      Test_util.check_result_ok "recovers" (Volume.write vol ~block:0 ~len:512))

let test_volume_append_sequential () =
  Test_util.run_process (fun sim ->
      let vol = Volume.create sim ~name:"$AUDIT" () in
      (* Synchronous appends each pay a rotational miss but no seek:
         single-digit milliseconds, never tens. *)
      let t0 = Sim.now sim in
      let n = 20 in
      for _ = 1 to n do
        Test_util.check_result_ok "append" (Volume.append vol ~len:4096)
      done;
      let avg = (Sim.now sim - t0) / n in
      check_bool "ms-class" true (avg >= Time.us 300 && avg <= Time.ms 8))

let test_elevator_beats_fifo () =
  (* A deep random queue: SCAN ordering cuts total seek distance, so the
     elevator drains it faster than FIFO. *)
  let drain scheduling =
    Test_util.run_process (fun sim ->
        let vol = Volume.create sim ~name:"$Q" ~scheduling () in
        let rng = Rng.create 1234L in
        let ivars =
          List.init 24 (fun _ ->
              Volume.submit vol ~kind:`Read ~block:(Rng.int rng 60_000_000) ~len:4096)
        in
        List.iter (fun iv -> Test_util.check_result_ok "done" (Ivar.read iv)) ivars;
        Sim.now sim)
  in
  let fifo = drain Volume.Fifo in
  let scan = drain Volume.Elevator in
  check_bool
    (Printf.sprintf "elevator faster (fifo %s, scan %s)" (Time.to_string fifo)
       (Time.to_string scan))
    true (scan < fifo)

let test_elevator_serves_everything () =
  Test_util.run_process (fun sim ->
      let vol = Volume.create sim ~name:"$E" ~scheduling:Volume.Elevator () in
      let ivars =
        List.init 10 (fun i -> Volume.submit vol ~kind:`Write ~block:(i * 1_000_003) ~len:512)
      in
      List.iter (fun iv -> Test_util.check_result_ok "served" (Ivar.read iv)) ivars;
      check_int "all ops" 10 (Volume.completed_ops vol);
      check_int "queue drained" 0 (Volume.queue_depth vol))

let prop_service_time_positive =
  QCheck.Test.make ~name:"disk service times are positive" ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_bound 65536))
    (fun (block, len) ->
      let sim = Sim.create () in
      let disk = Disk.create sim () in
      Disk.service disk ~kind:`Write ~block ~len:(len + 1) > 0)

let suite =
  [
    ( "diskio.disk",
      [
        Alcotest.test_case "random write costs milliseconds" `Quick test_disk_write_is_milliseconds;
        Alcotest.test_case "sequential cheaper than random" `Quick test_disk_sequential_cheaper;
        Alcotest.test_case "seek scales with distance" `Quick test_disk_seek_scales_with_distance;
        Alcotest.test_case "write cache absorbs bursts" `Quick test_write_cache_absorbs;
        Alcotest.test_case "full cache falls back to media" `Quick test_write_cache_fills_then_blocks;
        QCheck_alcotest.to_alcotest prop_service_time_positive;
      ] );
    ( "diskio.volume",
      [
        Alcotest.test_case "synchronous write" `Quick test_volume_sync_write;
        Alcotest.test_case "requests queue" `Quick test_volume_queueing;
        Alcotest.test_case "down volume fails requests" `Quick test_volume_down_fails_requests;
        Alcotest.test_case "audit-style appends are sequential" `Quick test_volume_append_sequential;
      ] );
    ( "diskio.elevator",
      [
        Alcotest.test_case "SCAN beats FIFO on random queues" `Quick test_elevator_beats_fifo;
        Alcotest.test_case "no starvation" `Quick test_elevator_serves_everything;
      ] );
  ]

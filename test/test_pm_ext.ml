(* Tests for the persistent-memory extensions: mirror resync, epoch
   fencing and the durable queue. *)

open Simkit
open Nsk
open Pm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

type topo = {
  sim : Sim.t;
  node : Node.t;
  npmu_a : Npmu.t;
  npmu_b : Npmu.t;
  pmm : Pmm.t;
}

let make_topo ?(capacity = 1 lsl 20) () =
  let sim = Sim.create ~seed:0x51L () in
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

let with_region topo ~size f =
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size) in
      f c h)

(* --- Pmm resync --- *)

let test_resync_rebuilds_stale_mirror () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192) in
      let info = Pm_client.info h in
      (* Mirror loses power; writes land only on the primary. *)
      Npmu.power_loss topo.npmu_b;
      Test_util.check_result_ok "degraded write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.of_string "only-on-a"));
      Npmu.power_restore topo.npmu_b;
      let stale = Npmu.peek topo.npmu_b ~off:info.Pm_types.net_base ~len:9 in
      check_str "mirror stale" (String.make 9 '\000') (Bytes.to_string stale);
      (* Administrative resync from the primary. *)
      (match
         Msgsys.call (Pmm.server topo.pmm) ~from:(Node.cpu topo.node 2)
           (Pmm.Resync { from_primary = true })
       with
      | Ok (Pmm.R_resynced { bytes }) -> check_bool "copied bytes" true (bytes >= 8192)
      | _ -> Alcotest.fail "resync failed");
      let rebuilt = Npmu.peek topo.npmu_b ~off:info.Pm_types.net_base ~len:9 in
      check_str "mirror rebuilt" "only-on-a" (Bytes.to_string rebuilt))

let test_primary_death_failover_and_rebuild () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192) in
      let info = Pm_client.info h in
      Test_util.check_result_ok "healthy write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.of_string "mirrored!"));
      check_int "no degradation yet" 0 (Pm_client.degraded_writes c);
      (* Primary device dies.  Writes persist on the mirror alone and are
         counted as degraded; reads fail over to the mirror. *)
      Npmu.power_loss topo.npmu_a;
      Test_util.check_result_ok "degraded write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.of_string "on-b-only"));
      check_int "degraded write counted" 1 (Pm_client.degraded_writes c);
      (match Pm_client.read c h ~off:0 ~len:9 with
      | Ok d -> check_str "mirror serves the read" "on-b-only" (Bytes.to_string d)
      | Error e -> Alcotest.fail ("read failed: " ^ Pm_types.error_to_string e));
      check_bool "failover counted" true (Pm_client.read_failovers c >= 1);
      let failovers_after_outage = Pm_client.read_failovers c in
      (* Power returns: the primary holds pre-outage data and must not be
         trusted until rebuilt from the surviving mirror. *)
      Npmu.power_restore topo.npmu_a;
      let stale = Npmu.peek topo.npmu_a ~off:info.Pm_types.net_base ~len:9 in
      check_str "primary is stale" "mirrored!" (Bytes.to_string stale);
      (match
         Msgsys.call (Pmm.server topo.pmm) ~from:(Node.cpu topo.node 2)
           ~timeout:(Time.sec 60) (Pmm.Resync { from_primary = false })
       with
      | Ok (Pmm.R_resynced { bytes }) -> check_bool "copied bytes" true (bytes >= 8192)
      | _ -> Alcotest.fail "resync failed");
      let rebuilt = Npmu.peek topo.npmu_a ~off:info.Pm_types.net_base ~len:9 in
      check_str "primary rebuilt from mirror" "on-b-only" (Bytes.to_string rebuilt);
      (* Full service restored: reads hit the primary again and writes
         mirror cleanly. *)
      (match Pm_client.read c h ~off:0 ~len:9 with
      | Ok d -> check_str "read after rebuild" "on-b-only" (Bytes.to_string d)
      | Error _ -> Alcotest.fail "read after rebuild failed");
      check_int "no further failovers" failovers_after_outage (Pm_client.read_failovers c);
      Test_util.check_result_ok "healthy write again"
        (Pm_client.write c h ~off:0 ~data:(Bytes.of_string "both-agai"));
      check_int "no further degradation" 1 (Pm_client.degraded_writes c);
      let on_a = Npmu.peek topo.npmu_a ~off:info.Pm_types.net_base ~len:9 in
      let on_b = Npmu.peek topo.npmu_b ~off:info.Pm_types.net_base ~len:9 in
      check_str "primary current" "both-agai" (Bytes.to_string on_a);
      check_str "mirror current" "both-agai" (Bytes.to_string on_b))

let test_resync_takes_time () =
  let topo = make_topo ~capacity:(1 lsl 21) () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let _ = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"big" ~size:(1 lsl 20)) in
      let t0 = Sim.now topo.sim in
      (match
         Msgsys.call (Pmm.server topo.pmm) ~from:(Node.cpu topo.node 2)
           ~timeout:(Time.sec 60) (Pmm.Resync { from_primary = true })
       with
      | Ok (Pmm.R_resynced _) -> ()
      | _ -> Alcotest.fail "resync failed");
      let dt = Sim.now topo.sim - t0 in
      (* ~1 MiB read + written at 125 MB/s each way: milliseconds. *)
      check_bool "resync cost is physical" true (dt > Time.ms 10))

(* --- Volume epoch fencing --- *)

let test_takeover_bumps_epoch_and_fences () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      let before = Pmm.epoch topo.pmm in
      check_int "window carries the volume epoch" before info.Pm_types.epoch;
      (* Manager takeover: the new primary durably bumps the epoch and
         re-arms every device's fence before serving. *)
      Procpair.kill_primary (Pmm.pair topo.pmm);
      (* Takeover detection alone costs the pair's 500 ms delay. *)
      Sim.sleep (Time.ms 800);
      check_bool "takeover bumps the epoch" true (Pmm.epoch topo.pmm > before);
      (* A writer still descriptor-stamping the pre-takeover epoch is
         rejected at the device — no data moves. *)
      let fabric = Node.fabric topo.node in
      let probe =
        Servernet.Fabric.attach fabric ~name:"probe"
          ~store:(Servernet.Fabric.byte_store 64)
      in
      (match
         Servernet.Fabric.rdma_write fabric ~epoch:before ~src:probe
           ~dst:info.Pm_types.primary_npmu ~addr:info.Pm_types.net_base
           ~data:(Bytes.create 8)
       with
      | Error (Servernet.Fabric.Avt_error Servernet.Avt.Stale_epoch) -> ()
      | Ok () -> Alcotest.fail "stale-epoch write accepted after takeover"
      | Error _ -> Alcotest.fail "stale-epoch write failed for the wrong reason");
      check_bool "device counted the fenced write" true
        (Npmu.fenced_writes topo.npmu_a >= 1);
      (* The client transparently refreshes its grant and continues at
         the new epoch. *)
      Test_util.check_result_ok "write after refresh"
        (Pm_client.write c h ~off:0 ~data:(Bytes.of_string "fresh")))

let test_resync_fails_if_device_cycles_mid_copy () =
  let topo = make_topo ~capacity:(1 lsl 21) () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let _ =
        Test_util.ok_or_fail ~msg:"create"
          (Pm_client.create_region c ~name:"big" ~size:(1 lsl 20))
      in
      (* The ~1 MiB copy takes >10 ms of transfer time; the mirror
         power-cycles in the middle of it.  Data written before the
         cycle is suspect, so the resync must fail and the volume must
         stay degraded — a silent success here would declare a
         half-stale mirror clean. *)
      let result = Ivar.create () in
      let (_ : Sim.pid) =
        Sim.spawn topo.sim ~name:"resync" (fun () ->
            Ivar.fill result
              (Msgsys.call (Pmm.server topo.pmm) ~from:(Node.cpu topo.node 2)
                 ~timeout:(Time.sec 60)
                 (Pmm.Resync { from_primary = true })))
      in
      Sim.sleep (Time.ms 5);
      Npmu.power_loss topo.npmu_b;
      Sim.sleep (Time.ms 1);
      Npmu.power_restore topo.npmu_b;
      (match Ivar.read result with
      | Ok (Pmm.R_error _) -> ()
      | Ok (Pmm.R_resynced _) -> Alcotest.fail "resync succeeded across a power cycle"
      | Ok _ -> Alcotest.fail "unexpected resync reply"
      | Error _ -> Alcotest.fail "resync call failed");
      check_bool "volume still degraded" true (Pmm.degraded topo.pmm))

let suite =
  [
    ( "pm.resync",
      [
        Alcotest.test_case "rebuilds a stale mirror" `Quick test_resync_rebuilds_stale_mirror;
        Alcotest.test_case "primary death: failover, degraded writes, rebuild" `Quick
          test_primary_death_failover_and_rebuild;
        Alcotest.test_case "resync pays transfer time" `Quick test_resync_takes_time;
        Alcotest.test_case "resync fails across a device power cycle" `Quick
          test_resync_fails_if_device_cycles_mid_copy;
      ] );
    ( "pm.epoch",
      [
        Alcotest.test_case "takeover bumps the epoch and fences stale writers" `Quick
          test_takeover_bumps_epoch_and_fences;
      ] );
  ]

(* --- Pm_queue: durable SPSC ring --- *)

let test_queue_roundtrip_cross_client () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let producer = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"region"
          (Pm_client.create_region producer ~name:"orders" ~size:8192)
      in
      let q = Test_util.ok_or_fail ~msg:"create" (Pm_queue.create producer h) in
      List.iter
        (fun s -> Test_util.check_result_ok "enq" (Pm_queue.enqueue q (Bytes.of_string s)))
        [ "buy 100 HPQ"; "sell 50 IBM"; "buy 7 DEC" ];
      (match Pm_queue.length q with
      | Ok n -> check_int "three queued" 3 n
      | Error _ -> Alcotest.fail "length");
      (* The consumer is a different client. *)
      let consumer = client topo 3 in
      let h2 = Test_util.ok_or_fail ~msg:"open" (Pm_client.open_region consumer ~name:"orders") in
      let cq = Test_util.ok_or_fail ~msg:"attach" (Pm_queue.attach consumer h2) in
      (match Pm_queue.peek cq with
      | Ok (Some d) -> check_str "peek does not consume" "buy 100 HPQ" (Bytes.to_string d)
      | _ -> Alcotest.fail "peek");
      let pop () =
        match Pm_queue.dequeue cq with
        | Ok (Some d) -> Bytes.to_string d
        | _ -> Alcotest.fail "dequeue"
      in
      check_str "fifo 1" "buy 100 HPQ" (pop ());
      check_str "fifo 2" "sell 50 IBM" (pop ());
      check_str "fifo 3" "buy 7 DEC" (pop ());
      match Pm_queue.dequeue cq with
      | Ok None -> ()
      | _ -> Alcotest.fail "expected empty")

let test_queue_survives_power_cycle () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = Test_util.ok_or_fail ~msg:"region" (Pm_client.create_region c ~name:"dq" ~size:8192) in
      let q = Test_util.ok_or_fail ~msg:"create" (Pm_queue.create c h) in
      Test_util.check_result_ok "enq1" (Pm_queue.enqueue q (Bytes.of_string "order-1"));
      Test_util.check_result_ok "enq2" (Pm_queue.enqueue q (Bytes.of_string "order-2"));
      (match Pm_queue.dequeue q with
      | Ok (Some _) -> ()
      | _ -> Alcotest.fail "pre-crash dequeue");
      Npmu.power_loss topo.npmu_a;
      Npmu.power_loss topo.npmu_b;
      Npmu.power_restore topo.npmu_a;
      Npmu.power_restore topo.npmu_b;
      let q2 = Test_util.ok_or_fail ~msg:"reattach" (Pm_queue.attach c h) in
      (* Order-1 was consumed durably; order-2 is still there, once. *)
      (match Pm_queue.dequeue q2 with
      | Ok (Some d) -> check_str "survivor" "order-2" (Bytes.to_string d)
      | _ -> Alcotest.fail "post-crash dequeue");
      match Pm_queue.dequeue q2 with
      | Ok None -> ()
      | _ -> Alcotest.fail "consumed element redelivered")

let test_queue_torn_enqueue_invisible () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = Test_util.ok_or_fail ~msg:"region" (Pm_client.create_region c ~name:"tq" ~size:8192) in
      let q = Test_util.ok_or_fail ~msg:"create" (Pm_queue.create c h) in
      Test_util.check_result_ok "enq" (Pm_queue.enqueue q (Bytes.of_string "committed"));
      (* A crashed producer wrote a frame but never flipped the tail. *)
      Test_util.check_result_ok "torn bytes"
        (Pm_client.write c h ~off:(192 + 17) ~data:(Bytes.of_string "\xFF\xFF\xFFgarbage"));
      (match Pm_queue.length q with
      | Ok n -> check_int "only the committed element" 1 n
      | Error _ -> Alcotest.fail "length");
      match Pm_queue.dequeue q with
      | Ok (Some d) -> check_str "clean pop" "committed" (Bytes.to_string d)
      | _ -> Alcotest.fail "dequeue")

let test_queue_wraps_and_fills () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      (* 256 bytes of ring: two 100-byte records fit, a third does not. *)
      let h = Test_util.ok_or_fail ~msg:"region" (Pm_client.create_region c ~name:"wq" ~size:448) in
      let q = Test_util.ok_or_fail ~msg:"create" (Pm_queue.create c h) in
      check_int "capacity" 256 (Pm_queue.capacity_bytes q);
      let payload i = Bytes.make 100 (Char.chr (Char.code 'a' + i)) in
      Test_util.check_result_ok "e0" (Pm_queue.enqueue q (payload 0));
      Test_util.check_result_ok "e1" (Pm_queue.enqueue q (payload 1));
      (match Pm_queue.enqueue q (payload 2) with
      | Error Pm_types.Out_of_space -> ()
      | _ -> Alcotest.fail "overfill accepted");
      (* Drain one, then the next enqueue wraps across the ring edge. *)
      (match Pm_queue.dequeue q with Ok (Some _) -> () | _ -> Alcotest.fail "drain");
      Test_util.check_result_ok "wrapping enqueue" (Pm_queue.enqueue q (payload 2));
      (match Pm_queue.dequeue q with
      | Ok (Some d) -> check_str "b's" (Bytes.to_string (payload 1)) (Bytes.to_string d)
      | _ -> Alcotest.fail "pop 1");
      match Pm_queue.dequeue q with
      | Ok (Some d) -> check_str "wrapped record intact" (Bytes.to_string (payload 2)) (Bytes.to_string d)
      | _ -> Alcotest.fail "pop 2")

let prop_queue_matches_model =
  QCheck.Test.make ~name:"pm_queue behaves like Queue" ~count:15
    (QCheck.make
       ~print:(fun l -> string_of_int (List.length l))
       QCheck.Gen.(list_size (int_range 1 60) (pair bool (int_range 1 40))))
    (fun ops ->
      let topo = make_topo () in
      Test_util.run_in topo.sim (fun () ->
          let c = client topo 2 in
          match Pm_client.create_region c ~name:"mq" ~size:16384 with
          | Error _ -> false
          | Ok h -> (
              match Pm_queue.create c h with
              | Error _ -> false
              | Ok q ->
                  let model : Bytes.t Queue.t = Queue.create () in
                  let ok = ref true in
                  List.iteri
                    (fun i (is_enq, len) ->
                      if is_enq then begin
                        let data = Bytes.make len (Char.chr (65 + (i mod 26))) in
                        match Pm_queue.enqueue q data with
                        | Ok () -> Queue.push data model
                        | Error Pm_types.Out_of_space ->
                            if Queue.length model = 0 then ok := false
                        | Error _ -> ok := false
                      end
                      else
                        match (Pm_queue.dequeue q, Queue.take_opt model) with
                        | Ok None, None -> ()
                        | Ok (Some a), Some b -> if not (Bytes.equal a b) then ok := false
                        | _ -> ok := false)
                    ops;
                  !ok)))

let queue_cases =
  [
    Alcotest.test_case "cross-client FIFO roundtrip" `Quick test_queue_roundtrip_cross_client;
    Alcotest.test_case "durable across power cycle" `Quick test_queue_survives_power_cycle;
    Alcotest.test_case "torn enqueue invisible" `Quick test_queue_torn_enqueue_invisible;
    Alcotest.test_case "wrap and overfill" `Quick test_queue_wraps_and_fills;
    QCheck_alcotest.to_alcotest prop_queue_matches_model;
  ]

let suite = suite @ [ ("pm.queue", queue_cases) ]

(* Gray-failure tolerance: fail-slow injection primitives, client
   latency health, hedged reads, slow-mirror demotion/re-admission, the
   timeout-waker cleanup underneath them, and the end-to-end drill. *)

open Simkit
open Nsk
open Pm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Topology (mirrored PM pair, as in test_pm) --- *)

type topo = {
  sim : Sim.t;
  node : Node.t;
  npmu_a : Npmu.t;
  npmu_b : Npmu.t;
  pmm : Pmm.t;
}

let make_topo ?(capacity = 1 lsl 20) () =
  let sim = Sim.create ~seed:0x6AAFL () in
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

let client ?config topo cpu_idx =
  Pm_client.attach ~cpu:(Node.cpu topo.node cpu_idx) ~fabric:(Node.fabric topo.node)
    ~pmm:(Pmm.server topo.pmm) ?config ()

let opened ~msg = function Ok h -> h | Error _ -> Alcotest.fail msg

(* Time one thunk in simulated nanoseconds. *)
let timed sim f =
  let t0 = Sim.now sim in
  let r = f () in
  (r, Sim.now sim - t0)

(* --- Fail-slow injection primitives --- *)

let test_npmu_degrade_stretches_transfers () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = opened ~msg:"create" (Pm_client.create_region c ~name:"g" ~size:65536) in
      Test_util.check_result_ok "write" (Pm_client.write c h ~off:0 ~data:(Bytes.create 512));
      let r, healthy = timed topo.sim (fun () -> Pm_client.read_device c h ~mirror:false ~off:0 ~len:512) in
      Test_util.check_result_ok "healthy read" r;
      check_bool "not degraded yet" false (Npmu.is_degraded topo.npmu_a);
      Npmu.degrade topo.npmu_a ~factor:50.0 ();
      check_bool "degraded" true (Npmu.is_degraded topo.npmu_a);
      Alcotest.(check (float 0.001)) "factor" 50.0 (Npmu.slow_factor topo.npmu_a);
      check_int "one degrade event" 1 (Npmu.degrade_events topo.npmu_a);
      let r, slow = timed topo.sim (fun () -> Pm_client.read_device c h ~mirror:false ~off:0 ~len:512) in
      Test_util.check_result_ok "slow read still answers" r;
      check_bool "at least 10x slower" true (slow > 10 * healthy);
      Npmu.restore_speed topo.npmu_a;
      check_bool "restored" false (Npmu.is_degraded topo.npmu_a);
      let r, again = timed topo.sim (fun () -> Pm_client.read_device c h ~mirror:false ~off:0 ~len:512) in
      Test_util.check_result_ok "restored read" r;
      check_bool "back to healthy latency" true (again < 2 * healthy))

let test_rail_slow_stretches_transfers () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let fabric = Node.fabric topo.node in
      let c = client topo 2 in
      let h = opened ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:65536) in
      Test_util.check_result_ok "write" (Pm_client.write c h ~off:0 ~data:(Bytes.create 512));
      let r, healthy = timed topo.sim (fun () -> Pm_client.read_device c h ~mirror:false ~off:0 ~len:512) in
      Test_util.check_result_ok "healthy read" r;
      (* Slow every rail so the routed one is always degraded. *)
      Servernet.Fabric.set_rail_slow fabric 0 20.0;
      Servernet.Fabric.set_rail_slow fabric 1 20.0;
      Alcotest.(check (float 0.001)) "rail factor" 20.0 (Servernet.Fabric.rail_slow fabric 0);
      let r, slow = timed topo.sim (fun () -> Pm_client.read_device c h ~mirror:false ~off:0 ~len:512) in
      Test_util.check_result_ok "slow read" r;
      check_bool "at least 5x slower" true (slow > 5 * healthy);
      Servernet.Fabric.set_rail_slow fabric 0 1.0;
      Servernet.Fabric.set_rail_slow fabric 1 1.0;
      let r, again = timed topo.sim (fun () -> Pm_client.read_device c h ~mirror:false ~off:0 ~len:512) in
      Test_util.check_result_ok "restored read" r;
      check_bool "back to healthy latency" true (again < 2 * healthy))

let test_volume_degrade_stretches_service () =
  Test_util.run_process (fun sim ->
      let vol = Diskio.Volume.create sim ~name:"$GRAY" () in
      let (), healthy = timed sim (fun () ->
          Test_util.check_result_ok "write" (Diskio.Volume.write vol ~block:1000 ~len:4096))
      in
      Diskio.Volume.degrade vol ~factor:10.0 ();
      Alcotest.(check (float 0.001)) "factor" 10.0 (Diskio.Volume.slow_factor vol);
      let (), slow = timed sim (fun () ->
          Test_util.check_result_ok "slow write" (Diskio.Volume.write vol ~block:2000 ~len:4096))
      in
      check_bool "service stretched" true (slow > 3 * healthy);
      Diskio.Volume.restore_speed vol;
      Alcotest.(check (float 0.001)) "restored" 1.0 (Diskio.Volume.slow_factor vol))

(* --- Timeout wakers leave nothing behind (stale-waker regression) --- *)

let test_ivar_timeout_waker_cleanup () =
  Test_util.run_process (fun sim ->
      for i = 1 to 500 do
        let iv = Ivar.create () in
        let (_ : Sim.pid) =
          Sim.spawn sim ~name:"filler" (fun () -> Ivar.fill iv i)
        in
        (* A long deadline that never fires: the value always arrives
           first.  Before the cancellable-deadline fix each iteration
           left a one-hour timer in the heap. *)
        match Ivar.read_timeout iv (Time.sec 3600) with
        | Some v when v = i -> ()
        | _ -> Alcotest.fail "ivar value lost"
      done;
      check_int "no stale timers queued" 0 (Sim.queue_depth sim))

let test_mailbox_timeout_waker_cleanup () =
  Test_util.run_process (fun sim ->
      let mb = Mailbox.create () in
      for i = 1 to 500 do
        let (_ : Sim.pid) =
          Sim.spawn sim ~name:"sender" (fun () -> Mailbox.send mb i)
        in
        match Mailbox.recv_timeout mb (Time.sec 3600) with
        | Some v when v = i -> ()
        | _ -> Alcotest.fail "mailbox message lost"
      done;
      check_int "no stale timers queued" 0 (Sim.queue_depth sim))

(* --- Bounded management retries --- *)

let test_mgmt_retry_exhausted () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let config =
        {
          Pm_client.default_config with
          Pm_client.mgmt_timeout = Time.ms 5;
          mgmt_retries = 2;
          mgmt_backoff = Time.us 10;
        }
      in
      let c = client ~config topo 2 in
      Procpair.halt (Pmm.pair topo.pmm);
      (match Pm_client.open_region c ~name:"absent" with
      | Error Pm_types.Manager_down -> ()
      | Ok _ -> Alcotest.fail "open succeeded against a halted manager"
      | Error _ -> Alcotest.fail "expected Manager_down");
      check_int "retries used" 2 (Pm_client.mgmt_retries_used c);
      check_int "exhaustion counted once" 1 (Pm_client.mgmt_retry_exhausted c))

(* --- Backoff contract (property) --- *)

let prop_backoff_within_ceiling =
  QCheck.Test.make ~name:"backoff span within jitter ceiling, ceiling monotone and capped"
    ~count:300
    QCheck.(triple (int_range 1 1_000_000) (int_bound 20) (int_bound 10_000))
    (fun (base, attempt, seed) ->
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let ceiling = Pm_client.backoff_ceiling ~base ~attempt in
      let expected = max 1 (base * (1 lsl min attempt 6)) in
      let span = Pm_client.backoff_span rng ~base ~attempt in
      ceiling = expected
      && span >= 1
      && span <= ceiling + 1
      && Pm_client.backoff_ceiling ~base ~attempt:(attempt + 1) >= ceiling
      && Pm_client.backoff_ceiling ~base ~attempt:7 = Pm_client.backoff_ceiling ~base ~attempt:6)

(* --- Client latency health --- *)

let health_config =
  {
    Pm_client.default_config with
    Pm_client.slo_budget = Time.us 100;
    hedged_reads = true;
    hedge_min = Time.us 10;
    hedge_max = Time.us 200;
  }

let test_client_slow_suspect_transitions () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      (* Hedging off: the slow primary sample must land synchronously. *)
      let c = client ~config:{ health_config with Pm_client.hedged_reads = false } topo 2 in
      let h = opened ~msg:"create" (Pm_client.create_region c ~name:"s" ~size:65536) in
      Test_util.check_result_ok "write" (Pm_client.write c h ~off:0 ~data:(Bytes.create 512));
      for _ = 1 to 8 do
        Test_util.check_result_ok "healthy read" (Pm_client.read c h ~off:0 ~len:512)
      done;
      check_int "no suspects while healthy" 0 (Pm_client.slow_suspects c);
      Npmu.degrade topo.npmu_a ~factor:50.0 ();
      for _ = 1 to 4 do
        Test_util.check_result_ok "slow read" (Pm_client.read c h ~off:0 ~len:512)
      done;
      check_bool "suspect flagged" true (Pm_client.latency_suspect c ~mirror:false);
      check_int "one transition" 1 (Pm_client.slow_suspects c);
      check_bool "ewma tracks the stretch" true (Pm_client.latency_ewma c ~mirror:false > 100_000.0))

let test_hedged_read_mirror_wins () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client ~config:health_config topo 2 in
      let h = opened ~msg:"create" (Pm_client.create_region c ~name:"h" ~size:65536) in
      Test_util.check_result_ok "write" (Pm_client.write c h ~off:0 ~data:(Bytes.create 512));
      (* Primary fail-slow: the hedge fires at hedge_max (200 us) and the
         healthy mirror answers long before the stretched primary. *)
      Npmu.degrade topo.npmu_a ~factor:100.0 ();
      Test_util.check_result_ok "hedged read answers" (Pm_client.read c h ~off:0 ~len:512);
      check_bool "hedge fired" true (Pm_client.hedged_reads_fired c >= 1);
      check_bool "mirror won" true (Pm_client.hedge_wins c >= 1))

(* The stretched primary finishes long after the hedge won and the
   caller moved on: its bytes must never land in the caller's buffer. *)
let test_hedged_loser_never_lands_in_buffer () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client ~config:health_config topo 2 in
      let h = opened ~msg:"create" (Pm_client.create_region c ~name:"h" ~size:65536) in
      Test_util.check_result_ok "write" (Pm_client.write c h ~off:0 ~data:(Bytes.make 512 'd'));
      Npmu.degrade topo.npmu_a ~factor:100.0 ();
      let buf = Bytes.make 600 '-' in
      Test_util.check_result_ok "hedged read"
        (Pm_client.read_into c h ~off:0 ~len:512 ~buf ~pos:40);
      check_bool "mirror won" true (Pm_client.hedge_wins c >= 1);
      Alcotest.(check string) "winner landed at pos"
        (String.make 40 '-' ^ String.make 512 'd' ^ String.make 48 '-')
        (Bytes.to_string buf);
      (* The caller reuses its buffer; then the slow primary completes. *)
      Bytes.fill buf 0 600 'r';
      Sim.sleep (Time.ms 50);
      Alcotest.(check string) "the losing read left the buffer alone" (String.make 600 'r')
        (Bytes.to_string buf))

(* --- PMM mirror-health monitor: demotion and re-admission --- *)

let fast_health =
  {
    Pmm.default_health_config with
    Pmm.probe_interval = Time.us 100;
    demote_after = 2;
    readmit_after = 3;
  }

let test_monitor_demotes_and_readmits () =
  let topo = make_topo () in
  Pmm.start_monitor topo.pmm ~cpu:(Node.cpu topo.node 1) ~config:fast_health ();
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h = opened ~msg:"create" (Pm_client.create_region c ~name:"m" ~size:65536) in
      Test_util.check_result_ok "mirrored write" (Pm_client.write c h ~off:0 ~data:(Bytes.create 512));
      Sim.sleep (Time.ms 2);
      check_bool "probing" true (Pmm.monitor_probes topo.pmm > 0);
      check_bool "mirror healthy" true (Pmm.mirror_active topo.pmm);
      check_int "no demotions yet" 0 (Pmm.demotions topo.pmm);
      Npmu.degrade topo.npmu_b ~factor:200.0 ();
      Sim.sleep (Time.ms 20);
      check_int "demoted once" 1 (Pmm.demotions topo.pmm);
      check_bool "mirror fenced out" false (Pmm.mirror_active topo.pmm);
      (* The old grant was fenced by the demotion epoch bump; the client
         refreshes it transparently and writes single-copy. *)
      Test_util.check_result_ok "write under degraded durability"
        (Pm_client.write c h ~off:1024 ~data:(Bytes.create 512));
      check_bool "single-copy write counted" true (Pm_client.single_copy_writes c >= 1);
      Npmu.restore_speed topo.npmu_b;
      Sim.sleep (Time.ms 20);
      check_int "re-admitted once" 1 (Pmm.readmissions topo.pmm);
      check_bool "mirror active again" true (Pmm.mirror_active topo.pmm);
      check_bool "ewma recovered" true (Pmm.monitor_ewma_ns topo.pmm ~mirror:true < 100_000.0);
      (* Mirrored writes resume against the refreshed grant. *)
      Test_util.check_result_ok "mirrored write resumes"
        (Pm_client.write c h ~off:2048 ~data:(Bytes.create 512));
      Pmm.stop_monitor topo.pmm)

let test_demote_mirror_is_idempotent () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let _h = opened ~msg:"create" (Pm_client.create_region c ~name:"d" ~size:65536) in
      check_bool "first demotion" true (Pmm.demote_mirror topo.pmm);
      check_bool "second is a no-op" false (Pmm.demote_mirror topo.pmm);
      check_int "counted once" 1 (Pmm.demotions topo.pmm))

(* --- Fault-plan validation of the fail-slow actions --- *)

let test_faultplan_rejects_bad_slow_events () =
  let sim = Sim.create ~seed:0x11L () in
  Test_util.run_in sim (fun () ->
  let system = Tp.System.build sim Tp.System.pm_config in
  let reject msg ev =
    match Tp.Faultplan.validate (Tp.Faultplan.Single system) [ Tp.Faultplan.at (Time.ms 1) ev ] with
    | Error _ -> ()
    | Ok () -> Alcotest.fail msg
  in
  reject "speedup factor accepted"
    (Tp.Faultplan.Slow_device { device = 0; factor = 0.5; jitter = 0 });
  reject "device out of range"
    (Tp.Faultplan.Slow_device { device = 99; factor = 2.0; jitter = 0 });
  reject "rail out of range" (Tp.Faultplan.Slow_rail { rail = 99; factor = 2.0 });
  reject "negative jitter"
    (Tp.Faultplan.Slow_disk { volume = 0; factor = 2.0; jitter = -1 });
  match Tp.Faultplan.validate (Tp.Faultplan.Single system) (Test_util.drill_spec Tp.Drill.Grayfail).Tp.Drill.plan with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("gray plan rejected: " ^ e))

(* --- The gray-failure drill --- *)

let gray ?(defenses = true) ?flight () =
  Tp.Drill.exec ?flight (Test_util.drill_spec ~defenses Tp.Drill.Grayfail)

let test_gray_drill_defended () =
  let run () =
    match gray () with
    | Ok ({ Tp.Drill.gray = Some g; _ } as r) -> (r, g)
    | Ok _ -> Alcotest.fail "gray drill reported no gray section"
    | Error e -> Alcotest.fail ("gray drill failed: " ^ e)
  in
  let r, g = run () in
  check_int "zero acked rows lost (healthy)" 0 g.Tp.Drill.g_baseline.Tp.Drill.lost_rows;
  check_int "zero acked rows lost (degraded)" 0 r.Tp.Drill.lost_rows;
  check_bool "p99 bounded" true (g.Tp.Drill.g_p99_ratio <= g.Tp.Drill.g_p99_limit);
  check_bool "demoted" true (g.Tp.Drill.g_demotions >= 1);
  check_bool "re-admitted" true (g.Tp.Drill.g_readmissions >= 1);
  check_bool "mirror active at the end" true g.Tp.Drill.g_mirror_active;
  check_bool "client noticed" true (g.Tp.Drill.g_slow_suspects >= 1);
  check_bool "degraded durability used" true (g.Tp.Drill.g_single_copy_writes >= 1);
  check_bool "gate bundle" true (Tp.Drill.Oracle.pass (Tp.Drill.Oracle.of_report r));
  (* Bit-determinism: the same seed replays to the same report. *)
  let r2, g2 = run () in
  check_bool "same seed, same drill" true
    ( g.Tp.Drill.g_p99_ratio = g2.Tp.Drill.g_p99_ratio
    && g.Tp.Drill.g_demotions = g2.Tp.Drill.g_demotions
    && g.Tp.Drill.g_monitor_probes = g2.Tp.Drill.g_monitor_probes
    && r.Tp.Drill.elapsed = r2.Tp.Drill.elapsed
    && g.Tp.Drill.g_single_copy_writes = g2.Tp.Drill.g_single_copy_writes )

let test_gray_drill_negative_control () =
  match gray ~defenses:false () with
  | Error e -> Alcotest.fail ("negative control failed to run: " ^ e)
  | Ok ({ Tp.Drill.gray = Some g; _ } as r) ->
      check_int "still zero loss" 0 r.Tp.Drill.lost_rows;
      check_bool "latency collapses past the gate" true
        (g.Tp.Drill.g_p99_ratio > g.Tp.Drill.g_p99_limit);
      check_int "no monitor ran" 0 g.Tp.Drill.g_monitor_probes;
      check_int "no demotion" 0 g.Tp.Drill.g_demotions;
      check_bool "gate violated" false (Tp.Drill.Oracle.pass (Tp.Drill.Oracle.of_report r))
  | Ok _ -> Alcotest.fail "gray drill reported no gray section"

(* CI's negative control finds the dump by its gate mark: exactly one,
   labelled by the family and stamped with the simulated clock at
   judgement, after every fault. *)
let test_gray_negative_control_flight_mark () =
  let path = Filename.temp_file "flight-grayfail" ".json" in
  let r =
    match gray ~defenses:false ~flight:path () with
    | Error e -> Alcotest.fail ("negative control failed to run: " ^ e)
    | Ok r -> r
  in
  let marks = Test_util.flight_gate_marks path in
  Sys.remove path;
  check_int "one gate mark" 1 (List.length marks);
  let time, label = List.hd marks in
  check_bool "labelled by the gray family" true
    (String.starts_with ~prefix:"gray gate failed: " label);
  check_bool "stamped with the simulated clock" true (time > 0);
  check_bool "after every fault" true
    (List.for_all (fun (t, _) -> time >= t) r.Tp.Drill.faults)

let suite =
  [
    ( "grayfail.inject",
      [
        Alcotest.test_case "NPMU degrade stretches transfers" `Quick
          test_npmu_degrade_stretches_transfers;
        Alcotest.test_case "slow rail stretches transfers" `Quick
          test_rail_slow_stretches_transfers;
        Alcotest.test_case "volume degrade stretches service" `Quick
          test_volume_degrade_stretches_service;
        Alcotest.test_case "fault plan validates fail-slow events" `Quick
          test_faultplan_rejects_bad_slow_events;
      ] );
    ( "grayfail.timeouts",
      [
        Alcotest.test_case "ivar timeout leaves no stale waker" `Quick
          test_ivar_timeout_waker_cleanup;
        Alcotest.test_case "mailbox timeout leaves no stale waker" `Quick
          test_mailbox_timeout_waker_cleanup;
        Alcotest.test_case "management retries are bounded" `Quick test_mgmt_retry_exhausted;
        QCheck_alcotest.to_alcotest prop_backoff_within_ceiling;
      ] );
    ( "grayfail.health",
      [
        Alcotest.test_case "client flags a slow device" `Quick
          test_client_slow_suspect_transitions;
        Alcotest.test_case "hedged read wins on the mirror" `Quick
          test_hedged_read_mirror_wins;
        Alcotest.test_case "hedged loser never lands in the buffer" `Quick
          test_hedged_loser_never_lands_in_buffer;
        Alcotest.test_case "monitor demotes and re-admits" `Quick
          test_monitor_demotes_and_readmits;
        Alcotest.test_case "manual demotion is idempotent" `Quick
          test_demote_mirror_is_idempotent;
      ] );
    ( "grayfail.drill",
      [
        Alcotest.test_case "defended drill passes and replays" `Slow test_gray_drill_defended;
        Alcotest.test_case "negative control collapses" `Slow test_gray_drill_negative_control;
        Alcotest.test_case "negative control dumps one gate mark" `Slow
          test_gray_negative_control_flight_mark;
      ] );
  ]

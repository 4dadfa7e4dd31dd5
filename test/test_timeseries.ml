(* Tests for the continuous-telemetry layer: probe accounting, the
   time-series sampler's delta math, ring bounds, replay determinism,
   the bottleneck-attribution report, and the Json/CSV escaping the
   exports rely on. *)

open Simkit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- Probe: busy/depth accounting under a manual clock --- *)

let test_probe_accounting () =
  let now = ref 0 in
  let p = Probe.create ~clock:(fun () -> !now) () in
  Probe.enqueue p;
  now := 100;
  Probe.enqueue p;
  (* one resident item for 100 ns *)
  now := 300;
  Probe.dequeue p;
  (* plus two resident for 200 ns *)
  Probe.busy_span p 150;
  Probe.busy_span p (-5);
  (* ignored *)
  Probe.dequeue p;
  Probe.dequeue p;
  (* floored: depth never goes negative *)
  check_int "depth floored at zero" 0 (Probe.depth p);
  check_int "max depth" 2 (Probe.max_depth p);
  check_int "enqueued" 2 (Probe.enqueued p);
  check_int "dequeued counts strays" 3 (Probe.dequeued p);
  check_int "busy ignores non-positive" 150 (Probe.busy_total p);
  check_float "integral = 1*100 + 2*200" 500.0 (Probe.depth_integral ~at:400 p);
  (* depth is 0, so reading later adds nothing *)
  check_float "integral pure at depth 0" 500.0 (Probe.depth_integral ~at:1_000 p)

let test_probe_clock_attach_resets_epoch () =
  let now = ref 0 in
  let p = Probe.create () in
  Probe.enqueue p;
  now := 1_000;
  (* attaching the clock must not retroactively charge [0,1000) *)
  Probe.set_clock p (fun () -> !now);
  now := 1_500;
  check_float "integral counts only the clocked era" 500.0 (Probe.depth_integral p)

(* --- Timeseries: counter deltas and rates --- *)

let test_counter_delta_rate () =
  let sim = Sim.create ~seed:1L () in
  let m = Metrics.create () in
  let c = Metrics.counter m "work.ops" in
  let ts = Timeseries.create ~sim ~metrics:m ~interval:(Time.ms 10) () in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"worker" (fun () ->
        Timeseries.start ts;
        for _ = 1 to 3 do
          Sim.sleep (Time.ms 4);
          Stat.Counter.add c 3;
          Sim.sleep (Time.ms 6)
        done;
        Timeseries.stop ts)
  in
  Sim.run sim;
  let samples = Timeseries.samples ts in
  check_int "one sample per interval" 3 (List.length samples);
  List.iter
    (fun s ->
      check_int "interval length" (Time.ms 10) s.Timeseries.s_dt;
      check_float "delta is per-interval" 3.0
        (List.assoc "work.ops.delta" s.Timeseries.s_values);
      check_float "rate is per-second" 300.0
        (List.assoc "work.ops.rate" s.Timeseries.s_values))
    samples

(* --- Timeseries: stat columns describe only the interval slice --- *)

let test_stat_interval_slice () =
  let sim = Sim.create ~seed:1L () in
  let m = Metrics.create () in
  let st = Metrics.stat m "lat" in
  let ts = Timeseries.create ~sim ~metrics:m ~interval:(Time.ms 10) () in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"worker" (fun () ->
        Timeseries.start ts;
        Sim.sleep (Time.ms 1);
        Stat.add st 10.0;
        Stat.add st 20.0;
        Stat.add st 30.0;
        Sim.sleep (Time.ms 11);
        Stat.add st 100.0;
        Sim.sleep (Time.ms 3);
        Timeseries.stop ts)
  in
  Sim.run sim;
  match Timeseries.samples ts with
  | [ s1; s2 ] ->
      let v s k = List.assoc k s.Timeseries.s_values in
      check_float "first interval n" 3.0 (v s1 "lat.n");
      check_float "first interval mean" 20.0 (v s1 "lat.mean");
      check_float "first interval p50" 20.0 (v s1 "lat.p50");
      check_float "first interval p99" 30.0 (v s1 "lat.p99");
      check_float "second interval n" 1.0 (v s2 "lat.n");
      check_float "second interval mean excludes old samples" 100.0 (v s2 "lat.mean");
      check_float "second interval p50" 100.0 (v s2 "lat.p50")
  | l -> Alcotest.failf "expected 2 samples, got %d" (List.length l)

(* --- Timeseries: probe utilization columns --- *)

let test_probe_utilization_columns () =
  let sim = Sim.create ~seed:1L () in
  let m = Metrics.create () in
  let p = Metrics.probe m "res" in
  Probe.set_clock p (fun () -> Sim.now sim);
  let ts = Timeseries.create ~sim ~metrics:m ~interval:(Time.ms 10) () in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"worker" (fun () ->
        Timeseries.start ts;
        (* busy for 4 of the 10 ms, one resident item for 6 of them *)
        Probe.enqueue p;
        Sim.sleep (Time.ms 6);
        Probe.busy_span p (Time.ms 4);
        Probe.dequeue p;
        Sim.sleep (Time.ms 4);
        Timeseries.stop ts)
  in
  Sim.run sim;
  match Timeseries.samples ts with
  | [ s ] ->
      let v k = List.assoc k s.Timeseries.s_values in
      check_float "utilization" 0.4 (v "res.util");
      check_float "mean queue length" 0.6 (v "res.qlen");
      check_float "depth at sample time" 0.0 (v "res.depth");
      check_float "completion rate" 100.0 (v "res.rate");
      (* and the attribution report agrees *)
      (match Timeseries.attribution ts with
      | [ a ] ->
          check_string "resource" "res" a.Timeseries.at_resource;
          check_float "attributed util" 0.4 a.Timeseries.at_utilization;
          check_float "attributed qlen" 0.6 a.Timeseries.at_qlen;
          check_float "only probe takes full share" 1.0 a.Timeseries.at_busy_share
      | l -> Alcotest.failf "expected 1 attribution row, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 sample, got %d" (List.length l)

(* --- Timeseries: ring bound and eviction --- *)

let test_ring_eviction () =
  let sim = Sim.create ~seed:1L () in
  let m = Metrics.create () in
  let n = ref 0 in
  Metrics.register_gauge m "g" (fun () -> float_of_int !n);
  let ts = Timeseries.create ~capacity:3 ~sim ~metrics:m ~interval:(Time.ms 1) () in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"worker" (fun () ->
        Timeseries.start ts;
        for i = 1 to 6 do
          Sim.sleep (Time.ms 1);
          n := i
        done;
        Sim.sleep (Time.us 500);
        Timeseries.stop ts)
  in
  Sim.run sim;
  (* 6 ticks + the final stop sample, minus what the ring dropped *)
  check_int "ring keeps capacity" 3 (Timeseries.sample_count ts);
  check_int "evicted counted" 4 (Timeseries.evicted ts);
  match Timeseries.samples ts with
  | [ s5; s6; s7 ] ->
      check_int "oldest retained is t=5ms" (Time.ms 5) s5.Timeseries.s_time;
      check_int "then t=6ms" (Time.ms 6) s6.Timeseries.s_time;
      check_int "final stop sample" (Time.ms 6 + Time.us 500) s7.Timeseries.s_time;
      check_float "gauge read as-is" 6.0 (List.assoc "g" s7.Timeseries.s_values)
  | _ -> Alcotest.fail "expected exactly 3 retained samples"

let test_create_validates () =
  let sim = Sim.create ~seed:1L () in
  let m = Metrics.create () in
  let raises f = match f () with (_ : Timeseries.t) -> false | exception Invalid_argument _ -> true in
  check_bool "zero interval rejected" true
    (raises (fun () -> Timeseries.create ~sim ~metrics:m ~interval:0 ()));
  check_bool "zero capacity rejected" true
    (raises (fun () -> Timeseries.create ~capacity:0 ~sim ~metrics:m ~interval:1 ()))

(* --- CSV export: header, marks, RFC-4180 quoting --- *)

let test_csv_marks_and_quoting () =
  let sim = Sim.create ~seed:1L () in
  let m = Metrics.create () in
  Metrics.register_gauge m "plain" (fun () -> 1.5);
  Metrics.register_gauge m "odd,\"name\"" (fun () -> 2.0);
  let ts = Timeseries.create ~sim ~metrics:m ~interval:(Time.ms 1) () in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"worker" (fun () ->
        Timeseries.start ts;
        Sim.sleep (Time.ms 1);
        Timeseries.stop ts)
  in
  Sim.run sim;
  Timeseries.mark ts ~time:(Time.us 500) "kill, \"primary\"";
  let csv = Timeseries.to_csv ts in
  check_bool "mark line quoted" true
    (contains csv "# mark,500000,\"kill, \"\"primary\"\"\"");
  check_bool "header quotes odd column" true
    (contains csv "time_ns,dt_ns,\"odd,\"\"name\"\"\",plain");
  check_bool "row present" true (contains csv "1000000,1000000,2,1.5")

(* --- Determinism: same seed, same series --- *)

let sampled_disk_cell () =
  let obs = Obs.create () in
  let c, ts =
    Workloads.Figures.run_cell_sampled ~obs ~sample_interval:(Time.ms 10)
      ~mode:Tp.System.Disk_audit ~drivers:1 ~inserts_per_txn:4 ~records_per_driver:60 ()
  in
  match ts with
  | Some t -> (c, t)
  | None -> Alcotest.fail "sampler missing despite sample_interval"

let test_replay_determinism () =
  let _, t1 = sampled_disk_cell () in
  let _, t2 = sampled_disk_cell () in
  let csv1 = Timeseries.to_csv t1 and csv2 = Timeseries.to_csv t2 in
  check_bool "series is non-trivial" true (String.length csv1 > 1_000);
  check_bool "same seed, byte-identical series" true (csv1 = csv2)

(* --- Sampling must not perturb the workload --- *)

let test_sampler_is_read_only () =
  let base =
    let obs = Obs.create () in
    Workloads.Figures.run_cell ~obs ~mode:Tp.System.Disk_audit ~drivers:1
      ~inserts_per_txn:4 ~records_per_driver:60 ()
  in
  let sampled, _ = sampled_disk_cell () in
  let b = base.Workloads.Figures.result and s = sampled.Workloads.Figures.result in
  check_int "same elapsed" b.Workloads.Hot_stock.elapsed s.Workloads.Hot_stock.elapsed;
  check_int "same commits" b.Workloads.Hot_stock.committed s.Workloads.Hot_stock.committed;
  check_int "same audit bytes" b.Workloads.Hot_stock.audit_bytes
    s.Workloads.Hot_stock.audit_bytes;
  check_bool "same mean response" true
    (b.Workloads.Hot_stock.response.Stat.mean = s.Workloads.Hot_stock.response.Stat.mean)

(* --- End to end: the attribution report finds the paper's bottleneck --- *)

let layer_prefixes = [ "msgsys."; "fabric."; "vol."; "cpu."; "adp."; "tmf." ]

let test_disk_mode_bottleneck_is_audit_volume () =
  let _, ts = sampled_disk_cell () in
  let cols = Timeseries.paths ts in
  List.iter
    (fun pfx ->
      check_bool ("columns cover " ^ pfx) true
        (List.exists (fun c -> String.length c >= String.length pfx
                               && String.sub c 0 (String.length pfx) = pfx) cols))
    layer_prefixes;
  match Timeseries.attribution ts with
  | top :: _ ->
      check_bool
        ("disk mode bottleneck is an audit volume, got " ^ top.Timeseries.at_resource)
        true
        (String.length top.Timeseries.at_resource >= 10
        && String.sub top.Timeseries.at_resource 0 10 = "vol.$AUDIT")
  | [] -> Alcotest.fail "empty attribution report"

let test_pm_mode_bottleneck_is_not_audit_volume () =
  let obs = Obs.create () in
  let _, ts =
    Workloads.Figures.run_cell_sampled ~obs ~sample_interval:(Time.ms 10)
      ~mode:Tp.System.Pm_audit ~drivers:1 ~inserts_per_txn:4 ~records_per_driver:60 ()
  in
  let ts = match ts with Some t -> t | None -> Alcotest.fail "sampler missing" in
  let cols = Timeseries.paths ts in
  List.iter
    (fun pfx ->
      check_bool ("columns cover " ^ pfx) true
        (List.exists (fun c -> String.length c >= String.length pfx
                               && String.sub c 0 (String.length pfx) = pfx) cols))
    ("npmu." :: "pm." :: layer_prefixes);
  match Timeseries.attribution ts with
  | top :: _ ->
      check_bool
        ("PM mode bottleneck is not an audit volume, got " ^ top.Timeseries.at_resource)
        false
        (String.length top.Timeseries.at_resource >= 10
        && String.sub top.Timeseries.at_resource 0 10 = "vol.$AUDIT")
  | [] -> Alcotest.fail "empty attribution report"

(* --- Json escaping (the exports lean on it) --- *)

let test_json_escaping () =
  check_string "control and quote escapes"
    "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\""
    (Json.to_string (Json.String "a\"b\\c\nd\te\r\x01"));
  check_string "object keys escaped too" "{\"k\\\"1\":1}"
    (Json.to_string (Json.Obj [ ("k\"1", Json.Int 1) ]));
  check_string "nan has no JSON literal" "null" (Json.to_string (Json.Float Float.nan));
  check_string "infinity has no JSON literal" "[null,null]"
    (Json.to_string (Json.List [ Json.Float Float.infinity; Json.Float Float.neg_infinity ]));
  check_string "integral floats stay exact" "1234567890" (Json.to_string (Json.Float 1234567890.0))

let suite =
  [
    ( "timeseries.probe",
      [
        Alcotest.test_case "busy/depth accounting" `Quick test_probe_accounting;
        Alcotest.test_case "late clock attach resets epoch" `Quick
          test_probe_clock_attach_resets_epoch;
      ] );
    ( "timeseries.sampler",
      [
        Alcotest.test_case "counter deltas and rates" `Quick test_counter_delta_rate;
        Alcotest.test_case "stat interval slices" `Quick test_stat_interval_slice;
        Alcotest.test_case "probe utilization columns" `Quick
          test_probe_utilization_columns;
        Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
        Alcotest.test_case "create validates" `Quick test_create_validates;
        Alcotest.test_case "csv marks and quoting" `Quick test_csv_marks_and_quoting;
      ] );
    ( "timeseries.end_to_end",
      [
        Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
        Alcotest.test_case "sampler is read-only" `Quick test_sampler_is_read_only;
        Alcotest.test_case "disk bottleneck is the audit volume" `Quick
          test_disk_mode_bottleneck_is_audit_volume;
        Alcotest.test_case "pm bottleneck is not the audit volume" `Quick
          test_pm_mode_bottleneck_is_not_audit_volume;
      ] );
    ( "timeseries.rendering",
      [
        Alcotest.test_case "json escaping" `Quick test_json_escaping;
      ] );
  ]

(* odsbench: run any experiment of the reproduction from the command line.

   Every sub-command prints a small table to stdout.  --records scales the
   per-driver record count down from the paper's 32 000 for quick runs. *)

open Cmdliner
open Simkit
open Workloads

let records_arg default =
  let doc = "Records inserted per driver (paper: 32000)." in
  Arg.(value & opt int default & info [ "records" ] ~docv:"N" ~doc)

let modes = [ ("disk", Tp.System.Disk_audit); ("pm", Tp.System.Pm_audit) ]

let mode_to_string m = fst (List.find (fun (_, m') -> m' = m) modes)

(* One closed [--mode disk|pm] flag for every command that takes exactly
   these two: a typo is a usage error, never a silent disk run. *)
let mode_arg =
  Arg.(
    value
    & opt (enum modes) Tp.System.Disk_audit
    & info [ "mode" ] ~docv:"disk|pm" ~doc:"Audit backend.")

(* Commands whose --mode offers more than disk|pm keep it as a string,
   drawn from a closed set all the same. *)
let mode_choice ~default names ~doc =
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) default
    & info [ "mode" ] ~docv:(String.concat "|" names) ~doc)

(* One closed [--device npmu|pmp] flag: a misspelt device is a usage
   error, never a silent NPMU run. *)
let device_arg =
  Arg.(
    value
    & opt
        (enum [ ("npmu", Tp.System.Hardware_npmu); ("pmp", Tp.System.Prototype_pmp) ])
        Tp.System.Hardware_npmu
    & info [ "device" ] ~docv:"npmu|pmp" ~doc:"PM device kind (hardware NPMU or prototype PMP).")

let hr () = print_endline (String.make 72 '-')

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let json_arg =
  let doc = "Emit the table as a JSON document on stdout instead of text." in
  Cmdliner.Arg.(value & flag & info [ "json" ] ~doc)

(* Shared cell setup for the hot-stock/metrics/trace/timeline commands:
   derive a config from mode+device, build a system, run the mix —
   optionally under an observability context with a telemetry sampler
   running from build to workload end. *)
let run_hot_stock_cell ?obs ?sample_interval ?(device = Tp.System.Hardware_npmu)
    ?(seed = 0xF19L) ~mode ~drivers ~boxcar ~records () =
  let base =
    match device with
    | Tp.System.Prototype_pmp ->
        { Tp.System.pm_config with Tp.System.pm_device_kind = Tp.System.Prototype_pmp }
    | Tp.System.Hardware_npmu -> Tp.System.default_config
  in
  let cfg =
    match mode with
    | Tp.System.Disk_audit -> { base with Tp.System.log_mode = Tp.System.Disk_audit }
    | Tp.System.Pm_audit ->
        { base with Tp.System.log_mode = Tp.System.Pm_audit; txn_state_in_pm = true }
  in
  let sim = Sim.create ~seed () in
  let out = ref None in
  let ts = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"cell" (fun () ->
        let system = Tp.System.build ?obs sim cfg in
        (match (sample_interval, obs) with
        | Some interval, Some o ->
            let t = Timeseries.create ~sim ~metrics:(Obs.metrics o) ~interval () in
            Timeseries.start t;
            ts := Some t
        | _ -> ());
        let params =
          { Hot_stock.drivers; records_per_driver = records; record_bytes = 4096;
            inserts_per_txn = boxcar }
        in
        let result = Hot_stock.run system params in
        (match !ts with Some t -> Timeseries.stop t | None -> ());
        out := Some (system, result))
  in
  Sim.run sim;
  match !out with
  | Some (system, result) ->
      (system, { Figures.mode; drivers; inserts_per_txn = boxcar; result }, !ts)
  | None -> failwith "cell incomplete"

(* --- fig1 --- *)

let fig1_json points =
  Json.List
    (List.map
       (fun p ->
         Json.Obj
           [
             ("drivers", Json.Int p.Figures.f1_drivers);
             ("boxcar", Json.Int p.Figures.f1_boxcar);
             ("txn_size", Json.String p.Figures.txn_size);
             ("rt_disk_us", Json.Float p.Figures.rt_disk_us);
             ("rt_pm_us", Json.Float p.Figures.rt_pm_us);
             ("speedup", Json.Float p.Figures.speedup);
           ])
       points)

let fig1 records json =
  let points = Figures.figure1 ~records_per_driver:records () in
  if json then print_endline (Json.to_string (fig1_json points))
  else begin
  Printf.printf "FIGURE 1: response-time speedup with PM vs transaction size\n";
  Printf.printf "(paper: up to 3.5x, best at small boxcars and 1-2 drivers)\n";
  hr ();
  Printf.printf "%8s %8s %12s %12s %10s\n" "drivers" "txnsize" "disk RT(ms)" "PM RT(ms)" "speedup";
  List.iter
    (fun p ->
      Printf.printf "%8d %8s %12.2f %12.2f %10.2f\n" p.Figures.f1_drivers p.Figures.txn_size
        (p.Figures.rt_disk_us /. 1e3) (p.Figures.rt_pm_us /. 1e3) p.Figures.speedup)
    points;
  hr ()
  end

let fig1_cmd =
  Cmd.v
    (Cmd.info "fig1" ~doc:"Reproduce Figure 1 (response-time speedup vs boxcarring)")
    Term.(const fig1 $ records_arg 32_000 $ json_arg)

(* --- fig2 --- *)

let fig2_json points =
  Json.List
    (List.map
       (fun p ->
         Json.Obj
           [
             ("drivers", Json.Int p.Figures.f2_drivers);
             ("boxcar", Json.Int p.Figures.f2_boxcar);
             ("txn_size", Json.String p.Figures.f2_txn_size);
             ("elapsed_disk_s", Json.Float p.Figures.elapsed_disk_s);
             ("elapsed_pm_s", Json.Float p.Figures.elapsed_pm_s);
           ])
       points)

let fig2 records json =
  let points = Figures.figure2 ~records_per_driver:records () in
  if json then print_endline (Json.to_string (fig2_json points))
  else begin
  Printf.printf "FIGURE 2: elapsed time vs transaction size (PM eliminates boxcarring)\n";
  Printf.printf "(paper: no-PM rises sharply as boxcarring shrinks; PM nearly flat)\n";
  hr ();
  Printf.printf "%8s %8s %16s %14s\n" "drivers" "txnsize" "disk elapsed(s)" "PM elapsed(s)";
  List.iter
    (fun p ->
      Printf.printf "%8d %8s %16.2f %14.2f\n" p.Figures.f2_drivers p.Figures.f2_txn_size
        p.Figures.elapsed_disk_s p.Figures.elapsed_pm_s)
    points;
  hr ()
  end

let fig2_cmd =
  Cmd.v
    (Cmd.info "fig2" ~doc:"Reproduce Figure 2 (elapsed time vs boxcarring)")
    Term.(const fig2 $ records_arg 32_000 $ json_arg)

(* --- breakdown: machine-readable commit-latency attribution --- *)

let breakdown_json b =
  let mode_json m =
    Json.Obj
      [
        ("mode", Json.String (mode_to_string m.Figures.b_mode));
        ("commits", Json.Int m.Figures.b_commits);
        ("rt_mean_ns", Json.Float m.Figures.b_rt_ns);
        ("flush_share", Json.Float m.Figures.b_flush_share);
        ( "stages",
          Json.List
            (List.map
               (fun st ->
                 Json.Obj
                   [
                     ("stage", Json.String st.Figures.stage_name);
                     ("mean_ns", Json.Float st.Figures.stage_ns);
                     ("share", Json.Float st.Figures.stage_share);
                   ])
               m.Figures.b_stages) );
      ]
  in
  Json.Obj
    [
      ("drivers", Json.Int b.Figures.bd_drivers);
      ("boxcar", Json.Int b.Figures.bd_boxcar);
      ("disk", mode_json b.Figures.bd_disk);
      ("pm", mode_json b.Figures.bd_pm);
      ("disk_flush_share", Json.Float b.Figures.bd_disk_flush_share);
      ("pm_flush_share", Json.Float b.Figures.bd_pm_flush_share);
    ]

let breakdown records drivers boxcar json =
  let b = Figures.breakdown ~records_per_driver:records ~drivers ~boxcar () in
  if json then print_endline (Json.to_string (breakdown_json b))
  else begin
    Printf.printf "Commit-latency breakdown (%d drivers, boxcar %d, %d records/driver)\n"
      b.Figures.bd_drivers b.Figures.bd_boxcar records;
    Printf.printf "(where a committed transaction's response time goes, per the registry)\n";
    let one m =
      hr ();
      Printf.printf "mode=%s  commits=%d  mean RT=%.2f ms  flush share=%.0f%%\n"
        (mode_to_string m.Figures.b_mode) m.Figures.b_commits (m.Figures.b_rt_ns /. 1e6)
        (m.Figures.b_flush_share *. 100.);
      List.iter
        (fun st ->
          Printf.printf "  %-40s %10.3f ms %6.1f%%\n" st.Figures.stage_name
            (st.Figures.stage_ns /. 1e6)
            (st.Figures.stage_share *. 100.))
        m.Figures.b_stages
    in
    one b.Figures.bd_disk;
    one b.Figures.bd_pm;
    hr ()
  end

let breakdown_cmd =
  let drivers = Arg.(value & opt int 1 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:"Attribute commit latency to pipeline stages, disk vs PM audit")
    Term.(const breakdown $ records_arg 2_000 $ drivers $ boxcar $ json_arg)

(* --- trace: span capture to a Chrome/Perfetto trace file --- *)

let trace mode drivers boxcar records out =
  let obs = Obs.create () in
  Span.enable (Obs.spans obs);
  let _system, (_ : Figures.cell), _ts =
    run_hot_stock_cell ~obs ~mode ~drivers ~boxcar ~records ()
  in
  let spans = Obs.spans obs in
  let oc = open_out out in
  output_string oc (Span.to_chrome_json spans);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %d spans to %s (%d dropped)\n" (Span.count spans) out
    (Span.dropped spans);
  Printf.printf "open in a Chromium browser at chrome://tracing, or https://ui.perfetto.dev\n"

let trace_cmd =
  let drivers = Arg.(value & opt int 1 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a hot-stock cell with span tracing on and write a Chrome trace file")
    Term.(const trace $ mode_arg $ drivers $ boxcar $ records_arg 200 $ out)

(* --- metrics: dump the full registry for one cell --- *)

let metrics_dump mode drivers boxcar records json =
  let obs = Obs.create () in
  let _system, (_ : Figures.cell), _ts =
    run_hot_stock_cell ~obs ~mode ~drivers ~boxcar ~records ()
  in
  let m = Obs.metrics obs in
  if json then print_endline (Metrics.to_json m)
  else Format.printf "%a@?" Metrics.pp_table m

let metrics_cmd =
  let drivers = Arg.(value & opt int 2 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Run a hot-stock cell and dump the whole metrics registry")
    Term.(const metrics_dump $ mode_arg $ drivers $ boxcar $ records_arg 1_000 $ json_arg)

(* --- single cell --- *)

let cell mode device drivers boxcar records verbose =
  let system, c, _ts = run_hot_stock_cell ~device ~mode ~drivers ~boxcar ~records () in
  if verbose then Format.printf "%a" Tp.System.report system;
  let r = c.Figures.result in
  Printf.printf "hot-stock: mode=%s drivers=%d boxcar=%d records=%d\n" (mode_to_string mode)
    drivers boxcar records;
  hr ();
  Printf.printf "elapsed          %.3f s\n" (Time.to_sec r.Hot_stock.elapsed);
  Printf.printf "transactions     %d (committed %d)\n" r.Hot_stock.txns r.Hot_stock.committed;
  Printf.printf "throughput       %.1f txn/s\n" r.Hot_stock.throughput_tps;
  Printf.printf "response mean    %.2f ms\n" (r.Hot_stock.response.Stat.mean /. 1e6);
  Printf.printf "response p50     %.2f ms\n" (r.Hot_stock.response.Stat.p50 /. 1e6);
  Printf.printf "response p99     %.2f ms\n" (r.Hot_stock.response.Stat.p99 /. 1e6);
  Printf.printf "audit bytes      %d\n" r.Hot_stock.audit_bytes;
  Printf.printf "checkpoint bytes %d\n" r.Hot_stock.checkpoint_bytes;
  hr ()

let cell_cmd =
  let drivers = Arg.(value & opt int 2 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  let verbose =
    Arg.(value & flag & info [ "report" ] ~doc:"Print the per-subsystem operator report.")
  in
  Cmd.v
    (Cmd.info "hot-stock" ~doc:"Run one hot-stock configuration and print details")
    Term.(const cell $ mode_arg $ device_arg $ drivers $ boxcar $ records_arg 4_000 $ verbose)

(* --- E3 latency sweep --- *)

let sweep_latency records =
  Printf.printf "E3: PM write-latency sweep (1 driver, boxcar 8)\n";
  Printf.printf "(the PM advantage should die as the device approaches disk speed)\n";
  hr ();
  Printf.printf "%14s %12s %18s\n" "penalty" "RT (ms)" "speedup vs disk";
  List.iter
    (fun p ->
      Printf.printf "%14s %12.2f %18.2f\n" (Time.to_string p.Figures.penalty)
        (p.Figures.rt_us /. 1e3) p.Figures.speedup_vs_disk)
    (Figures.latency_sweep ~records_per_driver:records ());
  hr ()

let sweep_latency_cmd =
  Cmd.v
    (Cmd.info "sweep-latency" ~doc:"E3: sweep extra PM device write latency")
    Term.(const sweep_latency $ records_arg 4_000)

(* --- E4 mirror ablation --- *)

let sweep_mirror records =
  Printf.printf "E4: mirrored vs unmirrored PM writes (2 drivers, boxcar 8)\n";
  hr ();
  Printf.printf "%10s %12s %14s\n" "mirrored" "RT (ms)" "elapsed (s)";
  List.iter
    (fun p ->
      Printf.printf "%10b %12.2f %14.2f\n" p.Figures.mirrored (p.Figures.rt_us /. 1e3)
        p.Figures.elapsed_s)
    (Figures.mirror_ablation ~records_per_driver:records ());
  hr ()

let sweep_mirror_cmd =
  Cmd.v
    (Cmd.info "sweep-mirror" ~doc:"E4: mirroring-cost ablation")
    Term.(const sweep_mirror $ records_arg 4_000)

(* Recovery failures must reach the operator: message on stderr, exit
   non-zero — not a line lost in a table on stdout. *)
let or_die f =
  try f ()
  with Failure msg ->
    prerr_endline ("odsbench: " ^ msg);
    exit 1

(* --- E5 MTTR --- *)

let mttr records =
  or_die @@ fun () ->
  Printf.printf "E5: crash-recovery time (MTTR), disk scan vs PM fine-grained state\n";
  hr ();
  List.iter
    (fun p ->
      Printf.printf "%-5s %s\n" (mode_to_string p.Figures.m_mode)
        (Format.asprintf "%a" Tp.Recovery.pp_report p.Figures.report))
    (Figures.mttr ~records_per_driver:records ());
  hr ()

let mttr_cmd =
  Cmd.v (Cmd.info "mttr" ~doc:"E5: MTTR comparison") Term.(const mttr $ records_arg 2_000)

(* --- E6 ADP scaling --- *)

let scale_adp records =
  Printf.printf "E6: audit throughput vs ADPs per node (4 drivers, boxcar 8)\n";
  hr ();
  Printf.printf "%6s %6s %12s\n" "adps" "mode" "txn/s";
  List.iter
    (fun p ->
      Printf.printf "%6d %6s %12.1f\n" p.Figures.adps (mode_to_string p.Figures.a_mode)
        p.Figures.tps)
    (Figures.adp_scaling ~records_per_driver:records ());
  hr ()

let scale_adp_cmd =
  Cmd.v
    (Cmd.info "scale-adp" ~doc:"E6: multiple ADPs per node")
    Term.(const scale_adp $ records_arg 4_000)

(* --- E7 failover --- *)

let failover records =
  or_die @@ fun () ->
  Printf.printf "E7: ADP process-pair failover under load (disk mode)\n";
  hr ();
  let r = Figures.failover_under_load ~records_per_driver:records () in
  Printf.printf "committed before failure  %d\n" r.Figures.committed_before;
  Printf.printf "committed total           %d\n" r.Figures.committed_total;
  Printf.printf "ADP takeovers             %d\n" r.Figures.adp_takeovers;
  Printf.printf "takeover delay            %s\n" (Time.to_string r.Figures.outage);
  Printf.printf "lost transactions         %d\n" r.Figures.lost_transactions;
  hr ()

let failover_cmd =
  Cmd.v
    (Cmd.info "failover" ~doc:"E7: process-pair takeover under load")
    Term.(const failover $ records_arg 400)

(* --- drill: fault schedule + durability audit --- *)

let faults_json faults =
  Json.List
    (List.map
       (fun (t, desc) ->
         Json.Obj [ ("at_ms", Json.Float (Time.to_ms t)); ("fault", Json.String desc) ])
       faults)

let faults_text faults =
  hr ();
  List.iter (fun (t, desc) -> Printf.printf "%10.1f ms  %s\n" (Time.to_ms t) desc) faults;
  hr ()

let response_json (s : Stat.summary) =
  Json.Obj
    [
      ("mean", Json.Float (s.Stat.mean /. 1e6));
      ("p50", Json.Float (s.Stat.p50 /. 1e6));
      ("p99", Json.Float (s.Stat.p99 /. 1e6));
    ]

let response_text (s : Stat.summary) =
  Printf.printf "response mean/p99  %.2f / %.2f ms\n" (s.Stat.mean /. 1e6) (s.Stat.p99 /. 1e6)

(* Every recovery field a report can carry; each drill family emits the
   subset its schema has always had. *)
let recovery_json keys (rr : Tp.Recovery.report) =
  Json.Obj
    (List.filter
       (fun (k, _) -> List.mem k keys)
       [
         ("mttr_ms", Json.Float (Time.to_ms rr.Tp.Recovery.mttr));
         ( "outcome_source",
           Json.String
             (match rr.Tp.Recovery.outcome_source with
             | Tp.Recovery.Mat_scan -> "mat_scan"
             | Tp.Recovery.Pm_txn_table -> "pm_txn_table") );
         ("committed_txns", Json.Int rr.Tp.Recovery.committed_txns);
         ("in_doubt_txns", Json.Int rr.Tp.Recovery.in_doubt_txns);
         ("resolved_commit", Json.Int rr.Tp.Recovery.resolved_commit);
         ("resolved_abort", Json.Int rr.Tp.Recovery.resolved_abort);
         ("rows_rebuilt", Json.Int rr.Tp.Recovery.rows_rebuilt);
       ])

let recovery_keys =
  [ "mttr_ms"; "committed_txns"; "in_doubt_txns"; "resolved_commit"; "resolved_abort"; "rows_rebuilt" ]

let recovery_text label (rr : Tp.Recovery.report) =
  Printf.printf "%-19sMTTR %s, %d committed txns, %d rows\n" label
    (Time.to_string rr.Tp.Recovery.mttr)
    rr.Tp.Recovery.committed_txns rr.Tp.Recovery.rows_rebuilt

let timeline_json ?(bottlenecks = false) = function
  | Some ts ->
      Json.Obj
        ([
           ("samples", Json.Int (Timeseries.sample_count ts));
           ("evicted", Json.Int (Timeseries.evicted ts));
           ("series", Timeseries.json ts);
         ]
        @ if bottlenecks then [ ("bottlenecks", Timeseries.attribution_json ts) ] else [])
  | None -> Json.Null

(* Every drill report names its seed and plan at top level so a CI
   artifact is self-describing without knowing which command wrote it. *)
let drill_json ~plan (r : Tp.Drill.report) =
  let a = r.Tp.Drill.availability in
  Json.Obj
    [
      ("mode", Json.String (mode_to_string r.Tp.Drill.mode));
      ("plan", Json.String plan);
      ("seed", Json.String (Printf.sprintf "0x%Lx" r.Tp.Drill.seed));
      ("elapsed_s", Json.Float (Time.to_sec r.Tp.Drill.elapsed));
      ("faults", faults_json r.Tp.Drill.faults);
      ("attempted_txns", Json.Int r.Tp.Drill.attempted_txns);
      ("committed", Json.Int r.Tp.Drill.committed);
      ("failed_txns", Json.Int r.Tp.Drill.failed_txns);
      ("acked_rows", Json.Int r.Tp.Drill.acked_rows);
      ("recovered_rows", Json.Int r.Tp.Drill.recovered_rows);
      ("lost_rows", Json.Int r.Tp.Drill.lost_rows);
      ("in_doubt_after", Json.Int r.Tp.Drill.in_doubt_after);
      ("orphaned_locks", Json.Int r.Tp.Drill.orphaned_locks);
      ("fence_checks", Json.Int r.Tp.Drill.fence_checks);
      ("fence_failures", Json.Int r.Tp.Drill.fence_failures);
      ("zero_loss", Json.Bool (Tp.Drill.zero_loss r));
      ("oracle", Tp.Drill.Oracle.to_json (Tp.Drill.Oracle.of_report r));
      ( "integrity",
        match r.Tp.Drill.integrity with
        | None -> Json.Null
        | Some i ->
            Json.Obj
              [
                ("decay_injected", Json.Int i.Tp.Drill.decay_injected);
                ("torn_injected", Json.Int i.Tp.Drill.torn_injected);
                ("scrub_chunks", Json.Int i.Tp.Drill.scrub_chunks);
                ("scrub_repairs", Json.Int i.Tp.Drill.scrub_repairs);
                ("scrub_quarantined", Json.Int i.Tp.Drill.scrub_quarantined);
                ("read_repairs", Json.Int i.Tp.Drill.read_repairs);
                ("verify_unrepaired", Json.Int i.Tp.Drill.verify_unrepaired);
                ("unrepaired_divergence", Json.Int i.Tp.Drill.unrepaired_divergence);
                ("clean", Json.Bool (Tp.Drill.integrity_clean r));
              ] );
      ("response_ms", response_json r.Tp.Drill.response);
      ( "availability",
        Json.Obj
          [
            ( "takeovers",
              Json.Obj
                [
                  ("adp", Json.Int a.Tp.Drill.adp_takeovers);
                  ("dp2", Json.Int a.Tp.Drill.dp2_takeovers);
                  ("tmf", Json.Int a.Tp.Drill.tmf_takeovers);
                  ("pmm", Json.Int a.Tp.Drill.pmm_takeovers);
                ] );
            ("outage_ms", Json.Float (Time.to_ms a.Tp.Drill.outage));
            ("degraded_writes", Json.Int a.Tp.Drill.degraded_writes);
            ("pm_write_retries", Json.Int a.Tp.Drill.pm_write_retries);
            ("packet_retries", Json.Int a.Tp.Drill.packet_retries);
          ] );
      ("recovery", recovery_json ("outcome_source" :: recovery_keys) r.Tp.Drill.recovery);
      ("timeline", timeline_json ~bottlenecks:true r.Tp.Drill.timeline);
    ]

(* Event-aligned availability overlay: the sampled commit/failure gauges
   interleaved, in time order, with the fault injections as marks. *)
let drill_overlay (ts : Timeseries.t) =
  Printf.printf "availability overlay (sampled every %s, %d samples, %d evicted):\n"
    (Time.to_string (Timeseries.interval ts))
    (Timeseries.sample_count ts) (Timeseries.evicted ts);
  Printf.printf "%12s %10s %8s\n" "t(ms)" "committed" "failed";
  let value s key =
    match List.assoc_opt key s.Timeseries.s_values with Some v -> v | None -> 0.0
  in
  let rec go samples marks =
    match (samples, marks) with
    | [], [] -> ()
    | _, (mt, label) :: ms
      when (match samples with
           | [] -> true
           | s :: _ -> mt <= s.Timeseries.s_time) ->
        Printf.printf "%12.1f  >> fault: %s\n" (Time.to_ms mt) label;
        go samples ms
    | s :: ss, _ ->
        Printf.printf "%12.1f %10.0f %8.0f\n"
          (Time.to_ms s.Timeseries.s_time)
          (value s "drill.committed") (value s "drill.failed");
        go ss marks
    | [], _ :: _ -> ()
  in
  go (Timeseries.samples ts) (Timeseries.marks ts)

let drill_text (r : Tp.Drill.report) =
  let a = r.Tp.Drill.availability in
  Printf.printf "drill: mode=%s seed=0x%Lx — hot-stock load under a fault schedule\n"
    (mode_to_string r.Tp.Drill.mode) r.Tp.Drill.seed;
  faults_text r.Tp.Drill.faults;
  Printf.printf "load elapsed       %.3f s\n" (Time.to_sec r.Tp.Drill.elapsed);
  Printf.printf "transactions       %d attempted, %d acked, %d failed\n"
    r.Tp.Drill.attempted_txns r.Tp.Drill.committed r.Tp.Drill.failed_txns;
  response_text r.Tp.Drill.response;
  Printf.printf "takeovers          adp=%d dp2=%d tmf=%d pmm=%d (outage %s)\n"
    a.Tp.Drill.adp_takeovers a.Tp.Drill.dp2_takeovers a.Tp.Drill.tmf_takeovers
    a.Tp.Drill.pmm_takeovers
    (Time.to_string a.Tp.Drill.outage);
  Printf.printf "degraded PM writes %d (retried %d, packet retries %d)\n"
    a.Tp.Drill.degraded_writes a.Tp.Drill.pm_write_retries a.Tp.Drill.packet_retries;
  recovery_text "recovery" r.Tp.Drill.recovery;
  Printf.printf "durability         %d acked rows, %d recovered, %d LOST — %s\n"
    r.Tp.Drill.acked_rows r.Tp.Drill.recovered_rows r.Tp.Drill.lost_rows
    (if Tp.Drill.zero_loss r then "zero loss" else "DATA LOSS");
  (match r.Tp.Drill.integrity with
  | None -> ()
  | Some i ->
      Printf.printf "corruption         %d decay, %d torn injected\n"
        i.Tp.Drill.decay_injected i.Tp.Drill.torn_injected;
      Printf.printf "scrubber           %d chunks scanned, %d repaired, %d quarantined\n"
        i.Tp.Drill.scrub_chunks i.Tp.Drill.scrub_repairs i.Tp.Drill.scrub_quarantined;
      Printf.printf "verified reads     %d repaired, %d unrepaired\n"
        i.Tp.Drill.read_repairs i.Tp.Drill.verify_unrepaired;
      Printf.printf "integrity audit    %d divergent chunks left — %s\n"
        i.Tp.Drill.unrepaired_divergence
        (if i.Tp.Drill.unrepaired_divergence = 0 then "clean" else "SILENT CORRUPTION"));
  hr ();
  match r.Tp.Drill.timeline with
  | Some ts ->
      drill_overlay ts;
      hr ();
      Printf.printf "bottleneck attribution (load phase):\n";
      Format.printf "%a@?" Timeseries.pp_attribution ts;
      hr ()
  | None -> ()

let cluster_drill_json ~plan (r : Tp.Drill.cluster_report) =
  Json.Obj
    [
      ("mode", Json.String "cluster");
      ("plan", Json.String plan);
      ("seed", Json.String (Printf.sprintf "0x%Lx" r.Tp.Drill.c_seed));
      ("nodes", Json.Int r.Tp.Drill.c_nodes);
      ("elapsed_s", Json.Float (Time.to_sec r.Tp.Drill.c_elapsed));
      ("faults", faults_json r.Tp.Drill.c_faults);
      ("attempted_txns", Json.Int r.Tp.Drill.c_attempted);
      ("committed", Json.Int r.Tp.Drill.c_committed);
      ("failed_txns", Json.Int r.Tp.Drill.c_failed);
      ("acked_rows", Json.Int r.Tp.Drill.c_acked_rows);
      ("lost_rows", Json.Int r.Tp.Drill.c_lost_rows);
      ("in_doubt_before", Json.Int r.Tp.Drill.c_in_doubt_before);
      ("resolved_commit", Json.Int r.Tp.Drill.c_resolved_commit);
      ("resolved_abort", Json.Int r.Tp.Drill.c_resolved_abort);
      ("in_doubt_after", Json.Int r.Tp.Drill.c_in_doubt_after);
      ("orphaned_locks", Json.Int r.Tp.Drill.c_orphaned_locks);
      ("fence_checks", Json.Int r.Tp.Drill.c_fence_checks);
      ("fence_failures", Json.Int r.Tp.Drill.c_fence_failures);
      ("fenced_writes", Json.Int r.Tp.Drill.c_fenced_writes);
      ("zero_loss", Json.Bool (Tp.Drill.Oracle.pass (Tp.Drill.Oracle.of_cluster r)));
      ("oracle", Tp.Drill.Oracle.to_json (Tp.Drill.Oracle.of_cluster r));
      ("response_ms", response_json r.Tp.Drill.c_response);
      ("recoveries", Json.List (List.map (recovery_json recovery_keys) r.Tp.Drill.c_recoveries));
    ]

let cluster_drill_text (r : Tp.Drill.cluster_report) =
  Printf.printf
    "drill: mode=cluster nodes=%d seed=0x%Lx — distributed hot-stock load under a WAN \
     partition\n"
    r.Tp.Drill.c_nodes r.Tp.Drill.c_seed;
  faults_text r.Tp.Drill.c_faults;
  Printf.printf "load elapsed       %.3f s\n" (Time.to_sec r.Tp.Drill.c_elapsed);
  Printf.printf "transactions       %d attempted, %d acked, %d failed\n"
    r.Tp.Drill.c_attempted r.Tp.Drill.c_committed r.Tp.Drill.c_failed;
  response_text r.Tp.Drill.c_response;
  Printf.printf "in-doubt window    %d entering recovery, %d resolved commit, %d resolved \
                 abort, %d left\n"
    r.Tp.Drill.c_in_doubt_before r.Tp.Drill.c_resolved_commit r.Tp.Drill.c_resolved_abort
    r.Tp.Drill.c_in_doubt_after;
  Printf.printf "epoch fence        %d checks, %d failures, %d stale writes rejected\n"
    r.Tp.Drill.c_fence_checks r.Tp.Drill.c_fence_failures r.Tp.Drill.c_fenced_writes;
  Printf.printf "orphaned locks     %d\n" r.Tp.Drill.c_orphaned_locks;
  List.iteri
    (fun i rr -> recovery_text (Printf.sprintf "recovery node %d" i) rr)
    r.Tp.Drill.c_recoveries;
  Printf.printf "durability         %d acked rows, %d LOST — %s\n" r.Tp.Drill.c_acked_rows
    r.Tp.Drill.c_lost_rows
    (if Tp.Drill.Oracle.pass (Tp.Drill.Oracle.of_cluster r) then "zero loss"
     else "INVARIANT VIOLATED");
  hr ()

let gray_drill_json (g : Tp.Drill.gray_report) =
  Json.Obj
    [
      ("mode", Json.String "pm");
      ("plan", Json.String "grayfail");
      ("seed", Json.String (Printf.sprintf "0x%Lx" g.Tp.Drill.g_seed));
      ("defended", Json.Bool g.Tp.Drill.g_defended);
      ( "latency_ms",
        Json.Obj
          [
            ("healthy_p99", Json.Float (g.Tp.Drill.g_healthy.Tp.Drill.response.Stat.p99 /. 1e6));
            ( "degraded_p99",
              Json.Float (g.Tp.Drill.g_degraded.Tp.Drill.response.Stat.p99 /. 1e6) );
            ("p99_ratio", Json.Float g.Tp.Drill.g_p99_ratio);
            ("p99_limit", Json.Float g.Tp.Drill.g_p99_limit);
          ] );
      ( "mitigation",
        Json.Obj
          [
            ("demotions", Json.Int g.Tp.Drill.g_demotions);
            ("readmissions", Json.Int g.Tp.Drill.g_readmissions);
            ("mirror_active", Json.Bool g.Tp.Drill.g_mirror_active);
            ("monitor_probes", Json.Int g.Tp.Drill.g_monitor_probes);
            ("slow_suspects", Json.Int g.Tp.Drill.g_slow_suspects);
            ("hedged_reads", Json.Int g.Tp.Drill.g_hedged_reads);
            ("hedge_wins", Json.Int g.Tp.Drill.g_hedge_wins);
            ("single_copy_writes", Json.Int g.Tp.Drill.g_single_copy_writes);
          ] );
      ("zero_loss", Json.Bool (Tp.Drill.zero_loss g.Tp.Drill.g_degraded));
      ("pass", Json.Bool (Tp.Drill.Oracle.pass (Tp.Drill.Oracle.of_gray g)));
      ("oracle", Tp.Drill.Oracle.to_json (Tp.Drill.Oracle.of_gray g));
      ("healthy", drill_json ~plan:"grayfail" g.Tp.Drill.g_healthy);
      ("degraded", drill_json ~plan:"grayfail" g.Tp.Drill.g_degraded);
    ]

let defenses_label defended = if defended then "on" else "OFF (negative control)"

let verdict_label v = if Tp.Drill.Oracle.pass v then "PASS" else "FAIL"

let gray_drill_text (g : Tp.Drill.gray_report) =
  Printf.printf
    "drill: mode=pm plan=grayfail seed=0x%Lx defenses=%s — fail-slow hardware under \
     hot-stock load\n"
    g.Tp.Drill.g_seed
    (defenses_label g.Tp.Drill.g_defended);
  faults_text g.Tp.Drill.g_degraded.Tp.Drill.faults;
  let h = g.Tp.Drill.g_healthy and d = g.Tp.Drill.g_degraded in
  Printf.printf "healthy baseline   %d commits, mean/p99 %.2f / %.2f ms\n"
    h.Tp.Drill.committed
    (h.Tp.Drill.response.Stat.mean /. 1e6)
    (h.Tp.Drill.response.Stat.p99 /. 1e6);
  Printf.printf "degraded run       %d commits, mean/p99 %.2f / %.2f ms\n"
    d.Tp.Drill.committed
    (d.Tp.Drill.response.Stat.mean /. 1e6)
    (d.Tp.Drill.response.Stat.p99 /. 1e6);
  Printf.printf "p99 ratio          %.2fx (gate: <= %.1fx) — %s\n" g.Tp.Drill.g_p99_ratio
    g.Tp.Drill.g_p99_limit
    (if g.Tp.Drill.g_p99_ratio <= g.Tp.Drill.g_p99_limit then "bounded"
     else "LATENCY COLLAPSE");
  Printf.printf "mirror health      %d probes, %d demotions, %d readmissions, mirror %s\n"
    g.Tp.Drill.g_monitor_probes g.Tp.Drill.g_demotions g.Tp.Drill.g_readmissions
    (if g.Tp.Drill.g_mirror_active then "active" else "DEMOTED");
  Printf.printf "client defenses    %d slow suspects, %d hedged reads (%d won), %d \
                 single-copy writes\n"
    g.Tp.Drill.g_slow_suspects g.Tp.Drill.g_hedged_reads g.Tp.Drill.g_hedge_wins
    g.Tp.Drill.g_single_copy_writes;
  Printf.printf "durability         %d acked rows, %d LOST — %s\n" d.Tp.Drill.acked_rows
    d.Tp.Drill.lost_rows
    (if Tp.Drill.zero_loss d then "zero loss" else "DATA LOSS");
  Printf.printf "verdict            %s\n" (verdict_label (Tp.Drill.Oracle.of_gray g));
  hr ()

let overload_drill_json (r : Tp.Drill.overload_report) =
  Json.Obj
    [
      ("mode", Json.String "pm");
      ("plan", Json.String "overload");
      ("seed", Json.String (Printf.sprintf "0x%Lx" r.Tp.Drill.v_seed));
      ("defended", Json.Bool r.Tp.Drill.v_defended);
      ("arrivals", Json.Int r.Tp.Drill.v_arrivals);
      ("committed", Json.Int r.Tp.Drill.v_committed);
      ("rejected", Json.Int r.Tp.Drill.v_rejected);
      ("failed", Json.Int r.Tp.Drill.v_failed);
      ("client_timeouts", Json.Int r.Tp.Drill.v_timeouts);
      ( "admission",
        Json.Obj
          [
            ("admitted", Json.Int r.Tp.Drill.v_admitted);
            ("rejected", Json.Int r.Tp.Drill.v_tmf_rejected);
            ("expired", Json.Int r.Tp.Drill.v_tmf_expired);
            ("adp_shed_expired", Json.Int r.Tp.Drill.v_adp_shed);
          ] );
      ( "containment",
        Json.Obj
          [
            ("retry_denied", Json.Int r.Tp.Drill.v_retry_denied);
            ("breaker_trips", Json.Int r.Tp.Drill.v_breaker_trips);
          ] );
      ( "goodput_tps",
        Json.Obj
          [
            ("warmup", Json.Float r.Tp.Drill.v_warmup_goodput);
            ("spike", Json.Float r.Tp.Drill.v_spike_goodput);
            ("cooldown", Json.Float r.Tp.Drill.v_cooldown_goodput);
            ("spike_floor", Json.Float r.Tp.Drill.v_spike_floor);
            ("recovery_frac", Json.Float r.Tp.Drill.v_recovery_frac);
          ] );
      ( "recovery_ms",
        match r.Tp.Drill.v_recovery_time with
        | Some t -> Json.Float (Time.to_ms t)
        | None -> Json.Null );
      ("recovery_limit_ms", Json.Float (Time.to_ms r.Tp.Drill.v_recovery_limit));
      ( "goodput_windows",
        Json.List
          (List.map
             (fun (t, d) ->
               Json.Obj [ ("t_ms", Json.Float (Time.to_ms t)); ("committed", Json.Int d) ])
             r.Tp.Drill.v_goodput) );
      ("acked_rows", Json.Int r.Tp.Drill.v_acked_rows);
      ("lost_rows", Json.Int r.Tp.Drill.v_lost_rows);
      ("zero_loss", Json.Bool (r.Tp.Drill.v_lost_rows = 0));
      ("elapsed_s", Json.Float (Time.to_sec r.Tp.Drill.v_elapsed));
      ("response_ms", response_json r.Tp.Drill.v_response);
      ("faults", faults_json r.Tp.Drill.v_faults);
      ( "recovery",
        recovery_json [ "mttr_ms"; "committed_txns"; "rows_rebuilt" ] r.Tp.Drill.v_recovery );
      ("pass", Json.Bool (Tp.Drill.Oracle.pass (Tp.Drill.Oracle.of_overload r)));
      ("oracle", Tp.Drill.Oracle.to_json (Tp.Drill.Oracle.of_overload r));
      ("timeline", timeline_json r.Tp.Drill.v_timeline);
    ]

let overload_drill_text (r : Tp.Drill.overload_report) =
  Printf.printf
    "drill: mode=pm plan=overload seed=0x%Lx defenses=%s — open-loop flash crowd \
     against impatient clients\n"
    r.Tp.Drill.v_seed
    (defenses_label r.Tp.Drill.v_defended);
  faults_text r.Tp.Drill.v_faults;
  Printf.printf "offered load       %d arrivals over %.3f s\n" r.Tp.Drill.v_arrivals
    (Time.to_sec r.Tp.Drill.v_elapsed);
  Printf.printf "outcomes           %d committed, %d rejected (backpressure), %d failed\n"
    r.Tp.Drill.v_committed r.Tp.Drill.v_rejected r.Tp.Drill.v_failed;
  Printf.printf "client impatience  %d call timeouts\n" r.Tp.Drill.v_timeouts;
  Printf.printf "admission          %d admitted, %d rejected at begin, %d expired at \
                 commit, %d flush waits shed\n"
    r.Tp.Drill.v_admitted r.Tp.Drill.v_tmf_rejected r.Tp.Drill.v_tmf_expired
    r.Tp.Drill.v_adp_shed;
  Printf.printf "containment        %d resends denied by budget, %d breaker trips\n"
    r.Tp.Drill.v_retry_denied r.Tp.Drill.v_breaker_trips;
  response_text r.Tp.Drill.v_response;
  Printf.printf "goodput            warmup %.1f tps, spike %.1f tps (floor %.1f), \
                 cooldown %.1f tps\n"
    r.Tp.Drill.v_warmup_goodput r.Tp.Drill.v_spike_goodput
    (r.Tp.Drill.v_spike_floor *. r.Tp.Drill.v_warmup_goodput)
    r.Tp.Drill.v_cooldown_goodput;
  Printf.printf "recovery           %s (limit %s after spike end)\n"
    (match r.Tp.Drill.v_recovery_time with
    | Some t -> Time.to_string t
    | None -> "NEVER — stayed collapsed under base load (metastable)")
    (Time.to_string r.Tp.Drill.v_recovery_limit);
  Printf.printf "goodput over time (%d windows):\n" (List.length r.Tp.Drill.v_goodput);
  Printf.printf "%12s %10s\n" "t(ms)" "committed";
  List.iter
    (fun (t, d) -> Printf.printf "%12.1f %10d\n" (Time.to_ms t) d)
    r.Tp.Drill.v_goodput;
  Printf.printf "durability         %d acked rows, %d LOST — %s\n" r.Tp.Drill.v_acked_rows
    r.Tp.Drill.v_lost_rows
    (if r.Tp.Drill.v_lost_rows = 0 then "rejected is not lost" else "DATA LOSS");
  Printf.printf "verdict            %s\n" (verdict_label (Tp.Drill.Oracle.of_overload r));
  hr ()

(* A finished drill as the command emits it: its report in either
   format, and the family's oracle verdict that sets the exit code. *)
type shown = { json : unit -> Json.t; text : unit -> unit; verdict : Tp.Drill.Oracle.verdict }

let show_single ?(verdict = fun r -> Tp.Drill.Oracle.of_report r) ~plan r =
  { json = (fun () -> drill_json ~plan r); text = (fun () -> drill_text r); verdict = verdict r }

let show_cluster ~plan r =
  {
    json = (fun () -> cluster_drill_json ~plan r);
    text = (fun () -> cluster_drill_text r);
    verdict = Tp.Drill.Oracle.of_cluster r;
  }

let show_gray g =
  {
    json = (fun () -> gray_drill_json g);
    text = (fun () -> gray_drill_text g);
    verdict = Tp.Drill.Oracle.of_gray g;
  }

let show_overload r =
  {
    json = (fun () -> overload_drill_json r);
    text = (fun () -> overload_drill_text r);
    verdict = Tp.Drill.Oracle.of_overload r;
  }

let drill_usage msg =
  prerr_endline ("odsbench drill: " ^ msg);
  exit 2

(* --plan-file: replay a schedule from disk.  A full repro document
   (schema "odsbench-repro", as written by the explorer) pins the
   platform, seed and defenses, so the replay is bit-for-bit and is
   judged by the oracle the explorer used; a bare JSON array is just a
   fault plan, run under --mode with the command-line seed and sizing. *)
let plan_file_runner path mode ~seed ~params ?flight () =
  let invalid e = drill_usage (Printf.sprintf "%s: %s" path e) in
  let doc = match Json.parse (read_whole_file path) with Ok d -> d | Error e -> invalid e in
  match doc with
  | Json.List _ -> (
      match (Tp.Faultplan.of_json doc, List.assoc_opt mode modes) with
      | Error e, _ -> invalid e
      | Ok _, None ->
          drill_usage
            "a bare plan array needs --mode disk or pm (wrap cluster or overload \
             schedules in a repro document)"
      | Ok plan, Some mode ->
          Tp.Drill.run ~seed ~params ?flight ~mode ~plan () |> Result.map (show_single ~plan:path))
  | _ -> (
      match Tp.Explorer.repro_of_json doc with
      | Error e -> invalid e
      | Ok repro ->
          Tp.Explorer.replay ?flight repro
          |> Result.map (fun result ->
                 let verdict _ = Tp.Explorer.replay_verdict result in
                 match result with
                 | Tp.Explorer.Single r -> show_single ~verdict ~plan:path r
                 | Tp.Explorer.Clustered r -> show_cluster ~plan:path r
                 | Tp.Explorer.Overloaded r -> show_overload r))

let drill mode plan plan_file drivers boxcar records seed interval_ms flight list_plans
    no_defenses json =
  if list_plans then
    List.iter print_endline
      (match List.assoc_opt mode modes with
      | Some m -> Tp.Drill.plan_names m
      | None -> Tp.Drill.cluster_plan_names)
  else
    let seed = Int64.of_int seed in
    let name = fst (List.find (fun (_, p) -> p = plan) Tp.Drill.plans) in
    let params =
      {
        Tp.Drill.default_params with
        Tp.Drill.drivers;
        records_per_driver = records;
        inserts_per_txn = boxcar;
      }
    in
    let obs, sample_interval =
      if interval_ms > 0 then (Some (Obs.create ()), Some (Time.ms interval_ms))
      else (None, None)
    in
    let defenses = not no_defenses in
    let result =
      match (plan_file, mode, plan) with
      | Some path, _, _ -> plan_file_runner path mode ~seed ~params ?flight ()
      | None, "cluster", _ when interval_ms > 0 ->
          drill_usage "--interval-ms is not supported in cluster mode"
      | None, "cluster", Tp.Drill.(Standard | Partition | No_faults) ->
          let plan, label =
            if plan = Tp.Drill.No_faults then ([], "none") else (Tp.Drill.partition_plan, "partition")
          in
          let params = { Tp.Drill.cluster_params with Tp.Drill.drivers } in
          Tp.Drill.run_cluster ~seed ~params ?flight ~plan ()
          |> Result.map (show_cluster ~plan:label)
      | None, "cluster", _ ->
          drill_usage
            (Printf.sprintf "plan '%s' does not run in cluster mode (%s)" name
               (String.concat "|" Tp.Drill.cluster_plan_names))
      | None, _, Tp.Drill.(Standard | Kills | Partition | No_faults) when no_defenses ->
          drill_usage "--no-defenses only applies to --plan corruption, grayfail or overload"
      | None, "disk", Tp.Drill.(Corruption | Grayfail | Overload) ->
          drill_usage (Printf.sprintf "plan '%s' requires --mode pm" name)
      | None, _, Tp.Drill.Partition -> drill_usage "plan 'partition' requires --mode cluster"
      | None, _, Tp.Drill.Corruption ->
          (* The storage-integrity drill has its own config (scrubber +
             verified reads) and crash-time decay, and is gated on the
             integrity audit, not just row durability. *)
          Tp.Drill.run_corruption ~seed ?obs ?sample_interval ~params ~defenses ?flight ()
          |> Result.map (show_single ~plan:name)
      | None, _, Tp.Drill.Grayfail ->
          (* The gray-failure drill owns its load shape (the p99 gate
             needs a known sample count) and runs twice — healthy
             baseline, then the staged fail-slow schedule — so it
             ignores --records and --boxcar. *)
          let params = { Tp.Drill.gray_params with Tp.Drill.drivers } in
          Tp.Drill.run_gray ~seed ?obs ?sample_interval ~params ~defenses ?flight ()
          |> Result.map show_gray
      | None, _, Tp.Drill.Overload ->
          (* The overload drill owns its load shape entirely — an
             open-loop flash-crowd arrival schedule is the experiment —
             so it ignores --records, --boxcar and --drivers. *)
          Tp.Drill.run_overload ~seed ?obs ?sample_interval ~defenses ?flight ()
          |> Result.map show_overload
      | None, _, Tp.Drill.(Standard | Kills | No_faults) ->
          let mode = List.assoc mode modes in
          let faults =
            match plan with
            | Tp.Drill.No_faults -> []
            | Tp.Drill.Kills ->
                (* Process-pair decapitations only. *)
                List.filter
                  (fun ev ->
                    match ev.Tp.Faultplan.action with
                    | Tp.Faultplan.Kill_primary _ -> true
                    | _ -> false)
                  (Tp.Drill.standard_plan mode)
            | _ -> Tp.Drill.standard_plan mode
          in
          Tp.Drill.run ~seed ?obs ?sample_interval ~params ?flight ~mode ~plan:faults ()
          |> Result.map (show_single ~plan:name)
    in
    match result with
    | Error e ->
        if json then print_endline (Json.to_string (Json.Obj [ ("error", Json.String e) ]));
        prerr_endline ("odsbench drill: " ^ e);
        exit 1
    | Ok shown ->
        if json then print_endline (Json.to_string (shown.json ())) else shown.text ();
        if not (Tp.Drill.Oracle.pass shown.verdict) then begin
          prerr_endline
            ("odsbench drill: gate failed — " ^ Tp.Drill.Oracle.summary shown.verdict);
          exit 1
        end

let drill_cmd =
  let mode =
    mode_choice ~default:"pm" [ "disk"; "pm"; "cluster" ]
      ~doc:
        "Audit backend, or $(b,cluster) for the multi-node partition drill \
         (distributed 2PC load, WAN partition, in-doubt resolution, epoch-fence \
         audit)."
  in
  let plan =
    Arg.(
      value
      & opt (enum Tp.Drill.plans) Tp.Drill.Standard
      & info [ "plan" ] ~docv:(String.concat "|" (List.map fst Tp.Drill.plans))
          ~doc:
            "Fault schedule: $(b,standard) is the full drill (PM: PMM kill, NPMU \
             power-cycle, rail flap, CRC noise, resync), $(b,kills) keeps only the \
             process-pair kills, $(b,corruption) (PM mode) injects silent media decay \
             and torn stores with the scrubber and verified reads armed and audits \
             storage integrity, $(b,grayfail) (PM mode) degrades the mirror NPMU, a \
             fabric rail and a data spindle fail-slow with the latency health monitor, \
             hedged reads and slow-mirror demotion armed, gating on bounded commit p99 \
             and a completed demotion/re-admission cycle (it owns its load shape: \
             --records and --boxcar are ignored), $(b,overload) (PM mode) offers an \
             open-loop flash crowd (5x the base rate) to impatient clients with \
             admission control, deadlines, retry budgets and breakers armed, gating on \
             spike goodput above a floor and bounded recovery after the spike (it owns \
             its load shape: --records, --boxcar and --drivers are ignored), $(b,none) \
             runs faultless.  In cluster mode, \
             $(b,partition) (the default) severs the inter-node link mid-2PC, kills the \
             coordinator, heals, takes over the PM manager and probes the epoch fence.  \
             $(b,--list-plans) prints the names valid for the selected mode.")
  in
  let list_plans =
    Arg.(
      value & flag
      & info [ "list-plans" ]
          ~doc:"Print the $(b,--plan) names valid for the selected mode and exit.")
  in
  let plan_file =
    Arg.(
      value & opt (some string) None
      & info [ "plan-file" ] ~docv:"FILE"
          ~doc:
            "Replay a schedule from $(docv) instead of a named $(b,--plan).  A repro \
             document written by $(b,odsbench explore) pins the platform, seed and \
             defenses, so the drill replays bit-for-bit and is gated by the shared \
             invariant oracle; a bare JSON array of actions runs under $(b,--mode) with \
             the command-line seed and sizing.")
  in
  let no_defenses =
    Arg.(
      value & flag
      & info [ "no-defenses" ]
          ~doc:
            "Corruption, grayfail and overload plans only: run the same fault schedule \
             with the defenses disabled (corruption: scrubber and verified reads; \
             grayfail: health monitor, hedged reads, demotion and adaptive backoff; \
             overload: admission control, deadlines, retry budgets and breakers) — the \
             negative control that shows what the faults cost undefended (expect a \
             non-zero exit).")
  in
  let drivers = Arg.(value & opt int 2 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  let seed =
    Arg.(value & opt int 0xD5177 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")
  in
  let interval_ms =
    Arg.(
      value & opt int 0
      & info [ "interval-ms" ] ~docv:"MS"
          ~doc:
            "Record a telemetry timeline on this cadence and print the event-aligned \
             availability overlay (0 disables sampling).")
  in
  let flight =
    Arg.(
      value & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Arm the failure flight recorder: keep a bounded ring of the most recent \
             commit-path spans plus every fault-injection mark, and dump it to $(docv) \
             as JSON automatically if the drill's gate fails — the last moments before \
             the failure, already collected.")
  in
  Cmd.v
    (Cmd.info "drill"
       ~doc:
         "Run hot-stock load under a fault schedule, crash, recover, and audit that no \
          acknowledged commit was lost")
    Term.(
      const drill $ mode $ plan $ plan_file $ drivers $ boxcar $ records_arg 400 $ seed
      $ interval_ms $ flight $ list_plans $ no_defenses $ json_arg)

(* --- explore: adversarial fault-schedule search --- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let explore_text (r : Tp.Explorer.report) =
  Printf.printf "explore: budget=%d seed=%d defenses=%s\n" r.Tp.Explorer.x_budget
    r.Tp.Explorer.x_seed
    (if r.Tp.Explorer.x_defenses then "on" else "OFF (weakened platform)");
  hr ();
  let count k =
    List.length (List.filter (fun s -> s.Tp.Explorer.s_kind = k) r.Tp.Explorer.x_schedules)
  in
  Printf.printf "schedules   %d (pm %d, disk %d, cluster %d, overload %d)\n"
    (List.length r.Tp.Explorer.x_schedules)
    (count Tp.Explorer.Pm) (count Tp.Explorer.Disk) (count Tp.Explorer.Cluster)
    (count Tp.Explorer.Overload);
  Printf.printf "drills      %d (shrink replays included)\n" r.Tp.Explorer.x_drills;
  let uniq f =
    List.length (List.sort_uniq compare (List.map f r.Tp.Explorer.x_coverage))
  in
  Printf.printf "coverage    %d families x %d phases x %d layers (%d cells hit)\n"
    (uniq (fun ((f, _, _), _) -> f))
    (uniq (fun ((_, p, _), _) -> p))
    (uniq (fun ((_, _, l), _) -> l))
    (List.length r.Tp.Explorer.x_coverage);
  hr ();
  Printf.printf "%-18s %-9s %-10s %6s\n" "family" "phase" "layer" "events";
  List.iter
    (fun ((family, phase, layer), n) ->
      Printf.printf "%-18s %-9s %-10s %6d\n" family phase layer n)
    r.Tp.Explorer.x_coverage;
  hr ();
  if r.Tp.Explorer.x_violations = [] then
    Printf.printf "violations  none — every schedule satisfied the oracle\n"
  else
    List.iter
      (fun (v : Tp.Explorer.violation) ->
        Printf.printf
          "VIOLATION   schedule %d (%s, seed 0x%Lx): %d actions shrunk to %d in %d \
           replays\n"
          v.Tp.Explorer.vi_index
          (Tp.Explorer.kind_name v.Tp.Explorer.vi_kind)
          v.Tp.Explorer.vi_seed v.Tp.Explorer.vi_actions v.Tp.Explorer.vi_shrunk_actions
          v.Tp.Explorer.vi_replays;
        List.iter
          (fun ev ->
            Printf.printf "              +%s %s\n"
              (Time.to_string ev.Tp.Faultplan.after)
              (Tp.Faultplan.describe ev.Tp.Faultplan.action))
          v.Tp.Explorer.vi_schedule.Tp.Explorer.s_plan;
        List.iter
          (fun ev ->
            Printf.printf "              recovery+%s %s\n"
              (Time.to_string ev.Tp.Faultplan.after)
              (Tp.Faultplan.describe ev.Tp.Faultplan.action))
          v.Tp.Explorer.vi_schedule.Tp.Explorer.s_recovery;
        (match v.Tp.Explorer.vi_verdict with
        | Tp.Explorer.Verdict verdict ->
            Printf.printf "              oracle: %s\n" (Tp.Drill.Oracle.summary verdict)
        | Tp.Explorer.Harness_error e -> Printf.printf "              error: %s\n" e);
        (match v.Tp.Explorer.vi_repro with
        | Some p -> Printf.printf "              repro: %s\n" p
        | None -> ());
        match v.Tp.Explorer.vi_flight with
        | Some p -> Printf.printf "              flight: %s\n" p
        | None -> ())
      r.Tp.Explorer.x_violations;
  hr ()

let explore budget seed out_dir max_replays no_defenses corpus_only json =
  if corpus_only then
    print_endline (Json.to_string (Tp.Explorer.corpus_json ~seed ~budget))
  else begin
    Option.iter mkdir_p out_dir;
    let progress index violated =
      if violated then
        Printf.eprintf "odsbench explore: schedule %d violated the oracle — shrinking\n%!"
          index
    in
    let r =
      Tp.Explorer.run ~defenses:(not no_defenses) ?out_dir ~max_replays ~progress
        ~budget ~seed ()
    in
    if json then print_endline (Json.to_string (Tp.Explorer.to_json r))
    else explore_text r;
    if Tp.Explorer.found r then begin
      Printf.eprintf "odsbench explore: %d schedule(s) violated the invariant oracle\n"
        (List.length r.Tp.Explorer.x_violations);
      exit 1
    end
  end

let explore_cmd =
  let budget =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"N" ~doc:"Schedules to generate and run.")
  in
  let seed =
    Arg.(
      value & opt int 0xE5EED
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Corpus seed.  The whole corpus is a pure function of the seed: the same \
             seed generates byte-identical schedules.")
  in
  let out_dir =
    Arg.(
      value & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "Write a replayable repro_NNNN.json (for $(b,odsbench drill --plan-file)) \
             and a flight_NNNN.json black-box dump for every violation (created if \
             missing).")
  in
  let max_replays =
    Arg.(
      value & opt int 150
      & info [ "max-replays" ] ~docv:"N"
          ~doc:"Drill replays the shrinker may spend per violation.")
  in
  let no_defenses =
    Arg.(
      value & flag
      & info [ "no-defenses" ]
          ~doc:
            "Run the same corpus on the weakened platform (PM integrity and overload \
             defenses off) — the negative control: the explorer must find the known \
             failures and shrink them (expect a non-zero exit).")
  in
  let corpus_only =
    Arg.(
      value & flag
      & info [ "corpus-only" ]
          ~doc:
            "Generate and print the schedule corpus as JSON without running any drill — \
             the determinism witness.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Adversarial fault-schedule search: generate seeded composite chaos schedules \
          over the whole fault vocabulary (phase-aware: during load, mid-2PC, during \
          recovery, mid-resync), run each as a drill judged by the shared invariant \
          oracle, and delta-debug any violation to a minimal schedule emitted as a \
          bit-for-bit replayable repro file")
    Term.(
      const explore $ budget $ seed $ out_dir $ max_replays $ no_defenses $ corpus_only
      $ json_arg)

(* --- timeline: continuous telemetry + bottleneck attribution --- *)

(* When both modes run against one --csv path, insert the mode name
   before the extension: out.csv -> out-disk.csv / out-pm.csv. *)
let mode_csv_path path mode_str =
  let ext = Filename.extension path in
  if ext = "" then path ^ "-" ^ mode_str
  else Filename.remove_extension path ^ "-" ^ mode_str ^ ext

let timeline mode_str device drivers boxcar records interval_ms csv json =
  let modes =
    match mode_str with
    | "disk" -> [ Tp.System.Disk_audit ]
    | "pm" -> [ Tp.System.Pm_audit ]
    | _ (* both *) -> [ Tp.System.Disk_audit; Tp.System.Pm_audit ]
  in
  if interval_ms < 1 then begin
    prerr_endline "odsbench timeline: --interval-ms must be at least 1";
    exit 2
  end;
  let interval = Time.ms interval_ms in
  let results =
    List.map
      (fun mode ->
        let obs = Obs.create () in
        let _system, c, ts =
          run_hot_stock_cell ~obs ~sample_interval:interval ~device ~mode ~drivers ~boxcar
            ~records ()
        in
        let ts = match ts with Some t -> t | None -> assert false in
        (mode, c, ts))
      modes
  in
  let both = List.length results > 1 in
  (match csv with
  | Some path ->
      List.iter
        (fun (mode, _, ts) ->
          let p = if both then mode_csv_path path (mode_to_string mode) else path in
          let oc = open_out p in
          output_string oc (Timeseries.to_csv ts);
          close_out oc;
          if not json then
            Printf.printf "wrote %s (%d samples, %d columns)\n" p
              (Timeseries.sample_count ts)
              (List.length (Timeseries.paths ts)))
        results
  | None -> ());
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            (List.map
               (fun (mode, c, ts) ->
                 let r = c.Figures.result in
                 ( mode_to_string mode,
                   Json.Obj
                     [
                       ("elapsed_s", Json.Float (Time.to_sec r.Hot_stock.elapsed));
                       ("committed", Json.Int r.Hot_stock.committed);
                       ("throughput_tps", Json.Float r.Hot_stock.throughput_tps);
                       ("timeline", Timeseries.json ts);
                       ("bottlenecks", Timeseries.attribution_json ts);
                     ] ))
               results)))
  else
    List.iter
      (fun (mode, c, ts) ->
        let r = c.Figures.result in
        Printf.printf
          "timeline: mode=%s drivers=%d boxcar=%d records=%d interval=%d ms\n"
          (mode_to_string mode) drivers boxcar records interval_ms;
        hr ();
        Printf.printf "samples      %d (%d columns, %d evicted)\n"
          (Timeseries.sample_count ts)
          (List.length (Timeseries.paths ts))
          (Timeseries.evicted ts);
        Printf.printf "elapsed      %.3f s   committed %d   throughput %.1f txn/s\n"
          (Time.to_sec r.Hot_stock.elapsed)
          r.Hot_stock.committed r.Hot_stock.throughput_tps;
        hr ();
        Printf.printf "bottleneck attribution (where the time went):\n";
        Format.printf "%a@?" Timeseries.pp_attribution ts;
        hr ())
      results

let timeline_cmd =
  let mode =
    mode_choice ~default:"both" [ "disk"; "pm"; "both" ] ~doc:"Audit backend(s) to sample."
  in
  let drivers = Arg.(value & opt int 2 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  let interval_ms =
    Arg.(
      value & opt int 10
      & info [ "interval-ms" ] ~docv:"MS" ~doc:"Sampling interval in sim milliseconds.")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:
            "Write the full series as CSV.  With --mode both, the mode name is inserted \
             before the extension (out.csv -> out-disk.csv, out-pm.csv).")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Run a hot-stock cell with the continuous-telemetry sampler on and print the \
          bottleneck-attribution report (CSV/JSON export of the full series)")
    Term.(
      const timeline $ mode $ device_arg $ drivers $ boxcar $ records_arg 2_000 $ interval_ms
      $ csv $ json_arg)

(* --- critpath: causal tracing + critical-path attribution --- *)

let write_text_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let critpath_mode_json (r : Causal.mode_run) =
  Json.Obj
    [
      ("mode", Json.String (mode_to_string r.Causal.cp_mode));
      ("committed", Json.Int r.Causal.cp_committed);
      ("elapsed_s", Json.Float (Time.to_sec r.Causal.cp_elapsed));
      ("critpath", Critpath.to_json r.Causal.cp);
    ]

let critpath_mode_text (r : Causal.mode_run) =
  Printf.printf
    "critpath: mode=%s — causal commit tracing, critical-path attribution\n"
    (mode_to_string r.Causal.cp_mode);
  hr ();
  Printf.printf "committed    %d txns in %.3f s\n" r.Causal.cp_committed
    (Time.to_sec r.Causal.cp_elapsed);
  Format.printf "%a@?" Critpath.pp r.Causal.cp;
  hr ()

let critpath_cluster_json (r : Causal.cluster_run) =
  Json.Obj
    [
      ("mode", Json.String "cluster");
      ("nodes", Json.Int r.Causal.cl_nodes);
      ("committed", Json.Int r.Causal.cl_committed);
      ("failed_txns", Json.Int r.Causal.cl_failed);
      ("elapsed_s", Json.Float (Time.to_sec r.Causal.cl_elapsed));
      ("critpath", Critpath.to_json r.Causal.cl_cp);
    ]

let critpath_cluster_text (r : Causal.cluster_run) =
  Printf.printf
    "critpath: mode=cluster nodes=%d — cross-node 2PC commit tracing\n"
    r.Causal.cl_nodes;
  hr ();
  Printf.printf "committed    %d txns (%d failed) in %.3f s\n" r.Causal.cl_committed
    r.Causal.cl_failed
    (Time.to_sec r.Causal.cl_elapsed);
  Format.printf "%a@?" Critpath.pp r.Causal.cl_cp;
  hr ()

let critpath mode_str drivers boxcar records nodes txns seed chrome json =
  let chrome_path m =
    match chrome with
    | None -> None
    | Some path -> Some (if mode_str = "both" then mode_csv_path path m else path)
  in
  let dump_chrome path_opt doc_opt =
    match (path_opt, doc_opt) with
    | Some p, Some doc ->
        write_text_file p doc;
        if not json then Printf.printf "wrote %s\n" p
    | _ -> ()
  in
  let run_one mode =
    let r =
      Causal.run_mode ~seed:(Int64.of_int seed) ~drivers ~inserts_per_txn:boxcar
        ~records_per_driver:records ~chrome:(chrome <> None) ~mode ()
    in
    dump_chrome (chrome_path (mode_to_string mode)) r.Causal.cp_chrome;
    r
  in
  match mode_str with
  | "cluster" ->
      let r =
        Causal.run_cluster ~seed:(Int64.of_int seed) ~nodes ~drivers ~txns_per_driver:txns
          ~inserts_per_txn:boxcar ~chrome:(chrome <> None) ()
      in
      dump_chrome chrome r.Causal.cl_chrome;
      if json then print_endline (Json.to_string (critpath_cluster_json r))
      else critpath_cluster_text r
  | "disk" | "pm" ->
      let r = run_one (List.assoc mode_str modes) in
      if json then print_endline (Json.to_string (critpath_mode_json r))
      else critpath_mode_text r
  | _ (* both *) ->
      let d = run_one Tp.System.Disk_audit in
      let p = run_one Tp.System.Pm_audit in
      if json then
        print_endline
          (Json.to_string
             (Json.Obj [ ("disk", critpath_mode_json d); ("pm", critpath_mode_json p) ]))
      else begin
        critpath_mode_text d;
        print_newline ();
        critpath_mode_text p
      end

let critpath_cmd =
  let mode =
    mode_choice ~default:"both" [ "disk"; "pm"; "both"; "cluster" ]
      ~doc:
        "What to trace: a single-node hot-stock cell on the disk or PM audit \
         backend ($(b,both) runs one of each for comparison), or $(b,cluster), a \
         multi-node 2PC load whose prepare/decide hops cross the interconnect."
  in
  let drivers = Arg.(value & opt int 2 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  let nodes =
    Arg.(
      value & opt int 2
      & info [ "nodes" ] ~docv:"N" ~doc:"Cluster mode: node count (at least 2).")
  in
  let txns =
    Arg.(
      value & opt int 60
      & info [ "txns" ] ~docv:"N" ~doc:"Cluster mode: transactions per driver.")
  in
  let seed =
    Arg.(value & opt int 0xCA75A & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")
  in
  let chrome =
    Arg.(
      value & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Also export the full span collection as a Chrome trace-event document \
             (load it at chrome://tracing or ui.perfetto.dev; flow arrows link caller \
             to callee across tracks).  With --mode both, the mode name is inserted \
             before the extension (out.json -> out-disk.json, out-pm.json).")
  in
  Cmd.v
    (Cmd.info "critpath"
       ~doc:
         "Trace every committed transaction's cross-node span DAG and print the \
          critical-path report: per-hop queue/service attribution, ranked, with full \
          DAGs kept for the slowest transactions (each exemplar's hop durations sum \
          exactly to its measured ack latency)")
    Term.(
      const critpath $ mode $ drivers $ boxcar $ records_arg 500 $ nodes $ txns $ seed
      $ chrome $ json_arg)

(* --- domain workloads --- *)

let run_in_system cfg seed f =
  let sim = Sim.create ~seed () in
  let out = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let system = Tp.System.build sim cfg in
        out := Some (f system))
  in
  Sim.run sim;
  match !out with Some v -> v | None -> failwith "run did not complete"

let cfg_of_mode = function
  | Tp.System.Pm_audit -> Tp.System.pm_config
  | Tp.System.Disk_audit -> Tp.System.default_config

let telco mode records rate =
  let params =
    { Telco_cdr.default_params with
      Telco_cdr.cdrs_per_switch = records;
      arrival = (if rate > 0.0 then Telco_cdr.Open_poisson rate else Telco_cdr.Closed) }
  in
  let r = run_in_system (cfg_of_mode mode) 0x7E1C0L (fun s -> Telco_cdr.run s params) in
  Printf.printf "telco CDR ingest: mode=%s switches=%d cdrs/switch=%d\n"
    (mode_to_string mode) params.Telco_cdr.switches records;
  hr ();
  Printf.printf "elapsed        %.3f s\n" (Time.to_sec r.Telco_cdr.elapsed);
  Printf.printf "ingest rate    %.0f CDR/s\n" r.Telco_cdr.cdrs_per_sec;
  Printf.printf "txn p50        %.2f ms\n" (r.Telco_cdr.txn_response.Stat.p50 /. 1e6);
  Printf.printf "txn p99        %.2f ms\n" (r.Telco_cdr.txn_response.Stat.p99 /. 1e6);
  Printf.printf "fraud lookups  %d (%d hits)\n" r.Telco_cdr.lookups r.Telco_cdr.lookup_hits;
  hr ()

let telco_cmd =
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"CDR/s" ~doc:"Open-loop offered load (0 = closed loop).")
  in
  Cmd.v
    (Cmd.info "telco" ~doc:"Telco CDR ingest workload (paper section 1)")
    Term.(const telco $ mode_arg $ records_arg 1_000 $ rate)

let orders mode trades =
  let params = { Order_match.default_params with Order_match.trades_per_stream = trades } in
  let r = run_in_system (cfg_of_mode mode) 0x570CL (fun s -> Order_match.run s params) in
  Printf.printf "order matching: mode=%s streams=%d trades/stream=%d hot-share=%.0f%%\n"
    (mode_to_string mode) params.Order_match.streams trades
    (params.Order_match.hot_symbol_share *. 100.);
  hr ();
  Printf.printf "elapsed        %.3f s\n" (Time.to_sec r.Order_match.elapsed);
  Printf.printf "hot symbol     %.1f trades/s (%d trades)\n" r.Order_match.hot_tps
    r.Order_match.hot_trades;
  Printf.printf "cold symbols   %.1f trades/s\n" r.Order_match.cold_tps;
  Printf.printf "trade RT p50   %.2f ms\n" (r.Order_match.trade_response.Stat.p50 /. 1e6);
  Printf.printf "lock conflicts %d\n" r.Order_match.lock_waits;
  hr ()

let orders_cmd =
  let trades =
    Arg.(value & opt int 500 & info [ "trades" ] ~docv:"N" ~doc:"Trades per stream.")
  in
  Cmd.v
    (Cmd.info "orders" ~doc:"Hot-stock order matching workload (paper section 2)")
    Term.(const orders $ mode_arg $ trades)

let dtx_cmd_impl transfers =
  Printf.printf "E10: cross-node transfers under two-phase commit (2 nodes)\n";
  hr ();
  Printf.printf "%6s %14s %14s %16s\n" "mode" "local RT(ms)" "2PC RT(ms)" "protocol(ms)";
  List.iter
    (fun p ->
      Printf.printf "%6s %14.2f %14.2f %16.2f\n"
        (mode_to_string p.Figures.d_mode) p.Figures.local_rt_ms p.Figures.dtx_rt_ms
        p.Figures.protocol_overhead_ms)
    (Figures.dtx_latency ~transfers ());
  hr ()

let dtx_cmd =
  let transfers =
    Arg.(value & opt int 20 & info [ "transfers" ] ~docv:"N" ~doc:"Transfers to average over.")
  in
  Cmd.v (Cmd.info "dtx" ~doc:"E10: distributed-commit latency") Term.(const dtx_cmd_impl $ transfers)

let ckpt_traffic records =
  Printf.printf "E9: process-pair checkpoint traffic (2 drivers, boxcar 8)\n";
  hr ();
  List.iter
    (fun p ->
      Printf.printf "%-5s txns=%-6d audit=%-10d B  checkpoints=%-10d B  (%.0f B/txn)\n"
        (mode_to_string p.Figures.c_mode) p.Figures.committed_txns p.Figures.audit_bytes
        p.Figures.checkpoint_bytes p.Figures.ckpt_bytes_per_txn)
    (Figures.checkpoint_traffic ~records_per_driver:records ());
  hr ()

let ckpt_traffic_cmd =
  Cmd.v
    (Cmd.info "ckpt-traffic" ~doc:"E9: checkpoint traffic, disk vs PM")
    Term.(const ckpt_traffic $ records_arg 2_000)

let scaleout records =
  Printf.printf "E8: shared-nothing scale-out (2 drivers/node, boxcar 8)\n";
  hr ();
  Printf.printf "%6s %6s %16s %14s\n" "nodes" "mode" "aggregate txn/s" "per-node txn/s";
  List.iter
    (fun p ->
      Printf.printf "%6d %6s %16.1f %14.1f\n" p.Figures.s_nodes
        (mode_to_string p.Figures.s_mode) p.Figures.aggregate_tps p.Figures.per_node_tps)
    (Figures.scaleout ~records_per_driver:records ());
  hr ()

let scaleout_cmd =
  Cmd.v
    (Cmd.info "scale-out" ~doc:"E8: aggregate throughput vs node count")
    Term.(const scaleout $ records_arg 2_000)

let bank mode txns =
  let params = { Bank.default_params with Bank.txns_per_client = txns } in
  let r = run_in_system (cfg_of_mode mode) 0xBA22L (fun s -> Bank.run s params) in
  Printf.printf "bank (TPC-B-style): mode=%s clients=%d txns/client=%d\n"
    (mode_to_string mode) params.Bank.clients txns;
  hr ();
  Printf.printf "elapsed          %.3f s\n" (Time.to_sec r.Bank.elapsed);
  Printf.printf "throughput       %.1f txn/s\n" r.Bank.tps;
  Printf.printf "response p50     %.2f ms\n" (r.Bank.response.Stat.p50 /. 1e6);
  Printf.printf "response p99     %.2f ms\n" (r.Bank.response.Stat.p99 /. 1e6);
  Printf.printf "branch conflicts %d\n" r.Bank.branch_conflicts;
  hr ()

let bank_cmd =
  let txns =
    Arg.(value & opt int 250 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per client.")
  in
  Cmd.v
    (Cmd.info "bank" ~doc:"TPC-B-style update-heavy banking workload")
    Term.(const bank $ mode_arg $ txns)

(* --- perf: the simulator performance observatory --- *)

let perf_text (r : Perf.report) =
  Printf.printf "perf: self-profiled workload matrix (%d records/driver, schema v%d)\n"
    r.Perf.p_records Perf.schema_version;
  hr ();
  Printf.printf "%-15s %10s %11s %14s %11s %9s\n" "workload" "events" "events/s"
    "wall ms/sim s" "minor w/ev" "heap hwm";
  List.iter
    (fun (w : Perf.run_report) ->
      Printf.printf "%-15s %10d %11.0f %14.2f %11.1f %9d\n" w.Perf.r_name w.Perf.r_events
        w.Perf.r_events_per_sec w.Perf.r_wall_ms_per_sim_s w.Perf.r_minor_words_per_event
        w.Perf.r_heap_depth_hwm)
    r.Perf.p_runs;
  hr ();
  List.iter
    (fun (w : Perf.run_report) ->
      Printf.printf "%s: committed=%d envelopes=%d packets=%d pm-writes=%d\n" w.Perf.r_name
        w.Perf.r_committed w.Perf.r_envelopes w.Perf.r_packets w.Perf.r_pm_writes;
      List.iter
        (fun (l : Perf.layer_share) ->
          Printf.printf "  %-8s %8d sections %10.3f ms %5.1f%% wall %14.0f minor words%s\n"
            l.Perf.ls_layer l.Perf.ls_events (l.Perf.ls_wall_s *. 1e3)
            (l.Perf.ls_wall_share *. 100.) l.Perf.ls_minor_words
            (if l.Perf.ls_discarded > 0 then
               Printf.sprintf " (%d discarded)" l.Perf.ls_discarded
             else ""))
        w.Perf.r_layers)
    r.Perf.p_runs;
  hr ();
  let o = r.Perf.p_overhead in
  Printf.printf "telemetry overhead (%s, no profiler installed):\n" o.Perf.o_workload;
  Printf.printf "  wall   enabled %.3f s / disabled %.3f s  (%+.1f%%)\n"
    o.Perf.o_enabled_wall_s o.Perf.o_disabled_wall_s o.Perf.o_overhead_pct;
  Printf.printf "  alloc  enabled %.0f / disabled %.0f minor words  (%+.1f%%)\n"
    o.Perf.o_enabled_minor_words o.Perf.o_disabled_minor_words o.Perf.o_alloc_overhead_pct;
  Printf.printf "  results invariant: sim elapsed %s, committed %s\n"
    (if o.Perf.o_sim_elapsed_equal then "equal" else "DIVERGED")
    (if o.Perf.o_committed_equal then "equal" else "DIVERGED");
  hr ()

let perf_verdicts verdicts regress_pct =
  List.iter
    (fun (v : Perf.verdict) ->
      Printf.eprintf "perf %-15s %11.0f ev/s vs baseline %11.0f — %s\n" v.Perf.v_workload
        v.Perf.v_current v.Perf.v_baseline
        (if v.Perf.v_ok then "ok" else Printf.sprintf "REGRESSION (>%.0f%%)" regress_pct))
    verdicts

let perf records list_workloads baseline regress_pct json =
  if list_workloads then List.iter print_endline Perf.workload_names
  else begin
    let report = or_die (fun () -> Perf.run ~records ()) in
    let doc = Perf.to_json report in
    if json then print_endline (Json.to_string doc) else perf_text report;
    match baseline with
    | None -> ()
    | Some path ->
        let base =
          match Json.parse (read_whole_file path) with
          | Ok b -> b
          | Error e ->
              Printf.eprintf "odsbench perf: baseline %s: %s\n" path e;
              exit 2
        in
        (match Perf.compare_baseline ~baseline:base ~current:doc ~regress_pct with
        | Error e ->
            Printf.eprintf "odsbench perf: %s\n" e;
            exit 2
        | Ok verdicts ->
            perf_verdicts verdicts regress_pct;
            if not (Perf.all_ok verdicts) then begin
              prerr_endline "odsbench perf: events/sec regressed past the baseline gate";
              exit 1
            end)
  end

let perf_cmd =
  let list_workloads =
    Arg.(
      value & flag
      & info [ "list-workloads" ] ~doc:"Print the fixed workload-matrix names and exit.")
  in
  let baseline =
    Arg.(
      value & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare events/sec per workload against a committed BENCH_*.json and exit \
             non-zero if any regresses past $(b,--regress-pct).  Verdicts go to stderr so \
             $(b,--json) output stays clean.")
  in
  let regress_pct =
    Arg.(
      value & opt float 25.0
      & info [ "regress-pct" ] ~docv:"PCT"
          ~doc:"Allowed events/sec regression vs the baseline, percent.")
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Self-profile the simulator on a fixed seed-deterministic workload matrix: \
          per-layer wall/alloc attribution, event-loop vitals, telemetry-overhead \
          delta, and an optional baseline regression gate")
    Term.(const perf $ records_arg 300 $ list_workloads $ baseline $ regress_pct $ json_arg)

(* --- everything at a glance --- *)

let all records =
  Printf.printf "pmods: full experiment sweep at %d records/driver\n\n" records;
  fig1 records false;
  print_newline ();
  fig2 records false;
  print_newline ();
  sweep_latency (min records 4_000);
  print_newline ();
  sweep_mirror (min records 4_000);
  print_newline ();
  mttr (min records 2_000);
  print_newline ();
  scale_adp (min records 4_000);
  print_newline ();
  ckpt_traffic (min records 2_000);
  print_newline ();
  scaleout (min records 1_000);
  print_newline ();
  dtx_cmd_impl 20;
  print_newline ();
  failover 400;
  print_newline ();
  perf (min records 300) false None 25.0 false

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment at reduced scale and print the summary")
    Term.(const all $ records_arg 2_000)

let main_cmd =
  let doc = "Reproduction experiments for 'Fast and Flexible Persistence' (IPDPS 2004)" in
  Cmd.group (Cmd.info "odsbench" ~version:"1.0" ~doc)
    [
      all_cmd;
      fig1_cmd;
      fig2_cmd;
      breakdown_cmd;
      trace_cmd;
      metrics_cmd;
      timeline_cmd;
      cell_cmd;
      sweep_latency_cmd;
      sweep_mirror_cmd;
      mttr_cmd;
      scale_adp_cmd;
      failover_cmd;
      drill_cmd;
      explore_cmd;
      critpath_cmd;
      perf_cmd;
      telco_cmd;
      orders_cmd;
      bank_cmd;
      scaleout_cmd;
      ckpt_traffic_cmd;
      dtx_cmd;
    ]

let () = exit (Cmd.eval main_cmd)

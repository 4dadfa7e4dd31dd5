(* Tests for causal commit tracing: cross-node trace propagation, the
   critical-path analyzer, the failure flight recorder, and the
   zero-cost disabled path of the whole layer. *)

open Simkit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* The global telemetry level leaks across tests unless restored. *)
let with_level l f =
  let saved = Obs.level () in
  Obs.set_level l;
  Fun.protect ~finally:(fun () -> Obs.set_level saved) f

let manual_clock () =
  let now = ref 0 in
  ((fun () -> !now), fun t -> now := t)

(* --- Critpath: exact tiling of a hand-built DAG --- *)

(* One root [0,1000] with a backdated child (queue 50), a second child
   that links an untraced flush span, and gaps the root keeps.  Every
   nanosecond must land in exactly one hop and the hop totals must sum
   to the measured ack latency. *)
let test_critpath_exact_tiling () =
  with_level Obs.Spans @@ fun () ->
  let clock, set = manual_clock () in
  let c = Span.create ~clock () in
  Span.enable c;
  let cp = Critpath.create () in
  Critpath.attach cp c;
  set 0;
  let root = Span.root c ~track:"client" "txn" in
  (* Untraced flush span, finished before the waiter that links it. *)
  set 520;
  let flush = Span.start c ~track:"adp" "adp.flush" in
  set 580;
  Span.finish c flush;
  (* Child A: opens at 150, backdated 50 ns over its inbox wait. *)
  set 150;
  let a = Span.start c ~track:"dp2" ~parent:root "dp2.insert" in
  Span.note_queue a 50;
  set 400;
  Span.finish c a;
  (* Child B covers [500,900] and piggybacked on the flush. *)
  set 500;
  let b = Span.start c ~track:"tmf" ~parent:root "tmf.commit" in
  Span.link b flush;
  set 900;
  Span.finish c b;
  set 1000;
  Span.finish c root;
  check_int "one trace finalized" 1 (Critpath.txns cp);
  let hops = Critpath.hops cp in
  let total =
    List.fold_left (fun acc h -> acc + h.Critpath.h_queue + h.Critpath.h_service) 0 hops
  in
  check_int "hops tile the ack exactly" 1000 total;
  let find name =
    match List.find_opt (fun h -> h.Critpath.h_name = name) hops with
    | Some h -> h
    | None -> Alcotest.fail ("missing hop " ^ name)
  in
  let a_hop = find "dp2:dp2.insert" in
  check_int "backdated wait is queue" 50 a_hop.Critpath.h_queue;
  check_int "A service" 250 a_hop.Critpath.h_service;
  let f_hop = find "adp:adp.flush" in
  check_int "linked flush claims its interval" 60 f_hop.Critpath.h_service;
  let b_hop = find "tmf:tmf.commit" in
  check_int "B keeps its interval minus the flush" 340 b_hop.Critpath.h_service;
  let r_hop = find "client:txn" in
  (* [0,100) before the backdated A, (400,500) between children, (900,1000]. *)
  check_int "root keeps the gaps" 300 r_hop.Critpath.h_service;
  (match Critpath.exemplars cp with
  | [ ex ] ->
      check_int "exemplar ack" 1000 ex.Critpath.ex_ack;
      let sum =
        List.fold_left
          (fun acc h -> acc + h.Critpath.xh_queue + h.Critpath.xh_service)
          0 ex.Critpath.ex_hops
      in
      check_int "exemplar hops sum to ack" 1000 sum;
      check_bool "exemplar keeps the linked flush DAG" true
        (List.exists (fun r -> r.Span.r_name = "adp.flush") ex.Critpath.ex_records)
  | exs -> Alcotest.fail (Printf.sprintf "expected 1 exemplar, got %d" (List.length exs)))

(* --- Propagation: same trace id on both sides of a remote 2PC hop --- *)

let test_trace_crosses_remote_2pc_hop () =
  with_level Obs.Spans @@ fun () ->
  let obs = Obs.create () in
  Span.enable (Obs.spans obs);
  Span.retain (Obs.spans obs);
  let sim = Sim.create ~seed:0x2FCL () in
  let committed = ref 0 in
  Test_util.run_in sim (fun () ->
      let cfg = Tp.System.pm_config in
      let cluster = Tp.Cluster.build sim ~nodes:2 ~wan_latency:(Time.us 100) ~obs cfg in
      let files = cfg.Tp.System.files in
      for txn = 0 to 3 do
        let dtx = Tp.Dtx.begin_dtx cluster ~coordinator:0 ~cpu:0 in
        List.iter
          (fun i ->
            Test_util.check_result_ok "insert"
              (Tp.Dtx.insert dtx ~node:(i mod 2) ~file:(i mod files)
                 ~key:((txn * 10) + i) ~len:256))
          [ 0; 1; 2; 3 ];
        match Tp.Dtx.commit dtx with Ok () -> incr committed | Error _ -> ()
      done);
  check_bool "transactions committed two-phase" true (!committed >= 1);
  let recs = Span.records (Obs.spans obs) in
  let roots =
    List.filter
      (fun r -> r.Span.r_parent = None && r.Span.r_trace >= 0 && r.Span.r_name = "txn")
      recs
  in
  check_bool "client roots minted traces" true (roots <> []);
  let root_traces = List.map (fun r -> r.Span.r_trace) roots in
  let by_id = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace by_id r.Span.r_id r) recs;
  let server_side name = List.filter (fun r -> r.Span.r_name = name) recs in
  let prepares = server_side "tmf.prepare" and decides = server_side "tmf.decide" in
  check_bool "remote prepares recorded" true (prepares <> []);
  check_bool "remote decides recorded" true (decides <> []);
  List.iter
    (fun r ->
      check_bool
        (Printf.sprintf "%s carries a trace" r.Span.r_name)
        true (r.Span.r_trace >= 0);
      check_bool
        (Printf.sprintf "%s trace belongs to a client root" r.Span.r_name)
        true
        (List.mem r.Span.r_trace root_traces);
      (* The hop crossed the interconnect via the message envelope: the
         server-side span hangs under a client-track span of the same
         trace. *)
      match r.Span.r_parent with
      | None -> Alcotest.fail (r.Span.r_name ^ " has no caller")
      | Some p ->
          let parent = Hashtbl.find by_id p in
          check_string "caller is client-side" "client" parent.Span.r_track;
          check_int "parent shares the trace" r.Span.r_trace parent.Span.r_trace)
    (prepares @ decides)

(* --- Propagation: a batched txn records the flush it piggybacked on --- *)

let test_group_commit_batch_links_flush () =
  with_level Obs.Spans @@ fun () ->
  let obs = Obs.create () in
  Span.enable (Obs.spans obs);
  Span.retain (Obs.spans obs);
  let (_ : Workloads.Figures.cell) =
    Workloads.Figures.run_cell ~obs ~mode:Tp.System.Disk_audit ~drivers:2
      ~inserts_per_txn:4 ~records_per_driver:40 ()
  in
  let recs = Span.records (Obs.spans obs) in
  let by_id = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace by_id r.Span.r_id r) recs;
  let waits = List.filter (fun r -> r.Span.r_name = "adp.flush_wait") recs in
  check_bool "flush waits recorded" true (waits <> []);
  let linked = List.filter (fun r -> List.mem_assoc "link" r.Span.r_args) waits in
  check_bool "some commit rode a batch flush" true (linked <> []);
  List.iter
    (fun r ->
      check_bool "waiter keeps its txn trace" true (r.Span.r_trace >= 0);
      let target = int_of_string (List.assoc "link" r.Span.r_args) in
      match Hashtbl.find_opt by_id target with
      | None -> Alcotest.fail "link target not recorded"
      | Some f -> check_string "link names the batch flush" "adp.flush" f.Span.r_name)
    linked

(* --- Propagation: fence-refresh retry stays in the caller's trace --- *)

let test_fence_refresh_retry_shares_trace () =
  with_level Obs.Spans @@ fun () ->
  let obs = Obs.create () in
  Span.enable (Obs.spans obs);
  Span.retain (Obs.spans obs);
  let sim = Sim.create ~seed:0x51L () in
  let node = Nsk.Node.create sim ~cpus:4 () in
  let fabric = Nsk.Node.fabric node in
  let npmu_a = Pm.Npmu.create sim fabric ~name:"npmu-a" ~capacity:(1 lsl 20) in
  let npmu_b = Pm.Npmu.create sim fabric ~name:"npmu-b" ~capacity:(1 lsl 20) in
  let dev_a = Pm.Pmm.device_of_npmu npmu_a in
  let dev_b = Pm.Pmm.device_of_npmu npmu_b in
  Pm.Pmm.format dev_a dev_b;
  let pmm =
    Pm.Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Nsk.Node.cpu node 0)
      ~backup_cpu:(Nsk.Node.cpu node 1) ~primary_dev:dev_a ~mirror_dev:dev_b ()
  in
  Test_util.run_in sim (fun () ->
      let c =
        Pm.Pm_client.attach ~cpu:(Nsk.Node.cpu node 2) ~fabric
          ~pmm:(Pm.Pmm.server pmm) ~obs ()
      in
      let h =
        Test_util.ok_or_fail ~msg:"create"
          (Pm.Pm_client.create_region c ~name:"r" ~size:8192)
      in
      (* Manager takeover bumps the volume epoch; the handle still
         carries the old grant, so the next write bounces off the fence,
         refreshes, and retries. *)
      Nsk.Procpair.kill_primary (Pm.Pmm.pair pmm);
      Sim.sleep (Time.ms 800);
      let spans = Obs.spans obs in
      let root = Span.root spans ~track:"client" "txn" in
      Test_util.check_result_ok "write lands after the refresh"
        (Pm.Pm_client.write ~span:root c h ~off:0 ~data:(Bytes.of_string "fresh"));
      Span.finish spans root;
      check_bool "the first attempt was fenced" true (Pm.Pm_client.fenced_writes c >= 1);
      let trace = Span.trace_of root in
      check_bool "root minted a trace" true (trace >= 0);
      let writes =
        List.filter
          (fun r -> r.Span.r_name = "pm.write" && r.Span.r_trace = trace)
          (Span.records spans)
      in
      check_bool
        (Printf.sprintf "fenced attempt and retry share the trace (%d spans)"
           (List.length writes))
        true
        (List.length writes >= 2))

(* --- Determinism: same seed, byte-identical critpath report --- *)

let test_critpath_deterministic () =
  with_level Obs.Spans @@ fun () ->
  let run () =
    let r =
      Workloads.Causal.run_mode ~seed:0xD07L ~drivers:2 ~inserts_per_txn:4
        ~records_per_driver:80 ~mode:Tp.System.Pm_audit ()
    in
    check_bool "commits happened" true (r.Workloads.Causal.cp_committed > 0);
    Json.to_string (Critpath.to_json r.Workloads.Causal.cp)
  in
  let a = run () and b = run () in
  check_bool "same seed, identical report" true (String.equal a b)

(* --- One stream: every subscriber sees every span --- *)

let test_one_collector_feeds_every_subscriber () =
  with_level Obs.Spans @@ fun () ->
  let run ~with_others =
    let obs = Obs.create () in
    let spans = Obs.spans obs in
    Span.enable spans;
    let cp = Critpath.create () in
    Critpath.attach cp spans;
    let fr = Flightrec.create () in
    if with_others then begin
      Flightrec.attach fr spans;
      Span.retain spans
    end;
    let cell =
      Workloads.Figures.run_cell ~obs ~mode:Tp.System.Disk_audit ~drivers:2
        ~inserts_per_txn:4 ~records_per_driver:40 ()
    in
    (cell.Workloads.Figures.result.Workloads.Hot_stock.committed, cp, fr, spans)
  in
  let committed, cp, fr, spans = run ~with_others:true in
  check_bool "spans finished" true (Span.count spans > 0);
  check_int "the recorder saw every span" (Span.count spans) (Flightrec.span_count fr);
  check_int "the analyzer finalized every commit" committed (Critpath.txns cp);
  let _, alone, _, _ = run ~with_others:false in
  check_string "the analyzer's report ignores its neighbours"
    (Json.to_string (Critpath.to_json alone))
    (Json.to_string (Critpath.to_json cp))

(* --- A Chrome export leaves the report as it is --- *)

let test_chrome_export_keeps_the_report () =
  with_level Obs.Spans @@ fun () ->
  let report chrome =
    let r =
      Workloads.Causal.run_mode ~seed:0xD07L ~drivers:2 ~inserts_per_txn:4
        ~records_per_driver:80 ~chrome ~mode:Tp.System.Disk_audit ()
    in
    check_bool "export only when asked" chrome (r.Workloads.Causal.cp_chrome <> None);
    Json.to_string (Critpath.to_json r.Workloads.Causal.cp)
  in
  check_string "same report with and without --chrome" (report false) (report true)

(* --- Flight recorder: bounded rings, oldest evicted --- *)

let test_flightrec_rings_bounded () =
  with_level Obs.Spans @@ fun () ->
  let clock, set = manual_clock () in
  let c = Span.create ~clock () in
  Span.enable c;
  let fr = Flightrec.create ~spans:4 ~marks:2 () in
  Flightrec.attach fr c;
  for i = 1 to 10 do
    set (i * 100);
    let sp = Span.start c ~track:"t" (Printf.sprintf "op%d" i) in
    set ((i * 100) + 50);
    Span.finish c sp
  done;
  Flightrec.mark fr ~time:1 "first";
  Flightrec.mark fr ~time:2 "second";
  Flightrec.mark fr ~time:3 "third";
  check_int "every span counted" 10 (Flightrec.span_count fr);
  check_int "every mark counted" 3 (Flightrec.mark_count fr);
  let recent = Flightrec.recent_spans fr in
  check_int "span ring keeps the last four" 4 (List.length recent);
  check_string "oldest survivor" "op7" (List.nth recent 0).Span.r_name;
  check_string "newest last" "op10" (List.nth recent 3).Span.r_name;
  let marks = Flightrec.recent_marks fr in
  check_int "mark ring bounded" 2 (List.length marks);
  check_bool "oldest mark evicted" true
    (List.for_all (fun (_, label) -> label <> "first") marks);
  let json = Json.to_string (Flightrec.to_json fr) in
  let has sub =
    let n = String.length sub and l = String.length json in
    let rec go i = i + n <= l && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "dump keeps span names" true (has "op10");
  check_bool "dump keeps totals" true (has "\"spans_seen\":10");
  check_bool "dump keeps marks" true (has "third")

(* --- Zero-cost at Off: the whole tracing layer must not allocate --- *)

let test_off_level_allocates_nothing () =
  with_level Obs.Off @@ fun () ->
  let c = Span.create () in
  (* [enable] forces the level up; undo that to test the gate itself. *)
  Span.enable c;
  Obs.set_level Obs.Off;
  let cp = Critpath.create () in
  Critpath.attach cp c;
  Span.retain c;
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let root = Span.root c ~track:"client" "txn" in
    (* Hot callers forward the parent as an option, guarded on null, so
       the Off path boxes nothing. *)
    let parent = if Span.is_null root then None else Some root in
    let sp = Span.start c ~track:"tmf" ?parent "tmf.commit" in
    Span.annotate sp ~key:"k" "v";
    Span.note_queue sp 25;
    Span.mark_queue sp 5;
    Span.link sp root;
    Span.finish c sp;
    Span.finish c root
  done;
  let delta = Gc.minor_words () -. w0 in
  (* The measurement itself boxes a couple of floats; the 10k-iteration
     loop must contribute nothing. *)
  check_bool
    (Printf.sprintf "Off loop allocated %.0f words" delta)
    true (delta < 64.0);
  check_int "no spans recorded" 0 (Span.count c);
  check_int "nothing reached the analyzer" 0 (Critpath.txns cp)

let suite =
  [
    ( "critpath",
      [
        Alcotest.test_case "exact tiling of a hand-built DAG" `Quick
          test_critpath_exact_tiling;
        Alcotest.test_case "trace crosses the remote 2PC hop" `Quick
          test_trace_crosses_remote_2pc_hop;
        Alcotest.test_case "batched txn links its group-commit flush" `Quick
          test_group_commit_batch_links_flush;
        Alcotest.test_case "fence-refresh retry shares the trace" `Quick
          test_fence_refresh_retry_shares_trace;
        Alcotest.test_case "same seed, identical report" `Quick
          test_critpath_deterministic;
        Alcotest.test_case "one collector feeds every subscriber" `Quick
          test_one_collector_feeds_every_subscriber;
        Alcotest.test_case "chrome export keeps the report" `Quick
          test_chrome_export_keeps_the_report;
        Alcotest.test_case "flight recorder rings are bounded" `Quick
          test_flightrec_rings_bounded;
        Alcotest.test_case "Off level allocates nothing" `Quick
          test_off_level_allocates_nothing;
      ] );
  ]

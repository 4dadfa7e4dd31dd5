(* Tests for the self-profiler (Simkit.Prof), the zero-cost telemetry
   level, and the odsbench perf report schema. *)

open Simkit
open Workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* The global telemetry level leaks across tests unless restored. *)
let with_level l f =
  let saved = Obs.level () in
  Obs.set_level l;
  Fun.protect ~finally:(fun () -> Obs.set_level saved) f

(* --- dispatch hooks --- *)

let test_dispatch_hooks () =
  let sim = Sim.create ~seed:1L () in
  let befores = ref 0 and afters = ref 0 and depth_hwm = ref 0 in
  Sim.set_dispatch_hooks sim
    ~before:(fun _owner depth ->
      incr befores;
      if depth > !depth_hwm then depth_hwm := depth)
    ~after:(fun () -> incr afters);
  for i = 1 to 5 do
    Sim.at sim ~after:(Time.ms i) (fun () -> ())
  done;
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"p" (fun () ->
        Sim.sleep (Time.ms 2);
        Sim.sleep (Time.ms 2))
  in
  Sim.run sim;
  check_bool "hooks fired" true (!befores > 0);
  check_int "before/after paired" !befores !afters;
  check_bool "saw queue depth" true (!depth_hwm > 0);
  (* Clearing stops the counting but not the simulation. *)
  Sim.clear_dispatch_hooks sim;
  let b = !befores in
  Sim.at sim ~after:(Time.ms 100) (fun () -> ());
  Sim.run sim;
  check_int "cleared hooks silent" b !befores

(* --- the attribution rule: every slice charged to its owner's role --- *)

let test_prof_roles () =
  let sim = Sim.create ~seed:2L () in
  let p = Prof.create () in
  Prof.install p sim;
  (* Scheduled outside every process: one [toplevel] slice. *)
  Sim.at sim ~after:(Time.ms 5) (fun () -> ());
  (* Two instances of one role: a start slice each, and the sleeper adds
     its timer, whose slice resumes it in place (nothing else is due at
     that instant). *)
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"cpu0:$ADP0:flusher" (fun () -> Sim.sleep (Time.ms 1))
  in
  let (_ : Sim.pid) = Sim.spawn sim ~name:"cpu3:$ADP1:flusher" (fun () -> ()) in
  (* A callback runs after its scheduler has ended and is still charged
     to it, as is the allocation inside it. *)
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"cpu1:$DP2-03:worker" (fun () ->
        Sim.at sim ~after:(Time.ms 2) (fun () ->
            Sys.opaque_identity (String.make 64 'x') |> ignore))
  in
  Sim.run sim;
  Prof.uninstall p;
  Alcotest.(check (list (pair string int)))
    "role rows and slices"
    [ ("$ADP:flusher", 3); ("$DP2:worker", 2); ("toplevel", 1) ]
    (List.sort compare (List.map (fun r -> (r.Prof.l_name, r.Prof.l_events)) (Prof.layer_rows p)));
  check_int "slices sum to events" (Prof.events p)
    (List.fold_left (fun n r -> n + r.Prof.l_events) 0 (Prof.layer_rows p));
  Alcotest.(check (float 1e-12))
    "rows sum to handler wall" (Prof.wall_total p)
    (List.fold_left (fun acc r -> acc +. r.Prof.l_wall) 0.0 (Prof.layer_rows p));
  let dp2 = List.find (fun r -> r.Prof.l_name = "$DP2:worker") (Prof.layer_rows p) in
  check_bool "callback allocation charged to its scheduler" true (dp2.Prof.l_minor >= 9.0);
  (* Uninstalled, the simulation runs on unobserved. *)
  check_bool "uninstalled" true (not (Prof.enabled ()));
  Sim.at sim ~after:(Time.ms 1) (fun () -> ());
  Sim.run sim;
  check_int "no new slices" 6 (Prof.events p)

let test_prof_single_install () =
  let sim = Sim.create ~seed:3L () in
  let p = Prof.create () in
  Prof.install p sim;
  Fun.protect
    ~finally:(fun () -> Prof.uninstall p)
    (fun () ->
      match Prof.install (Prof.create ()) sim with
      | () -> Alcotest.fail "second install must raise"
      | exception Invalid_argument _ -> ())

(* A run that raises must not leave its profiler installed: a PM cell
   with no inserts per transaction raises inside the simulation. *)
let test_prof_released_on_raise () =
  let p = Prof.create () in
  (match
     Figures.run_cell ~prof:p ~mode:Tp.System.Pm_audit ~drivers:1 ~inserts_per_txn:0
       ~records_per_driver:8 ()
   with
  | _ -> Alcotest.fail "an empty transaction must raise"
  | exception Invalid_argument _ -> ());
  check_bool "uninstalled after the raise" false (Prof.enabled ());
  let q = Prof.create () in
  Prof.install q (Sim.create ());
  Prof.uninstall q

(* --- determinism: identical seeded runs agree bit-for-bit --- *)

(* Also returns the minor words the whole run allocated, which bounds
   what the per-event accounts can have seen. *)
let profiled_pm_cell () =
  let p = Prof.create () in
  let w0 = Gc.minor_words () in
  let c =
    Figures.run_cell ~seed:0xF19L ~prof:p ~mode:Tp.System.Pm_audit ~drivers:2
      ~inserts_per_txn:8 ~records_per_driver:40 ()
  in
  (p, c.Figures.result.Hot_stock.committed, Gc.minor_words () -. w0)

let test_prof_deterministic () =
  (* One-time lazy initialisation (format caches, growing global
     buffers) lands in whichever run executes first in the process, so
     the determinism contract holds from the second run on — warm up
     once before comparing. *)
  let (_ : Prof.t * int * float) = profiled_pm_cell () in
  let a, ca, run_a = profiled_pm_cell () in
  let b, cb, run_b = profiled_pm_cell () in
  check_int "committed equal" ca cb;
  check_int "events equal" (Prof.events a) (Prof.events b);
  check_bool "minor words equal" true (Prof.minor_words a = Prof.minor_words b);
  check_bool "per-event minor words within the run's" true
    (Prof.minor_words a <= run_a && Prof.minor_words b <= run_b);
  check_int "heap hwm equal" (Prof.heap_depth_hwm a) (Prof.heap_depth_hwm b);
  check_int "envelopes equal" (Prof.envelope_count a) (Prof.envelope_count b);
  check_int "packets equal" (Prof.packet_count a) (Prof.packet_count b);
  check_int "pm writes equal" (Prof.pm_write_count a) (Prof.pm_write_count b);
  check_bool "pm cell has role rows" true (Prof.layer_rows a <> []);
  let by_name rows = List.sort (fun r1 r2 -> compare r1.Prof.l_name r2.Prof.l_name) rows in
  List.iter2
    (fun (ra : Prof.layer_row) (rb : Prof.layer_row) ->
      check_string "role" ra.Prof.l_name rb.Prof.l_name;
      check_int ("slices " ^ ra.Prof.l_name) ra.Prof.l_events rb.Prof.l_events;
      check_bool
        ("minor words " ^ ra.Prof.l_name)
        true
        (ra.Prof.l_minor = rb.Prof.l_minor))
    (by_name (Prof.layer_rows a))
    (by_name (Prof.layer_rows b))

(* --- the zero-cost disabled path --- *)

let test_disabled_path_allocates_nothing () =
  with_level Obs.Off @@ fun () ->
  let span_collector = Span.create () in
  (* [enable] forces the level up; undo that to test the gate itself. *)
  Span.enable span_collector;
  Span.retain span_collector;
  Obs.set_level Obs.Off;
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Prof.bump_envelope ();
    Prof.bump_packets 3;
    Prof.bump_pm_write ();
    let sp = Span.start span_collector ~track:"main" "op" in
    Span.annotate sp ~key:"k" "v";
    Span.finish span_collector sp
  done;
  let delta = Gc.minor_words () -. w0 in
  (* The measurement itself boxes a couple of floats; the 10k-iteration
     loop must contribute nothing. *)
  check_bool
    (Printf.sprintf "disabled loop allocated %.0f words" delta)
    true (delta < 64.0);
  check_int "no spans recorded" 0 (Span.count span_collector)

let test_level_gates_counters () =
  with_level Obs.Off @@ fun () ->
  let probe = Probe.create () in
  Probe.enqueue probe;
  Probe.enqueue probe;
  Probe.dequeue probe;
  check_int "queue depth frozen while off" 0 (Probe.depth probe);
  check_int "nothing counted while off" 0 (Probe.enqueued probe);
  Obs.set_level Obs.Spans;
  Probe.enqueue probe;
  check_int "live again at Spans" 1 (Probe.depth probe)

(* --- perf report: schema round-trip and the baseline gate --- *)

let mem key doc =
  match Json.member key doc with Some v -> v | None -> Alcotest.fail ("missing " ^ key)

let test_perf_report_roundtrip () =
  let report = Perf.run ~records:30 () in
  let doc = Perf.to_json report in
  let parsed =
    match Json.parse (Json.to_string doc) with
    | Ok d -> d
    | Error e -> Alcotest.fail ("report does not re-parse: " ^ e)
  in
  check_bool "schema" true (Json.to_string_opt (mem "schema" parsed) = Some Perf.schema);
  check_bool "schema_version" true
    (Json.to_int_opt (mem "schema_version" parsed) = Some Perf.schema_version);
  let workloads =
    match Json.to_list_opt (mem "workloads" parsed) with
    | Some l -> l
    | None -> Alcotest.fail "workloads not a list"
  in
  Alcotest.(check (list string))
    "matrix names in order" Perf.workload_names
    (List.map (fun w -> Option.get (Json.to_string_opt (mem "name" w))) workloads);
  List.iter
    (fun w ->
      let int_field k = Option.get (Json.to_int_opt (mem k w)) in
      let float_field k = Option.get (Json.to_float_opt (mem k w)) in
      check_bool "events > 0" true (int_field "events" > 0);
      check_bool "events_per_sec > 0" true (float_field "events_per_sec" > 0.0);
      check_bool "committed > 0" true (int_field "committed" > 0);
      Alcotest.(check (float 1e-9))
        "events per commit" (float_field "events_per_commit")
        (float_of_int (int_field "events") /. float_of_int (int_field "committed"));
      check_bool "minor words per commit > 0" true (float_field "minor_words_per_commit" > 0.0);
      check_bool "no unattributed row" true (Json.member "unattributed_wall_s" w = None);
      let roles = Option.get (Json.to_list_opt (mem "roles" w)) in
      check_bool "roles present" true (roles <> []);
      (* Role rows and the loop's own time account for every elapsed
         wall-second, and every dispatched slice is in one row. *)
      let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 roles in
      let slices = sum (fun r -> float_of_int (Option.get (Json.to_int_opt (mem "slices" r))))
      in
      check_int "slices sum to events" (int_field "events") (int_of_float slices);
      check_bool "loop time non-negative" true (float_field "loop_wall_s" >= 0.0);
      Alcotest.(check (float 1e-9))
        "rows sum to elapsed wall" (float_field "wall_s")
        (sum (fun r -> Option.get (Json.to_float_opt (mem "wall_s" r)))
        +. float_field "loop_wall_s"))
    workloads;
  (* The PM cell's commit path runs in the ADP and DP2 processes. *)
  let pm =
    List.find (fun w -> Json.to_string_opt (mem "name" w) = Some "hot-stock-pm") workloads
  in
  let role_names =
    List.map
      (fun r -> Option.get (Json.to_string_opt (mem "role" r)))
      (Option.get (Json.to_list_opt (mem "roles" pm)))
  in
  let has prefix = List.exists (String.starts_with ~prefix) role_names in
  check_bool "ADP rows" true (has "$ADP:");
  check_bool "DP2 rows" true (has "$DP2:");
  (* A backup applies checkpoints in a callback charged to the role that
     shipped them, so no backup role has a row. *)
  check_bool "no backup rows" false
    (List.exists (String.ends_with ~suffix:":backup") role_names);
  (* Telemetry must not change simulated results. *)
  let o = mem "telemetry_overhead" parsed in
  check_bool "sim elapsed unchanged" true
    (Json.to_bool_opt (mem "sim_elapsed_equal" o) = Some true);
  check_bool "committed unchanged" true
    (Json.to_bool_opt (mem "committed_equal" o) = Some true);
  (* Baseline gate: a report never regresses against itself... *)
  (match Perf.compare_baseline ~baseline:parsed ~current:doc ~regress_pct:25.0 with
  | Ok verdicts ->
      check_int "one verdict per workload" (List.length Perf.workload_names)
        (List.length verdicts);
      check_bool "self-comparison ok" true (Perf.all_ok verdicts)
  | Error e -> Alcotest.fail e);
  (* ...and an inflated baseline trips it. *)
  let inflated =
    match parsed with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "workloads", Json.List ws ->
                   ( "workloads",
                     Json.List
                       (List.map
                          (function
                            | Json.Obj wf ->
                                Json.Obj
                                  (List.map
                                     (function
                                       | "events_per_sec", Json.Float e ->
                                           ("events_per_sec", Json.Float (e *. 100.0))
                                       | kv -> kv)
                                     wf)
                            | w -> w)
                          ws) )
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "report is not an object"
  in
  (match Perf.compare_baseline ~baseline:inflated ~current:doc ~regress_pct:25.0 with
  | Ok verdicts -> check_bool "inflated baseline trips the gate" false (Perf.all_ok verdicts)
  | Error e -> Alcotest.fail e);
  check_bool "threshold validated" true
    (match Perf.compare_baseline ~baseline:parsed ~current:doc ~regress_pct:0.0 with
    | Error _ -> true
    | Ok _ -> false)

let test_perf_json_errors () =
  (match Json.parse "{\"schema\": \"x\"}" with
  | Ok d ->
      check_bool "no workloads is an error" true
        (match Perf.events_per_sec_of_json d with Error _ -> true | Ok _ -> false)
  | Error e -> Alcotest.fail e);
  check_bool "trailing garbage rejected" true
    (match Json.parse "{} junk" with Error _ -> true | Ok _ -> false)

let suite =
  [
    ( "prof",
      [
        Alcotest.test_case "dispatch hooks" `Quick test_dispatch_hooks;
        Alcotest.test_case "role attribution" `Quick test_prof_roles;
        Alcotest.test_case "single install" `Quick test_prof_single_install;
        Alcotest.test_case "raising run uninstalls" `Quick test_prof_released_on_raise;
        Alcotest.test_case "deterministic across runs" `Quick test_prof_deterministic;
        Alcotest.test_case "disabled path allocates nothing" `Quick
          test_disabled_path_allocates_nothing;
        Alcotest.test_case "level gates counters" `Quick test_level_gates_counters;
        Alcotest.test_case "perf report round-trip" `Quick test_perf_report_roundtrip;
        Alcotest.test_case "perf json errors" `Quick test_perf_json_errors;
      ] );
  ]

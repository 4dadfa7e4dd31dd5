(* The repository benchmark.

     dune exec ./benchmark/benchmark.exe -- --seed 42 [--json] [--quick] [--workload NAME]
     dune exec ./benchmark/benchmark.exe -- --workload NAME --seed N --seconds S --trace 0|1
     dune exec ./benchmark/benchmark.exe -- --compare A.json B.json

   With --trace, one workload runs in this process and the last line of
   stdout is its result: {"correct", "attempted", "failed", "metrics"},
   the end-to-end metrics with --trace 0 and the per-layer ones with
   --trace 1.  Without it, every workload (or the one named) runs twice
   in child processes, untraced then traced, one after another, and the
   results are checked against BENCHMARK.json.  See README.md. *)

open Simkit

let now = Unix.gettimeofday

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (Spec.metric * float) list;
  errors : string list;
}

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_json r =
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" r.correct
    r.attempted r.failed;
  List.iteri
    (fun i ((m : Spec.metric), v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: {\"value\": %s, \"unit\": %S}" m.Spec.name (number v) m.Spec.units)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* Order [values] as [table] declares and check nothing is missing or
   left over, so the printed set is exactly the declared one. *)
let in_order table values errors =
  List.iter
    (fun (name, _) ->
      if Spec.find table name = None then errors := ("undeclared metric " ^ name) :: !errors)
    values;
  List.map
    (fun (m : Spec.metric) ->
      match List.assoc_opt m.Spec.name values with
      | Some v ->
          if not (Float.is_finite v) then errors := (m.Spec.name ^ " is not finite") :: !errors;
          (m, v)
      | None ->
          errors := ("no value for " ^ m.Spec.name) :: !errors;
          (m, nan))
    table

let finish table ~attempted ~failed values errors =
  let errors = ref errors in
  let metrics = in_order table values errors in
  if failed > 0 then errors := Printf.sprintf "%d operations failed" failed :: !errors;
  { correct = !errors = []; attempted; failed; metrics; errors = List.rev !errors }

let peak_rss_mib () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  let line =
    List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* --- timing against the host's speed --- *)

(* The reference time, each side cleared of garbage so neither it nor
   the next unit pays for the other's.  The least of three readings:
   over ten seeds it cut the spread of wall_s from 4.5% to 2.6% on
   hotstock-pm and from 6.0% to 3.5% on open-pm, against one reading. *)
let reference () =
  Gc.full_major ();
  let t = List.fold_left Float.min infinity (List.init 3 (fun _ -> Host_speed.reference ())) in
  Gc.full_major ();
  t

let last_reference = ref nan

let scale wall ~before ~after = wall *. Host_speed.nominal /. sqrt (before *. after)

type timed = { outcome : Suite.outcome; scaled : float; raw : float; alloc_mib : float }

(* Run one unit between two reference timings (the one before it is the
   one after the previous unit). *)
let timed_unit ~seed tracer ev (u : Suite.unit_run) =
  if Float.is_nan !last_reference then last_reference := reference ();
  let before = !last_reference in
  let a0 = Gc.allocated_bytes () in
  let o = u ~seed tracer ev in
  let alloc_mib = (Gc.allocated_bytes () -. a0) /. 1048576. in
  let after = reference () in
  last_reference := after;
  { outcome = o; scaled = scale o.Suite.wall_s ~before ~after; raw = o.Suite.wall_s; alloc_mib }

let range xs =
  let q1, q2, q3 = Quantiles.quartiles xs in
  Printf.sprintf "median %.4f s [q1 %.4f, q3 %.4f]" q2 q1 q3

let sim_errors first reps =
  if List.for_all (fun rep -> List.map (fun t -> t.outcome.Suite.sim) rep = first) reps then []
  else [ "sim-time results differ between runs of the same seed" ]

(* --- one workload, end-to-end (--trace 0) --- *)

let measured (w : Suite.workload) ~table ~seed ~seconds size =
  Obs.set_level Obs.Off;
  ignore (reference ());
  (* Set-up: at least five builds and at least a second of them. *)
  let before = reference () in
  let t0 = now () in
  let rec builds acc n =
    if size = Suite.Quick && n = 1 then acc
    else if (n >= 5 && now () -. t0 >= 1.) || n >= 50 then acc
    else builds (Suite.time_setup w.Suite.setup_config :: acc) (n + 1)
  in
  let setups = builds [] 0 in
  let after = reference () in
  last_reference := after;
  let units = w.Suite.units size in
  (* The process's first run pays for growing its heap; keep it out. *)
  if size = Suite.Full then ignore (timed_unit ~seed None (Suite.evidence ()) (List.hd units));
  (* Reps until the next one would overrun [seconds]; at least one. *)
  let started = now () in
  let rec loop reps =
    let t0 = now () in
    let rep = List.map (timed_unit ~seed None (Suite.evidence ())) units in
    let reps = rep :: reps in
    if now () -. started +. (now () -. t0) <= seconds then loop reps else List.rev reps
  in
  let reps = loop [] in
  (* Peak RSS over the whole run.  Read after the first rep, it was
     bimodal on hotstock-disk: 66 or 75 MiB across runs of one seed that
     allocated identically but collected at different times.  By the end
     of a run, every run had reached 75 MiB. *)
  let rss = peak_rss_mib () in
  let first = List.hd reps in
  List.iter (fun t -> Printf.printf "  %s\n" t.outcome.Suite.label) first;
  (* A rep's wall time is the sum over its units of each unit's median. *)
  let per_unit f = List.mapi (fun i _ -> List.map (fun rep -> f (List.nth rep i)) reps) units in
  let sum_medians f = List.fold_left (fun acc xs -> acc +. Quantiles.median xs) 0. (per_unit f) in
  let wall = sum_medians (fun t -> t.scaled) and raw = sum_medians (fun t -> t.raw) in
  let setup = Quantiles.median setups in
  Printf.printf "  %d reps: wall %.4f s at reference speed (%.4f s as timed); %d builds, %s\n"
    (List.length reps) wall raw (List.length setups) (range setups);
  let outcomes = List.concat reps in
  let sum f = List.fold_left (fun n t -> n + f t.outcome) 0 outcomes in
  finish table
    ~attempted:(sum (fun o -> o.Suite.attempted))
    ~failed:(sum (fun o -> o.Suite.failed))
    ([
       ("setup_s", scale setup ~before ~after);
       ("wall_s", wall);
       ("peak_rss_mib", rss);
     ]
    @ w.Suite.summarize (List.map (fun t -> t.outcome) first))
    (List.concat_map (fun t -> t.outcome.Suite.errors) outcomes
    @ sim_errors (List.map (fun t -> t.outcome.Suite.sim) first) reps)

(* --- one workload, per layer (--trace 1) --- *)

(* Critical-path hops by the layer that owns them, from the span name
   (hop names are "track:name"; volume tracks are "vol:<name>"). *)
let layer_of_hop hop =
  let cut = String.rindex hop ':' in
  let track = String.sub hop 0 cut
  and name = String.sub hop (cut + 1) (String.length hop - cut - 1) in
  let starts prefix = String.starts_with ~prefix name in
  if name = "txn" || starts "txn." then "tp.client"
  else if starts "tmf." then "tp.tmf"
  else if starts "adp." || starts "log." then "tp.adp"
  else if name = "dp2.lock" || starts "lock." then "tp.lockmgr"
  else if starts "dp2." then "tp.dp2"
  else if starts "fabric." then "servernet"
  else if starts "pm." then "pm"
  else if starts "disk." || String.starts_with ~prefix:"vol:" track then "diskio"
  else "nsk"

let crit_layers = [ "nsk"; "servernet"; "pm"; "diskio"; "tp.client"; "tp.tmf"; "tp.adp"; "tp.dp2"; "tp.lockmgr" ]

let layer_metrics ~probes ~alloc_mib ~overhead (t : Suite.tracer) (ev : Suite.evidence) errors ~check_critpath =
  let per_txn x = float_of_int x /. float_of_int (max 1 ev.Suite.txns) in
  let hops = Critpath.hops t.Suite.cp in
  let sum f = List.fold_left (fun acc h -> acc + f h) 0 hops in
  let total = float_of_int (sum (fun h -> h.Critpath.h_queue + h.Critpath.h_service)) in
  let in_layer layer f h = if layer_of_hop h.Critpath.h_name = layer then f h else 0 in
  let share layer f = if total = 0. then 0. else float_of_int (sum (in_layer layer f)) /. total in
  let crit layer = (layer ^ ".crit_share", share layer (fun h -> h.Critpath.h_queue + h.Critpath.h_service)) in
  let queue layer = (layer ^ ".queue_share", share layer (fun h -> h.Critpath.h_queue)) in
  (* Hops tile each transaction's ack latency exactly, so their mean
     must be the mean commit latency the benchmark measured itself. *)
  let txns = Critpath.txns t.Suite.cp in
  let crit_ms = total /. float_of_int (max 1 txns) /. 1e6 in
  let ack_ms = ev.Suite.ack_ns /. float_of_int (max 1 ev.Suite.txns) /. 1e6 in
  Printf.printf "  critical path: %d txns, hops sum to %.6f ms, commits average %.6f ms (crit.sum_error_ms %.6f)\n"
    txns crit_ms ack_ms (crit_ms -. ack_ms);
  if check_critpath then begin
    if txns <> ev.Suite.txns || Critpath.evicted t.Suite.cp > 0 then
      errors :=
        Printf.sprintf "critical path finalized %d of %d commits (%d evicted)" txns ev.Suite.txns
          (Critpath.evicted t.Suite.cp)
        :: !errors;
    if Float.abs (crit_ms -. ack_ms) > 0.001 *. ack_ms then
      errors := Printf.sprintf "hop sum %.6f ms <> mean commit %.6f ms" crit_ms ack_ms :: !errors
  end;
  let p = t.Suite.prof in
  let sections = List.fold_left (fun acc r -> acc +. r.Prof.l_wall) 0. (Prof.layer_rows p) in
  let disk_ops =
    match Metrics.find (Obs.metrics t.Suite.obs) "disk.ops" with
    | Some (Metrics.Counter c) -> Stat.Counter.get c
    | _ -> 0
  in
  probes
  @ List.map crit crit_layers
  @ [
      ("simkit.events_per_txn", per_txn (Prof.events p));
      ("simkit.heap_hwm", float_of_int (Prof.heap_depth_hwm p));
      ("simkit.alloc_mib", alloc_mib);
      ("simkit.prof_unattributed_share", 1. -. (sections /. Prof.wall_total p));
      ("simkit.trace_overhead_pct", overhead);
      ("nsk.envelopes_per_txn", per_txn (Prof.envelope_count p));
      ("servernet.packets_per_txn", per_txn (Prof.packet_count p));
      ("pm.writes_per_txn", per_txn (Prof.pm_write_count p));
      ("pm.write_retries", float_of_int ev.Suite.pm_write_retries);
      ("pm.read_repairs", float_of_int ev.Suite.pm_read_repairs);
      ("diskio.ops_per_txn", per_txn disk_ops);
      queue "diskio";
      queue "tp.adp";
      ("tp.adp.txns_per_flush", float_of_int ev.Suite.txns /. float_of_int (max 1 ev.Suite.flushes));
      ( "tp.audit_bytes_per_user_byte",
        float_of_int ev.Suite.audit_bytes /. float_of_int (max 1 ev.Suite.user_bytes) );
      ("tp.ckpt_bytes_per_txn", per_txn ev.Suite.ckpt_bytes);
      ("tp.lock_conflicts", float_of_int ev.Suite.lock_conflicts);
      ("tp.recovery.bytes_scanned", float_of_int ev.Suite.rec_bytes);
      ("tp.recovery.records_replayed", float_of_int ev.Suite.rec_records);
    ]

let traced (w : Suite.workload) ~table ~seed size =
  let probes = Probes.all ~quick:(size = Suite.Quick) in
  (* The same units twice: untraced for allocation and the overhead
     baseline, then with every instrument attached. *)
  Obs.set_level Obs.Off;
  let units = w.Suite.traced size in
  if size = Suite.Full then ignore (timed_unit ~seed None (Suite.evidence ()) (List.hd units));
  let plain = List.map (timed_unit ~seed None (Suite.evidence ())) units in
  let t = Suite.tracer () in
  let ev = Suite.evidence () in
  Trace_log.enable ();
  let traced = List.map (timed_unit ~seed (Some t) ev) units in
  let path = Printf.sprintf "benchmark/out/trace_%s.json" w.Suite.name in
  Trace_log.write ~path ~workload:w.Suite.name ~seed;
  List.iter (fun t -> Printf.printf "  %s\n" t.outcome.Suite.label) traced;
  let total f ts = List.fold_left (fun acc t -> acc +. f t) 0. ts in
  let overhead = ((total (fun t -> t.scaled) traced /. total (fun t -> t.scaled) plain) -. 1.) *. 100. in
  Printf.printf "  untraced %.3f s, traced %.3f s as timed; bench spans in %s\n"
    (total (fun t -> t.raw) plain) (total (fun t -> t.raw) traced) path;
  let outcomes = List.map (fun t -> t.outcome) (plain @ traced) in
  let errors =
    ref
      (List.concat_map (fun o -> o.Suite.errors) outcomes
      @
      if List.map (fun t -> t.outcome.Suite.sim) traced = List.map (fun t -> t.outcome.Suite.sim) plain
      then []
      else [ "tracing changed the sim-time results" ])
  in
  let values =
    layer_metrics ~probes ~alloc_mib:(total (fun t -> t.alloc_mib) plain) ~overhead t ev errors
      ~check_critpath:w.Suite.check_critpath
  in
  let sum f = List.fold_left (fun n o -> n + f o) 0 outcomes in
  finish table
    ~attempted:(sum (fun o -> o.Suite.attempted))
    ~failed:(sum (fun o -> o.Suite.failed))
    values !errors

let run_one (spec : Spec.t) (w : Suite.workload) ~seed ~seconds ~trace size =
  Printf.printf "%s, seed %d: %s\n%!" w.Suite.name seed
    (if trace then "traced run, per-layer metrics"
     else Printf.sprintf "%g s measured, end-to-end metrics" seconds);
  let r =
    if trace then traced w ~table:spec.Spec.per_layer ~seed size
    else measured w ~table:(List.map fst spec.Spec.end_to_end) ~seed ~seconds size
  in
  List.iter
    (fun ((m : Spec.metric), v) -> Printf.printf "  %-32s %18.6f %s\n" m.Spec.name v m.Spec.units)
    r.metrics;
  List.iter (Printf.printf "  CHECK FAILED: %s\n") r.errors;
  List.iter (Printf.eprintf "%s: check failed: %s\n%!" w.Suite.name) r.errors;
  print_endline (result_json r);
  if r.correct then 0 else 1


(* --- every workload, in child processes --- *)

let names = List.map (fun (w : Suite.workload) -> w.Suite.name) Suite.workloads

(* A child's result line: each metric's name and unit must be declared,
   and every declared one present. *)
let check_result table (json : Json.t) =
  match Json.member "metrics" json with
  | Some (Json.Obj fields) ->
      let names = List.map fst fields in
      List.filter_map
        (fun (name, v) ->
          match (Spec.find table name, Option.bind (Json.member "unit" v) Json.to_string_opt) with
          | None, _ -> Some ("undeclared metric " ^ name)
          | Some m, Some u when u = m.Spec.units -> None
          | Some _, _ -> Some ("wrong unit on " ^ name))
        fields
      @ List.filter_map
          (fun (m : Spec.metric) ->
            if List.mem m.Spec.name names then None else Some ("missing metric " ^ m.Spec.name))
          table
  | _ -> [ "result has no metrics object" ]

let child ~exe ~workload ~seed ~seconds ~trace ~quick =
  let args =
    [ exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
      "--trace"; (if trace then "1" else "0") ]
    @ if quick then [ "--quick" ] else []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let rec read last =
    match In_channel.input_line ic with
    | None -> last
    | Some line ->
        Option.iter print_endline last;
        read (Some line)
  in
  let last = read None in
  flush stdout;
  let status = Unix.close_process_in ic in
  match (last, status) with
  | Some line, Unix.WEXITED code -> (line, code)
  | None, _ -> ("", 1)
  | Some line, _ -> (line, 1)

let run_all (spec : Spec.t) ~workloads ~seed ~seconds ~quick ~json =
  let spec_errors = if spec.Spec.workloads = names then [] else [ "declared workloads differ" ] in
  List.iter (Printf.eprintf "%s: %s\n%!" Spec.path) spec_errors;
  let exe = Sys.executable_name in
  let t0 = now () in
  let rows =
    List.map
      (fun workload ->
        let part trace table =
          let line, code = child ~exe ~workload ~seed ~seconds ~trace ~quick in
          let problems =
            match Json.parse line with
            | Error e -> [ "unreadable result: " ^ e ]
            | Ok j ->
                check_result table j
                @ (if Option.bind (Json.member "correct" j) Json.to_bool_opt = Some true then []
                   else [ "checks failed" ])
          in
          let problems = if code = 0 then problems else Printf.sprintf "exit %d" code :: problems in
          List.iter (Printf.eprintf "%s: %s\n%!" workload) problems;
          (line, problems = [])
        in
        let e2e, ok1 = part false (List.map fst spec.Spec.end_to_end) in
        let layers, ok2 = part true spec.Spec.per_layer in
        (workload, e2e, layers, ok1 && ok2))
      workloads
  in
  let ok = spec_errors = [] && List.for_all (fun (_, _, _, ok) -> ok) rows in
  Printf.printf "benchmark: %s, %d workload(s), seed %d, %.1f s total\n"
    (if ok then "all checks passed" else "FAILED")
    (List.length rows) seed (now () -. t0);
  if json then
    Printf.printf "{\"seed\": %d, \"seconds\": %g, \"quick\": %b, \"correct\": %b, \"workloads\": [%s]}\n"
      seed seconds quick ok
      (String.concat ", "
         (List.map
            (fun (w, e2e, layers, _) ->
              Printf.sprintf "{\"name\": %S, \"end_to_end\": %s, \"per_layer\": %s}" w e2e layers)
            rows));
  if ok then 0 else 1

(* --- --compare --- *)

(* Every document in [path] (one JSON object per line, as --json prints
   them): workload -> metric -> value, one value per document. *)
let load_runs path =
  let fail what = failwith (path ^ ": " ^ what) in
  let get key conv json =
    match Option.bind (Json.member key json) conv with Some v -> v | None -> fail ("bad or missing " ^ key)
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         match Json.parse line with
         | Error e -> fail e
         | Ok doc ->
             List.map
               (fun w ->
                 let metrics =
                   match Option.bind (Json.member "end_to_end" w) (Json.member "metrics") with
                   | Some (Json.Obj fields) ->
                       List.filter_map
                         (fun (name, v) ->
                           Option.map
                             (fun x -> (name, x))
                             (Option.bind (Json.member "value" v) Json.to_float_opt))
                         fields
                   | _ -> []
                 in
                 (get "name" Json.to_string_opt w, metrics))
               (get "workloads" Json.to_list_opt doc))

let values runs workload metric =
  List.filter_map
    (fun doc -> Option.bind (List.assoc_opt workload doc) (List.assoc_opt metric))
    runs

(* A verdict per the benchmark's own bound: unresolved when either side's
   run-to-run spread is wider than the bound, unless every B run beats
   every A run. *)
let verdict (m : Spec.metric) bound a b =
  let worse_by =
    let ma = Quantiles.median a and mb = Quantiles.median b in
    match m.Spec.better with Spec.Lower -> (mb -. ma) /. ma | Spec.Higher -> (ma -. mb) /. ma
  in
  let fold f = List.fold_left f in
  let all_better =
    match m.Spec.better with
    | Spec.Lower -> fold Float.max neg_infinity b < fold Float.min infinity a
    | Spec.Higher -> fold Float.min infinity b > fold Float.max neg_infinity a
  in
  if all_better then "ok"
  else if Quantiles.spread a > bound || Quantiles.spread b > bound then "unresolved"
  else if worse_by > bound then "regressed"
  else "ok"

let compare_files (spec : Spec.t) a_path b_path =
  let a = load_runs a_path and b = load_runs b_path in
  Printf.printf "A = %s (%d runs), B = %s (%d runs); median [q1, q3]\n" a_path (List.length a)
    b_path (List.length b);
  Printf.printf "%-14s %-14s %38s %38s %8s  %s\n" "workload" "metric" "A" "B" "bound" "verdict";
  let regressed = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun ((m : Spec.metric), bound) ->
          match (values a w m.Spec.name, values b w m.Spec.name) with
          | [], _ | _, [] -> Printf.printf "%-14s %-14s missing on one side\n" w m.Spec.name
          | va, vb ->
              let show v =
                let q1, q2, q3 = Quantiles.quartiles v in
                Printf.sprintf "%12.6g [%10.6g, %10.6g]" q2 q1 q3
              in
              let v = verdict m bound va vb in
              if v = "regressed" then regressed := true;
              Printf.printf "%-14s %-14s %38s %38s %7.1f%%  %s\n" w m.Spec.name (show va) (show vb)
                (bound *. 100.) v)
        spec.Spec.end_to_end)
    spec.Spec.workloads;
  if !regressed then 1 else 0

(* --- command line --- *)

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 10. and trace = ref None in
  let quick = ref false and json = ref false and compare = ref [] in
  let specs =
    [
      ( "--workload",
        Arg.Symbol (names, fun w -> workload := Some w),
        " run this workload only" );
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per workload run (default 10)");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun t -> trace := Some (t = "1")),
        " run one workload in this process: 0 end-to-end, 1 per-layer (traced)" );
      ("--quick", Arg.Set quick, " smoke sizes");
      ("--json", Arg.Set json, " end with one JSON document of every result");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun a -> compare := [ a ]); Arg.String (fun b -> compare := !compare @ [ b ]) ],
        "A.json B.json compare two sets of --json runs" );
    ]
  in
  let usage = "benchmark.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--json]" in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let spec = Spec.load () in
  let size = if !quick then Suite.Quick else Suite.Full in
  if !quick then seconds := 0.;
  let code =
    match (!compare, !trace, !workload) with
    | [ a; b ], _, _ -> compare_files spec a b
    | _, Some trace, Some name ->
        let w = List.find (fun (w : Suite.workload) -> w.Suite.name = name) Suite.workloads in
        run_one spec w ~seed:!seed ~seconds:!seconds ~trace size
    | _, Some _, None ->
        prerr_endline "--trace needs --workload";
        2
    | _, None, _ ->
        let workloads = match !workload with Some w -> [ w ] | None -> names in
        run_all spec ~workloads ~seed:!seed ~seconds:!seconds ~quick:!quick ~json:!json
  in
  exit code

(* odsbench: run any experiment of the reproduction from the command line.

   Every sub-command is one row of [experiments] at the end of this file,
   built from one layer of shared flags and printed through one output
   layer.  --records scales the per-driver record count down from the
   paper's 32 000 for quick runs. *)

open Cmdliner
open Simkit
open Workloads

(* --- flag layer --- *)

(* Every numeric flag parses through [checked]: a value out of the
   flag's range is a usage error (exit 124), never a hang, an empty run
   or an uncaught exception. *)
let checked base expected ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv base) (parse, Arg.conv_printer base)

let positive = checked Arg.int "a positive integer" (fun n -> n > 0)

let percent = checked Arg.float "a percentage in (0, 100)" (fun x -> x > 0. && x < 100.)

(* The non-negative variants are only for flags where 0 has a documented
   meaning. *)
let non_negative = checked Arg.int "a non-negative integer" (fun n -> n >= 0)

let non_negative_float = checked Arg.float "a non-negative number" (fun x -> x >= 0.)

let opt parse names ~docv ~doc default = Arg.(value & opt parse default & info names ~docv ~doc)

let count name ~doc default = opt positive [ name ] ~docv:"N" ~doc default

let records default = count "records" ~doc:"Records inserted per driver (paper: 32000)." default

let drivers default = count "drivers" ~doc:"Driver count." default

let boxcar default = count "boxcar" ~doc:"Inserts per transaction." default

let seed ~doc default = count "seed" ~doc default

let interval_ms conv ~doc default = opt conv [ "interval-ms" ] ~docv:"MS" ~doc default

let flag name ~doc = Arg.(value & flag & info [ name ] ~doc)

let no_defenses ~doc = flag "no-defenses" ~doc

let json = flag "json" ~doc:"Emit the table as a JSON document on stdout instead of text."

let backends = [ ("disk", Tp.System.Disk_audit); ("pm", Tp.System.Pm_audit) ]

let mode_to_string m = fst (List.find (fun (_, m') -> m' = m) backends)

(* A wider --mode is a scope: [`Single] backend, one cell per backend
   ([`Both]) or the multi-node [`Cluster]; each command offers its own
   subset of the three. *)
let singles = [ ("disk", `Single Tp.System.Disk_audit); ("pm", `Single Tp.System.Pm_audit) ]

let modes_of = function `Single m -> [ m ] | `Both -> List.map snd backends

(* One closed --mode flag: a typo is a usage error that names the valid
   values, never a silent disk run. *)
let mode ~doc choices default =
  let docv = String.concat "|" (List.map fst choices) in
  opt (Arg.enum choices) [ "mode" ] ~docv ~doc default

let backend = mode ~doc:"Audit backend." backends Tp.System.Disk_audit

let device =
  opt
    (Arg.enum [ ("npmu", Tp.System.Hardware_npmu); ("pmp", Tp.System.Prototype_pmp) ])
    [ "device" ] ~docv:"npmu|pmp" ~doc:"PM device kind (hardware NPMU or prototype PMP)."
    Tp.System.Hardware_npmu

(* The PMP prototype is configured on top of the PM config. *)
let device_config = function
  | Tp.System.Prototype_pmp ->
      { Tp.System.pm_config with Tp.System.pm_device_kind = Tp.System.Prototype_pmp }
  | Tp.System.Hardware_npmu -> Tp.System.default_config

(* --- output layer --- *)

let hr () = print_endline (String.make 72 '-')

(* The one switch every --json command emits through. *)
let emit json doc text = if json then print_endline (Json.to_string (doc ())) else text ()

(* A fixed-width table: titles, a rule, then one line per row with each
   column right-aligned to its width and separated by one space. *)
let table titles columns rows =
  List.iter print_endline titles;
  hr ();
  let line cells =
    print_endline
      (String.concat " " (List.map2 (fun (w, _, _) c -> Printf.sprintf "%*s" w c) columns cells))
  in
  line (List.map (fun (_, heading, _) -> heading) columns);
  List.iter (fun row -> line (List.map (fun (_, _, cell) -> cell row) columns)) rows;
  hr ()

let f1 = Printf.sprintf "%.1f"

let f2 = Printf.sprintf "%.2f"

let ms us = f2 (us /. 1e3)

(* An unreadable input or unwritable output path is the operator's
   error: say which path and why, and exit 2. *)
let file_error e =
  prerr_endline ("odsbench: " ^ e);
  exit 2

let read_whole_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error e -> file_error e

let write_text_file path contents =
  try
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  with Sys_error e -> file_error e

(* With --mode both one output path serves two runs: the mode name goes
   before the extension (out.csv -> out-disk.csv, out-pm.csv). *)
let path_for scope path mode =
  if scope <> `Both then path
  else
    let m = mode_to_string mode in
    match Filename.extension path with
    | "" -> path ^ "-" ^ m
    | ext -> Filename.remove_extension path ^ "-" ^ m ^ ext

(* Recovery failures must reach the operator: message on stderr, exit
   non-zero — not a line lost in a table on stdout. *)
let or_die f =
  try f ()
  with Failure msg ->
    prerr_endline ("odsbench: " ^ msg);
    exit 1

let build_system mode sim =
  Tp.System.build sim { Tp.System.default_config with Tp.System.log_mode = mode }

(* --- the paper's figures and the ablations --- *)

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
             ( "paper_speedup",
               match p.Figures.paper_speedup with Some x -> Json.Float x | None -> Json.Null );
           ])
       points)

let fig1 records json =
  let points = Figures.figure1 ~records_per_driver:records () in
  emit json
    (fun () -> fig1_json points)
    (fun () ->
      table
        [
          "FIGURE 1: response-time speedup with PM vs transaction size";
          "(paper: up to 3.5x, best at small boxcars and 1-2 drivers)";
        ]
        [
          (8, "drivers", fun p -> string_of_int p.Figures.f1_drivers);
          (8, "txnsize", fun p -> p.Figures.txn_size);
          (12, "disk RT(ms)", fun p -> ms p.Figures.rt_disk_us);
          (12, "PM RT(ms)", fun p -> ms p.Figures.rt_pm_us);
          (10, "speedup", fun p -> f2 p.Figures.speedup);
          (18, "paper(approx)", fun p -> Option.fold ~none:"-" ~some:f1 p.Figures.paper_speedup);
        ]
        points)

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
  emit json
    (fun () -> fig2_json points)
    (fun () ->
      table
        [
          "FIGURE 2: elapsed time vs transaction size (PM eliminates boxcarring)";
          "(paper: no-PM rises sharply as boxcarring shrinks; PM nearly flat)";
        ]
        [
          (8, "drivers", fun p -> string_of_int p.Figures.f2_drivers);
          (8, "txnsize", fun p -> p.Figures.f2_txn_size);
          (16, "disk elapsed(s)", fun p -> f2 p.Figures.elapsed_disk_s);
          (14, "PM elapsed(s)", fun p -> f2 p.Figures.elapsed_pm_s);
        ]
        points)

let sweep_latency records =
  table
    [
      "E3: PM write-latency sweep (1 driver, boxcar 8)";
      "(the PM advantage should die as the device approaches disk speed)";
    ]
    [
      (14, "penalty", fun p -> Time.to_string p.Figures.penalty);
      (12, "RT (ms)", fun (p : Figures.latency_point) -> ms p.Figures.rt_us);
      (18, "speedup vs disk", fun p -> f2 p.Figures.speedup_vs_disk);
    ]
    (Figures.latency_sweep ~records_per_driver:records ())

let sweep_mirror records =
  table
    [ "E4: mirrored vs unmirrored PM writes (2 drivers, boxcar 8)" ]
    [
      (10, "mirrored", fun p -> string_of_bool p.Figures.mirrored);
      (12, "RT (ms)", fun (p : Figures.mirror_point) -> ms p.Figures.rt_us);
      (14, "elapsed (s)", fun p -> f2 p.Figures.elapsed_s);
    ]
    (Figures.mirror_ablation ~records_per_driver:records ())

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

let scale_adp records =
  table
    [ "E6: audit throughput vs ADPs per node (4 drivers, boxcar 8)" ]
    [
      (6, "adps", fun p -> string_of_int p.Figures.adps);
      (6, "mode", fun p -> mode_to_string p.Figures.a_mode);
      (12, "txn/s", fun p -> f1 p.Figures.tps);
    ]
    (Figures.adp_scaling ~records_per_driver:records ())

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

let scaleout records =
  table
    [ "E8: shared-nothing scale-out (2 drivers/node, boxcar 8)" ]
    [
      (6, "nodes", fun p -> string_of_int p.Figures.s_nodes);
      (6, "mode", fun p -> mode_to_string p.Figures.s_mode);
      (16, "aggregate txn/s", fun p -> f1 p.Figures.aggregate_tps);
      (14, "per-node txn/s", fun p -> f1 p.Figures.per_node_tps);
    ]
    (Figures.scaleout ~records_per_driver:records ())

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

let dtx transfers =
  table
    [ "E10: cross-node transfers under two-phase commit (2 nodes)" ]
    [
      (6, "mode", fun p -> mode_to_string p.Figures.d_mode);
      (14, "local RT(ms)", fun p -> f2 p.Figures.local_rt_ms);
      (14, "2PC RT(ms)", fun p -> f2 p.Figures.dtx_rt_ms);
      (16, "protocol(ms)", fun p -> f2 p.Figures.protocol_overhead_ms);
    ]
    (Figures.dtx_latency ~transfers ())

(* --- single cells: metrics, hot-stock --- *)

let metrics mode drivers boxcar records json =
  let obs = Obs.create () in
  let (_ : Figures.cell) =
    Figures.run_cell ~obs ~mode ~drivers ~inserts_per_txn:boxcar ~records_per_driver:records ()
  in
  let m = Obs.metrics obs in
  emit json (fun () -> Metrics.to_json m) (fun () -> Format.printf "%a@?" Metrics.pp_table m)

let hot_stock mode device drivers boxcar records report =
  let c =
    Figures.run_cell ~config:(device_config device) ~mode ~drivers ~inserts_per_txn:boxcar
      ~records_per_driver:records ()
  in
  if report then Format.printf "%a" Tp.System.report c.Figures.system;
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

(* --- drill: fault schedule + durability audit --- *)

let drill_usage msg =
  prerr_endline ("odsbench drill: " ^ msg);
  exit 2

(* A finished drill as the command shows it: the plan label, the report,
   and the one verdict that both renders and sets the exit code. *)
let judged plan r = (plan, r, Tp.Drill.Oracle.of_report r)

(* Command-line sizing: --drivers, --records and --boxcar reach a
   closed load; a family that owns its load shape keeps it.  The gray
   drill's p99 gate needs a known sample count, a cluster's volume is
   kept small, and the overload drill's open-loop arrival schedule is
   the experiment itself. *)
let sized ~drivers ~records ~boxcar (s : Tp.Drill.spec) =
  let open Tp.Drill in
  let load =
    match s.load with
    | Closed p when not s.baseline ->
        Closed { p with drivers; records_per_driver = records; inserts_per_txn = boxcar }
    | Closed p -> Closed { p with drivers }
    | Distributed d -> Distributed { d with params = { d.params with drivers } }
    | Open _ -> s.load
  in
  { s with load }

(* --no-defenses: the negative control, for a plan whose family arms a
   defense switch; the usage message lists those plans.  Checked before
   the plan's platform is resolved; the returned function turns every
   switch off. *)
let defenses_off ~no_defenses plan =
  if not no_defenses then Fun.id
  else
    let armed =
      List.filter
        (fun (_, p) ->
          match Tp.Drill.spec_of p (`Single Tp.System.Pm_audit) with
          | Ok s -> s.Tp.Drill.config.Tp.System.defenses <> []
          | Error _ -> false)
        Tp.Drill.plans
    in
    if not (List.exists (fun (_, p) -> p = plan) armed) then begin
      let rec either = function
        | [ x; y ] -> x ^ " or " ^ y
        | x :: (_ :: _ as rest) -> x ^ ", " ^ either rest
        | [ x ] -> x
        | [] -> ""
      in
      drill_usage ("--no-defenses only applies to --plan " ^ either (List.map fst armed))
    end;
    fun (s : Tp.Drill.spec) -> { s with config = { s.config with Tp.System.defenses = [] } }

(* --plan-file: replay a schedule from disk.  A full repro document
   (schema "odsbench-repro", as written by the explorer) pins the
   platform, seed and defenses, so the replay is bit-for-bit and is
   judged as the explorer judged it, and --no-defenses and
   --interval-ms are refused; a bare JSON array is just a fault plan,
   run on the faultless platform under --mode with the command-line
   seed, sizing and sampling. *)
let plan_file_runner path scope ~size ~no_defenses ?obs ?sample_interval ?flight () =
  let invalid e = drill_usage (Printf.sprintf "%s: %s" path e) in
  let doc = match Json.parse (read_whole_file path) with Ok d -> d | Error e -> invalid e in
  match doc with
  | Json.List _ -> (
      match (Tp.Faultplan.of_json doc, scope) with
      | Error e, _ -> invalid e
      | Ok _, `Cluster ->
          drill_usage
            "a bare plan array needs --mode disk or pm (wrap cluster or overload \
             schedules in a repro document)"
      | Ok plan, `Single _ ->
          let off = defenses_off ~no_defenses Tp.Drill.No_faults in
          Result.bind (Tp.Drill.spec_of Tp.Drill.No_faults scope) (fun s ->
              Tp.Drill.exec ?obs ?sample_interval ?flight { (off (size s)) with Tp.Drill.plan })
          |> Result.map (judged path))
  | _ -> (
      match Tp.Explorer.repro_of_json doc with
      | Error e -> invalid e
      | Ok _ when no_defenses ->
          invalid "a repro document pins its defenses (set \"defenses\": false in it)"
      | Ok _ when sample_interval <> None ->
          invalid "a repro document replays as the explorer ran it: --interval-ms does not apply"
      | Ok repro ->
          Tp.Explorer.replay ?flight repro
          |> Result.map (fun result ->
                 let (Tp.Explorer.Single r | Clustered r | Overloaded r) = result in
                 (path, r, Tp.Explorer.replay_verdict result)))

let drill scope plan plan_file drivers boxcar records seed interval_ms flight list_plans
    no_defenses json =
  if list_plans then List.iter print_endline (Tp.Drill.plan_names scope)
  else
    let size s = { (sized ~drivers ~records ~boxcar s) with Tp.Drill.seed = Int64.of_int seed } in
    let obs, sample_interval =
      if interval_ms > 0 then (Some (Obs.create ()), Some (Time.ms interval_ms))
      else (None, None)
    in
    let result =
      match plan_file with
      | Some path ->
          plan_file_runner path scope ~size ~no_defenses ?obs ?sample_interval ?flight ()
      | None -> (
          if scope = `Cluster && interval_ms > 0 then
            drill_usage "--interval-ms is not supported in cluster mode";
          (* [standard] names each platform's full drill, its canonical plan. *)
          let plan =
            if plan = Tp.Drill.Standard then
              List.assoc (List.hd (Tp.Drill.plan_names scope)) Tp.Drill.plans
            else plan
          in
          let off = defenses_off ~no_defenses plan in
          match Tp.Drill.spec_of plan scope with
          | Error e -> drill_usage e
          | Ok s ->
              Tp.Drill.exec ?obs ?sample_interval ?flight (off (size s))
              |> Result.map (judged (fst (List.find (fun (_, p) -> p = plan) Tp.Drill.plans))))
    in
    match result with
    | Error e ->
        emit json (fun () -> Json.Obj [ ("error", Json.String e) ]) ignore;
        prerr_endline ("odsbench drill: " ^ e);
        exit 1
    | Ok (plan, r, verdict) ->
        emit json
          (fun () -> Tp.Drill.to_json ~plan verdict r)
          (fun () -> Format.printf "%a@?" (Tp.Drill.pp verdict) r);
        if not (Tp.Drill.Oracle.pass verdict) then begin
          prerr_endline ("odsbench drill: gate failed — " ^ Tp.Drill.Oracle.summary verdict);
          exit 1
        end

let drill_mode =
  mode (singles @ [ ("cluster", `Cluster) ]) (`Single Tp.System.Pm_audit)
    ~doc:
      "Audit backend, or $(b,cluster) for the multi-node partition drill (distributed \
       2PC load, WAN partition, in-doubt resolution, epoch-fence audit)."

let drill_plan =
  opt (Arg.enum Tp.Drill.plans) [ "plan" ] Tp.Drill.Standard
    ~docv:(String.concat "|" (List.map fst Tp.Drill.plans))
    ~doc:
      "Fault schedule: $(b,standard) is the full drill (PM: PMM kill, NPMU power-cycle, \
       rail flap, CRC noise, resync), $(b,kills) keeps only the process-pair kills, \
       $(b,corruption) (PM mode) injects silent media decay and torn stores with the \
       scrubber and verified reads armed and audits storage integrity, $(b,grayfail) (PM \
       mode) degrades the mirror NPMU, a fabric rail and a data spindle fail-slow with the \
       latency health monitor, hedged reads and slow-mirror demotion armed, gating on \
       bounded commit p99 and a completed demotion/re-admission cycle (it owns its load \
       shape: --records and --boxcar are ignored), $(b,overload) (PM mode) offers an \
       open-loop flash crowd (5x the base rate) to impatient clients with admission \
       control, deadlines, retry budgets and breakers armed, gating on spike goodput above \
       a floor and bounded recovery after the spike (it owns its load shape: --records, \
       --boxcar and --drivers are ignored), $(b,none) runs faultless.  In cluster mode, \
       $(b,partition) (the default) severs the inter-node link mid-2PC, kills the \
       coordinator, heals, takes over the PM manager and probes the epoch fence.  \
       $(b,--list-plans) prints the names valid for the selected mode."

let drill_plan_file =
  opt Arg.(some string) [ "plan-file" ] None ~docv:"FILE"
    ~doc:
      "Replay a schedule from $(docv) instead of a named $(b,--plan).  A repro document \
       written by $(b,odsbench explore) pins the platform, seed and defenses, so the drill \
       replays bit-for-bit and is gated by the shared invariant oracle (it refuses \
       $(b,--no-defenses) and $(b,--interval-ms)); a bare JSON array of actions runs on \
       the faultless platform under $(b,--mode) with the command-line seed, sizing and \
       sampling."

let drill_flight =
  opt Arg.(some string) [ "flight" ] None ~docv:"FILE"
    ~doc:
      "Arm the failure flight recorder: keep a bounded ring of the most recent commit-path \
       spans plus every fault-injection mark, and dump it to $(docv) as JSON automatically \
       if the drill's gate fails — the last moments before the failure, already collected."

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
    emit json (fun () -> Tp.Explorer.to_json r) (fun () -> explore_text r);
    if Tp.Explorer.found r then begin
      Printf.eprintf "odsbench explore: %d schedule(s) violated the invariant oracle\n"
        (List.length r.Tp.Explorer.x_violations);
      exit 1
    end
  end

let explore_out_dir =
  opt Arg.(some string) [ "out-dir" ] None ~docv:"DIR"
    ~doc:
      "Write a replayable repro_NNNN.json (for $(b,odsbench drill --plan-file)) and a \
       flight_NNNN.json black-box dump for every violation (created if missing)."

(* --- timeline: continuous telemetry + bottleneck attribution --- *)

let timeline scope device drivers boxcar records interval_ms csv json =
  let runs =
    List.map
      (fun mode ->
        match
          Figures.run_cell_sampled ~config:(device_config device) ~obs:(Obs.create ())
            ~sample_interval:(Time.ms interval_ms) ~mode ~drivers ~inserts_per_txn:boxcar
            ~records_per_driver:records ()
        with
        | c, Some ts -> (c, ts)
        | _, None -> assert false)
      (modes_of scope)
  in
  Option.iter
    (fun path ->
      List.iter
        (fun (c, ts) ->
          let p = path_for scope path c.Figures.mode in
          write_text_file p (Timeseries.to_csv ts);
          if not json then
            Printf.printf "wrote %s (%d samples, %d columns)\n" p
              (Timeseries.sample_count ts)
              (List.length (Timeseries.paths ts)))
        runs)
    csv;
  emit json
    (fun () ->
      Json.Obj
        (List.map
           (fun (c, ts) ->
             let r = c.Figures.result in
             ( mode_to_string c.Figures.mode,
               Json.Obj
                 [
                   ("elapsed_s", Json.Float (Time.to_sec r.Hot_stock.elapsed));
                   ("committed", Json.Int r.Hot_stock.committed);
                   ("throughput_tps", Json.Float r.Hot_stock.throughput_tps);
                   ("timeline", Timeseries.json ts);
                   ("bottlenecks", Timeseries.attribution_json ts);
                 ] ))
           runs))
    (fun () ->
      List.iter
        (fun (c, ts) ->
          let r = c.Figures.result in
          Printf.printf "timeline: mode=%s drivers=%d boxcar=%d records=%d interval=%d ms\n"
            (mode_to_string c.Figures.mode) drivers boxcar records interval_ms;
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
        runs)

(* --- critpath: causal tracing + critical-path attribution --- *)

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

let critpath scope drivers boxcar records nodes txns seed chrome json =
  let seed = Int64.of_int seed in
  let dump path doc =
    match (path, doc) with
    | Some p, Some doc ->
        write_text_file p (doc ^ "\n");
        if not json then Printf.printf "wrote %s\n" p
    | _ -> ()
  in
  match scope with
  | `Cluster ->
      let r =
        Causal.run_cluster ~seed ~nodes ~drivers ~txns_per_driver:txns ~inserts_per_txn:boxcar
          ~chrome:(chrome <> None) ()
      in
      dump chrome r.Causal.cl_chrome;
      emit json (fun () -> critpath_cluster_json r) (fun () -> critpath_cluster_text r)
  | (`Single _ | `Both) as scope ->
      let runs =
        List.map
          (fun mode ->
            let r =
              Causal.run_mode ~seed ~drivers ~inserts_per_txn:boxcar
                ~records_per_driver:records ~chrome:(chrome <> None) ~mode ()
            in
            dump (Option.map (fun p -> path_for scope p mode) chrome) r.Causal.cp_chrome;
            r)
          (modes_of scope)
      in
      emit json
        (fun () ->
          match runs with
          | [ r ] -> critpath_mode_json r
          | _ ->
              Json.Obj
                (List.map (fun r -> (mode_to_string r.Causal.cp_mode, critpath_mode_json r)) runs))
        (fun () ->
          List.iteri
            (fun i r ->
              if i > 0 then print_newline ();
              critpath_mode_text r)
            runs)

let critpath_chrome =
  opt Arg.(some string) [ "chrome" ] None ~docv:"FILE"
    ~doc:
      "Also export the full span collection as a Chrome trace-event document (load it at \
       chrome://tracing or ui.perfetto.dev; flow arrows link caller to callee across \
       tracks).  With --mode both, the mode name is inserted before the extension \
       (out.json -> out-disk.json, out-pm.json)."

(* --- domain workloads --- *)

let telco mode records rate =
  let params =
    { Telco_cdr.default_params with
      Telco_cdr.cdrs_per_switch = records;
      arrival = (if rate > 0.0 then Telco_cdr.Open_poisson rate else Telco_cdr.Closed) }
  in
  let r =
    Figures.simulate ~seed:0x7E1C0L (fun sim -> Telco_cdr.run (build_system mode sim) params)
  in
  Printf.printf "telco CDR ingest: mode=%s switches=%d cdrs/switch=%d\n"
    (mode_to_string mode) params.Telco_cdr.switches records;
  hr ();
  Printf.printf "elapsed        %.3f s\n" (Time.to_sec r.Telco_cdr.elapsed);
  Printf.printf "ingest rate    %.0f CDR/s\n" r.Telco_cdr.cdrs_per_sec;
  Printf.printf "txn p50        %.2f ms\n" (r.Telco_cdr.txn_response.Stat.p50 /. 1e6);
  Printf.printf "txn p99        %.2f ms\n" (r.Telco_cdr.txn_response.Stat.p99 /. 1e6);
  if r.Telco_cdr.failed_txns > 0 then
    Printf.printf "failed txns    %d\n" r.Telco_cdr.failed_txns;
  Printf.printf "fraud lookups  %d (%d hits)\n" r.Telco_cdr.lookups r.Telco_cdr.lookup_hits;
  hr ()

let orders mode trades =
  let params = { Order_match.default_params with Order_match.trades_per_stream = trades } in
  let r =
    Figures.simulate ~seed:0x570CL (fun sim -> Order_match.run (build_system mode sim) params)
  in
  Printf.printf "order matching: mode=%s streams=%d trades/stream=%d hot-share=%.0f%%\n"
    (mode_to_string mode) params.Order_match.streams trades
    (params.Order_match.hot_symbol_share *. 100.);
  hr ();
  Printf.printf "elapsed        %.3f s\n" (Time.to_sec r.Order_match.elapsed);
  Printf.printf "hot symbol     %.1f trades/s (%d trades)\n" r.Order_match.hot_tps
    r.Order_match.hot_trades;
  Printf.printf "cold symbols   %.1f trades/s\n" r.Order_match.cold_tps;
  if r.Order_match.failed > 0 then Printf.printf "failed trades  %d\n" r.Order_match.failed;
  Printf.printf "trade RT p50   %.2f ms\n" (r.Order_match.trade_response.Stat.p50 /. 1e6);
  Printf.printf "lock conflicts %d\n" r.Order_match.lock_waits;
  hr ()

let bank mode txns =
  let params = { Bank.default_params with Bank.txns_per_client = txns } in
  let r = Figures.simulate ~seed:0xBA22L (fun sim -> Bank.run (build_system mode sim) params) in
  Printf.printf "bank (TPC-B-style): mode=%s clients=%d txns/client=%d\n"
    (mode_to_string mode) params.Bank.clients txns;
  hr ();
  Printf.printf "elapsed          %.3f s\n" (Time.to_sec r.Bank.elapsed);
  Printf.printf "throughput       %.1f txn/s\n" r.Bank.tps;
  if r.Bank.failed > 0 then Printf.printf "failed txns      %d\n" r.Bank.failed;
  Printf.printf "response p50     %.2f ms\n" (r.Bank.response.Stat.p50 /. 1e6);
  Printf.printf "response p99     %.2f ms\n" (r.Bank.response.Stat.p99 /. 1e6);
  Printf.printf "branch conflicts %d\n" r.Bank.branch_conflicts;
  hr ()

(* --- perf: the simulator performance observatory --- *)

let perf_text (r : Perf.report) =
  Printf.printf "perf: self-profiled workload matrix (%d records/driver, schema v%d)\n"
    r.Perf.p_records Perf.schema_version;
  hr ();
  Printf.printf "%-15s %10s %11s %14s %11s %9s %10s %12s\n" "workload" "events" "events/s"
    "wall ms/sim s" "minor w/ev" "heap hwm" "ev/commit" "words/commit";
  List.iter
    (fun (w : Perf.run_report) ->
      Printf.printf "%-15s %10d %11.0f %14.2f %11.1f %9d %10.1f %12.0f\n" w.Perf.r_name
        w.Perf.r_events w.Perf.r_events_per_sec w.Perf.r_wall_ms_per_sim_s
        w.Perf.r_minor_words_per_event w.Perf.r_heap_depth_hwm w.Perf.r_events_per_commit
        w.Perf.r_minor_words_per_commit)
    r.Perf.p_runs;
  hr ();
  List.iter
    (fun (w : Perf.run_report) ->
      Printf.printf "%s: committed=%d envelopes=%d packets=%d pm-writes=%d\n" w.Perf.r_name
        w.Perf.r_committed w.Perf.r_envelopes w.Perf.r_packets w.Perf.r_pm_writes;
      let row name slices secs note =
        Printf.printf "  %-22s %8s %10.3f ms %5.1f%% wall %s\n" name slices (secs *. 1e3)
          (Perf.wall_share w secs *. 100.) note
      in
      List.iter
        (fun (l : Prof.layer_row) ->
          row l.Prof.l_name (string_of_int l.Prof.l_events) l.Prof.l_wall
            (Printf.sprintf "%14.0f minor words" l.Prof.l_minor))
        w.Perf.r_roles;
      row "loop" "" w.Perf.r_loop_wall_s "outside any handler: heap pops, dispatch hooks")
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
    (* The baseline is read before the suite runs, so a bad path costs
       nothing. *)
    let baseline =
      Option.map
        (fun path ->
          match Json.parse (read_whole_file path) with
          | Ok b -> b
          | Error e ->
              Printf.eprintf "odsbench perf: baseline %s: %s\n" path e;
              exit 2)
        baseline
    in
    let report = or_die (fun () -> Perf.run ~records ()) in
    let doc = Perf.to_json report in
    emit json (fun () -> doc) (fun () -> perf_text report);
    match baseline with
    | None -> ()
    | Some base ->
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

let perf_baseline =
  opt Arg.(some string) [ "baseline" ] None ~docv:"FILE"
    ~doc:
      "Compare events/sec per workload against a committed BENCH_*.json and exit non-zero \
       if any regresses past $(b,--regress-pct).  Verdicts go to stderr so $(b,--json) \
       output stays clean."

(* --- the experiment table --- *)

(* One row per sub-command: its name, doc line and term, and, for the rows
   [odsbench all] sweeps, what it runs there given all's --records. *)
type experiment = { cmd : unit Cmd.t; in_all : (int -> unit) option }

let row ?all name ~doc term = { cmd = Cmd.v (Cmd.info name ~doc) term; in_all = all }

let experiments =
  [
    row "fig1" ~doc:"Reproduce Figure 1 (response-time speedup vs boxcarring)"
      Term.(const fig1 $ records 32_000 $ json)
      ~all:(fun n -> fig1 n false);
    row "fig2" ~doc:"Reproduce Figure 2 (elapsed time vs boxcarring)"
      Term.(const fig2 $ records 32_000 $ json)
      ~all:(fun n -> fig2 n false);
    row "sweep-latency" ~doc:"E3: sweep extra PM device write latency"
      Term.(const sweep_latency $ records 4_000)
      ~all:(fun n -> sweep_latency (min n 4_000));
    row "sweep-mirror" ~doc:"E4: mirroring-cost ablation"
      Term.(const sweep_mirror $ records 4_000)
      ~all:(fun n -> sweep_mirror (min n 4_000));
    row "mttr" ~doc:"E5: MTTR comparison"
      Term.(const mttr $ records 2_000)
      ~all:(fun n -> mttr (min n 2_000));
    row "scale-adp" ~doc:"E6: multiple ADPs per node"
      Term.(const scale_adp $ records 4_000)
      ~all:(fun n -> scale_adp (min n 4_000));
    row "ckpt-traffic" ~doc:"E9: checkpoint traffic, disk vs PM"
      Term.(const ckpt_traffic $ records 2_000)
      ~all:(fun n -> ckpt_traffic (min n 2_000));
    row "scale-out" ~doc:"E8: aggregate throughput vs node count"
      Term.(const scaleout $ records 2_000)
      ~all:(fun n -> scaleout (min n 1_000));
    row "dtx" ~doc:"E10: distributed-commit latency"
      Term.(const dtx $ count "transfers" ~doc:"Transfers to average over." 20)
      ~all:(fun _ -> dtx 20);
    row "failover" ~doc:"E7: process-pair takeover under load"
      Term.(const failover $ records 400)
      ~all:(fun _ -> failover 400);
    row "perf"
      ~doc:
        "Self-profile the simulator on a fixed seed-deterministic workload matrix: per-layer \
         wall/alloc attribution, event-loop vitals, telemetry-overhead delta, and an \
         optional baseline regression gate"
      Term.(
        const perf $ records 300
        $ flag "list-workloads" ~doc:"Print the fixed workload-matrix names and exit."
        $ perf_baseline
        $ opt percent [ "regress-pct" ] 25.0
            ~docv:"PCT" ~doc:"Allowed events/sec regression vs the baseline, percent."
        $ json)
      ~all:(fun n -> perf (min n 300) false None 25.0 false);
    row "metrics" ~doc:"Run a hot-stock cell and dump the whole metrics registry"
      Term.(const metrics $ backend $ drivers 2 $ boxcar 8 $ records 1_000 $ json);
    row "timeline"
      ~doc:
        "Run a hot-stock cell with the continuous-telemetry sampler on and print the \
         bottleneck-attribution report (CSV/JSON export of the full series)"
      Term.(
        const timeline
        $ mode (singles @ [ ("both", `Both) ]) `Both ~doc:"Audit backend(s) to sample."
        $ device $ drivers 2 $ boxcar 8 $ records 2_000
        $ interval_ms positive 10 ~doc:"Sampling interval in sim milliseconds."
        $ opt Arg.(some string) [ "csv" ] None ~docv:"FILE"
            ~doc:
              "Write the full series as CSV.  With --mode both, the mode name is inserted \
               before the extension (out.csv -> out-disk.csv, out-pm.csv)."
        $ json);
    row "hot-stock" ~doc:"Run one hot-stock configuration and print details"
      Term.(
        const hot_stock $ backend $ device $ drivers 2 $ boxcar 8 $ records 4_000
        $ flag "report" ~doc:"Print the per-subsystem operator report.");
    row "drill"
      ~doc:
        "Run hot-stock load under a fault schedule, crash, recover, and audit that no \
         acknowledged commit was lost"
      Term.(
        const drill $ drill_mode $ drill_plan $ drill_plan_file $ drivers 2 $ boxcar 8
        $ records 400
        $ seed 0xD5177 ~doc:"Simulation seed."
        $ interval_ms non_negative 0
            ~doc:
              "Record a telemetry timeline on this cadence and print the event-aligned \
               availability overlay (0 disables sampling)."
        $ drill_flight
        $ flag "list-plans" ~doc:"Print the $(b,--plan) names valid for the selected mode and exit."
        $ no_defenses
            ~doc:
              "Corruption, grayfail and overload plans only: run the same fault schedule \
               with the defenses disabled (corruption: scrubber and verified reads; \
               grayfail: health monitor, hedged reads, demotion and adaptive backoff; \
               overload: admission control, deadlines, retry budgets and breakers) — the \
               negative control that shows what the faults cost undefended (expect a \
               non-zero exit)."
        $ json);
    row "explore"
      ~doc:
        "Adversarial fault-schedule search: generate seeded composite chaos schedules over \
         the whole fault vocabulary (phase-aware: during load, mid-2PC, during recovery, \
         mid-resync), run each as a drill judged by the shared invariant oracle, and \
         delta-debug any violation to a minimal schedule emitted as a bit-for-bit \
         replayable repro file"
      Term.(
        const explore
        $ count "budget" ~doc:"Schedules to generate and run." 200
        $ seed 0xE5EED
            ~doc:
              "Corpus seed.  The whole corpus is a pure function of the seed: the same seed \
               generates byte-identical schedules."
        $ explore_out_dir
        $ count "max-replays" ~doc:"Drill replays the shrinker may spend per violation." 150
        $ no_defenses
            ~doc:
              "Run the same corpus on the weakened platform (PM integrity and overload \
               defenses off) — the negative control: the explorer must find the known \
               failures and shrink them (expect a non-zero exit)."
        $ flag "corpus-only"
            ~doc:
              "Generate and print the schedule corpus as JSON without running any drill — \
               the determinism witness."
        $ json);
    row "critpath"
      ~doc:
        "Trace every committed transaction's cross-node span DAG and print the \
         critical-path report: per-hop queue/service attribution, ranked, with full DAGs \
         kept for the slowest transactions (each exemplar's hop durations sum exactly to \
         its measured ack latency)"
      Term.(
        const critpath
        $ mode
            (singles @ [ ("both", `Both); ("cluster", `Cluster) ])
            `Both
            ~doc:
              "What to trace: a single-node hot-stock cell on the disk or PM audit backend \
               ($(b,both) runs one of each for comparison), or $(b,cluster), a multi-node \
               2PC load whose prepare/decide hops cross the interconnect."
        $ drivers 2 $ boxcar 8 $ records 500
        $ opt (checked Arg.int "at least 2" (fun n -> n >= 2)) [ "nodes" ] 2 ~docv:"N"
            ~doc:"Cluster mode: node count (at least 2)."
        $ count "txns" ~doc:"Cluster mode: transactions per driver." 60
        $ seed 0xCA75A ~doc:"Simulation seed."
        $ critpath_chrome $ json);
    row "telco" ~doc:"Telco CDR ingest workload (paper section 1)"
      Term.(
        const telco $ backend $ records 1_000
        $ opt non_negative_float [ "rate" ] 0.0 ~docv:"CDR/s"
            ~doc:"Open-loop offered load (0 = closed loop).");
    row "orders" ~doc:"Hot-stock order matching workload (paper section 2)"
      Term.(const orders $ backend $ count "trades" ~doc:"Trades per stream." 500);
    row "bank" ~doc:"TPC-B-style update-heavy banking workload"
      Term.(const bank $ backend $ count "txns" ~doc:"Transactions per client." 250);
  ]

let all records =
  Printf.printf "pmods: full experiment sweep at %d records/driver\n\n" records;
  List.filter_map (fun e -> e.in_all) experiments
  |> List.iteri (fun i run ->
         if i > 0 then print_newline ();
         run records)

let () =
  let all =
    row "all" ~doc:"Run every experiment at reduced scale and print the summary"
      Term.(const all $ records 2_000)
  in
  let doc = "Reproduction experiments for 'Fast and Flexible Persistence' (IPDPS 2004)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "odsbench" ~version:"1.0" ~doc)
          (List.map (fun e -> e.cmd) (all :: experiments))))

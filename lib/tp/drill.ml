open Simkit
open Nsk

type params = {
  drivers : int;
  records_per_driver : int;
  record_bytes : int;
  inserts_per_txn : int;
  settle : Time.span;
  begin_retries : int;
}

let default_params =
  {
    drivers = 2;
    records_per_driver = 400;
    record_bytes = 4096;
    inserts_per_txn = 8;
    settle = Time.ms 500;
    begin_retries = 8;
  }

type availability = {
  adp_takeovers : int;
  dp2_takeovers : int;
  tmf_takeovers : int;
  pmm_takeovers : int;
  outage : Time.span;
  degraded_writes : int;
  pm_write_retries : int;
  packet_retries : int;
}

type integrity = {
  decay_injected : int;
  torn_injected : int;
  scrub_chunks : int;
  scrub_repairs : int;
  scrub_quarantined : int;
  read_repairs : int;
  verify_unrepaired : int;
  unrepaired_divergence : int;
}

(* One report for every drill family: the core the harness fills from
   its outcome, plus the optional sections a family's evidence adds. *)
type report = {
  mode : System.log_mode;
  seed : int64;
  elapsed : Time.span;
  faults : (Time.t * string) list;
  attempted_txns : int;
  committed : int;
  failed_txns : int;
  acked_rows : int;
  recovered_rows : int;
  lost_rows : int;
  in_doubt_after : int;
  orphaned_locks : int;
  fence_checks : int;
  fence_failures : int;
  response : Stat.summary;
  recovery : Recovery.report;
  timeline : Timeseries.t option;
  flight : Flightrec.t option;
  integrity : integrity option;
  availability : availability option;
  gray : gray option;
  overload : overload option;
  cluster : cluster option;
}

and gray = {
  g_defended : bool;
  g_baseline : report;
  g_p99_ratio : float;
  g_p99_limit : float;
  g_demotions : int;
  g_readmissions : int;
  g_mirror_active : bool;
  g_monitor_probes : int;
  g_slow_suspects : int;
  g_hedged_reads : int;
  g_hedge_wins : int;
  g_single_copy_writes : int;
}

and overload = {
  v_defended : bool;
  v_arrivals : int;
  v_rejected : int;
  v_timeouts : int;
  v_admitted : int;
  v_tmf_rejected : int;
  v_tmf_expired : int;
  v_adp_shed : int;
  v_retry_denied : int;
  v_breaker_trips : int;
  v_warmup_goodput : float;
  v_spike_goodput : float;
  v_cooldown_goodput : float;
  v_recovery_time : Time.span option;
  v_spike_floor : float;
  v_recovery_frac : float;
  v_recovery_limit : Time.span;
  v_goodput : (Time.t * int) list;
}

and cluster = {
  c_nodes : int;
  c_in_doubt_before : int;
  c_resolved_commit : int;
  c_resolved_abort : int;
  c_fenced_writes : int;
  c_recoveries : Recovery.report list;
}

let zero_loss r = r.lost_rows = 0

let integrity_clean r =
  zero_loss r
  && match r.integrity with Some i -> i.unrepaired_divergence = 0 | None -> false

(* --- The shared invariant oracle --- *)

(* One check table judges every drill family.  Each row names a check,
   the report section it reads, and its rule; a row whose section the
   report lacks is listed as not applicable, never dropped.  The
   explorer leans on the same verdicts, so a violation it reports is by
   construction the judgement the drills and CI apply. *)
module Oracle = struct
  type check = { ck_name : string; ck_ok : bool; ck_detail : string }

  type not_applicable = { na_name : string; na_reason : string }

  type verdict = { ok : bool; checks : check list; not_applicable : not_applicable list }

  type finding = Judged of bool * string | Not_judged of string

  (* [section] picks a row's evidence out of the report; [rule] judges
     it, given the explorer's outage bound when there is one. *)
  type row =
    | Row : {
        name : string;
        reads : string;
        section : report -> 'e option;
        rule : Time.span option -> 'e -> finding;
      }
        -> row

  let judged ok fmt = Printf.ksprintf (fun detail -> Judged (ok, detail)) fmt

  let defended_only defended rule = if defended then rule () else Not_judged "defenses off"

  (* Built per verdict rather than held as a value, so loading the
     library allocates nothing. *)
  let table () =
    [
      Row { name = "acked_durable"; reads = "core"; section = Option.some; rule = fun _ r ->
          judged (r.lost_rows = 0) "%d of %d acked rows missing after recovery" r.lost_rows
            r.acked_rows };
      Row { name = "in_doubt_drained"; reads = "core"; section = Option.some; rule = fun _ r ->
          judged (r.in_doubt_after = 0) "%d branches still in doubt" r.in_doubt_after };
      Row { name = "no_orphaned_locks"; reads = "core"; section = Option.some; rule = fun _ r ->
          judged (r.orphaned_locks = 0) "%d locks still held after recovery" r.orphaned_locks };
      Row { name = "no_fence_failures"; reads = "core"; section = Option.some; rule = fun _ r ->
          judged (r.fence_failures = 0) "%d of %d fence probes saw a stale write land"
            r.fence_failures r.fence_checks };
      (* Reported, not judged, on gray runs: their re-admission resync
         still leaves divergent chunks behind (ROADMAP item 1).  Gray
         runs are judged here too once it no longer does. *)
      Row { name = "integrity_clean"; reads = "integrity";
        section = (fun r -> Option.map (fun i -> (i, r.gray <> None)) r.integrity);
        rule = fun _ (i, on_gray) ->
          let n = i.unrepaired_divergence in
          if on_gray then
            Not_judged
              (Printf.sprintf "not judged on gray runs: %d mirrored chunks still divergent" n)
          else judged (n = 0) "%d mirrored chunks still divergent" n };
      Row { name = "bounded_unavailability"; reads = "availability";
        section = (fun r -> r.availability); rule = fun max_outage a ->
          match max_outage with
          | None -> Not_judged "no outage bound given"
          | Some limit ->
              judged (a.outage <= limit) "summed outage %s (limit %s)" (Time.to_string a.outage)
                (Time.to_string limit) };
      Row { name = "baseline_durable"; reads = "gray"; section = (fun r -> r.gray);
        rule = fun _ g ->
          judged (g.g_baseline.lost_rows = 0) "%d acked rows missing in the healthy baseline"
            g.g_baseline.lost_rows };
      Row { name = "p99_bounded"; reads = "gray"; section = (fun r -> r.gray);
        rule = fun _ g ->
          judged (g.g_p99_ratio <= g.g_p99_limit) "p99 ratio %.2f (limit %.2f)" g.g_p99_ratio
            g.g_p99_limit };
      Row { name = "mirror_demoted"; reads = "gray"; section = (fun r -> r.gray);
        rule = fun _ g ->
          defended_only g.g_defended (fun () ->
              judged (g.g_demotions >= 1) "%d demotions (expected >= 1)" g.g_demotions) };
      Row { name = "mirror_readmitted"; reads = "gray"; section = (fun r -> r.gray);
        rule = fun _ g ->
          defended_only g.g_defended (fun () ->
              judged (g.g_readmissions >= 1) "%d readmissions (expected >= 1)" g.g_readmissions) };
      Row { name = "mirror_active"; reads = "gray"; section = (fun r -> r.gray);
        rule = fun _ g ->
          defended_only g.g_defended (fun () ->
              judged g.g_mirror_active "mirror %s at drill end"
                (if g.g_mirror_active then "active" else "demoted")) };
      Row { name = "slow_suspects_flagged"; reads = "gray"; section = (fun r -> r.gray);
        rule = fun _ g ->
          defended_only g.g_defended (fun () ->
              judged (g.g_slow_suspects >= 1) "%d slow suspects flagged (expected >= 1)"
                g.g_slow_suspects) };
      Row { name = "warmup_progress"; reads = "overload"; section = (fun r -> r.overload);
        rule = fun _ v ->
          judged (v.v_warmup_goodput > 0.0) "warmup goodput %.1f tps" v.v_warmup_goodput };
      Row { name = "spike_goodput_floor"; reads = "overload"; section = (fun r -> r.overload);
        rule = fun _ v ->
          let floor = v.v_spike_floor *. v.v_warmup_goodput in
          judged (v.v_spike_goodput >= floor) "spike goodput %.1f tps (floor %.1f)"
            v.v_spike_goodput floor };
      Row { name = "goodput_recovered"; reads = "overload"; section = (fun r -> r.overload);
        rule = fun _ v ->
          match v.v_recovery_time with
          | Some t ->
              judged (t <= v.v_recovery_limit) "goodput back in %s (limit %s)" (Time.to_string t)
                (Time.to_string v.v_recovery_limit)
          | None -> judged false "goodput never recovered while load was still arriving" };
      Row { name = "admission_shed"; reads = "overload"; section = (fun r -> r.overload);
        rule = fun _ v ->
          defended_only v.v_defended (fun () ->
              judged (v.v_rejected > 0) "%d arrivals rejected" v.v_rejected) };
    ]

  let of_report ?max_outage r =
    let checks, not_applicable =
      List.partition_map
        (fun (Row row) ->
          let finding =
            match row.section r with
            | Some evidence -> row.rule max_outage evidence
            | None -> Not_judged (Printf.sprintf "no %s section in this report" row.reads)
          in
          match finding with
          | Judged (ck_ok, ck_detail) -> Left { ck_name = row.name; ck_ok; ck_detail }
          | Not_judged na_reason -> Right { na_name = row.name; na_reason })
        (table ())
    in
    { ok = List.for_all (fun c -> c.ck_ok) checks; checks; not_applicable }

  let pass v = v.ok

  let failures v = List.filter (fun c -> not c.ck_ok) v.checks

  let summary v =
    if v.ok then "all invariants hold"
    else
      String.concat "; "
        (List.map (fun c -> Printf.sprintf "%s: %s" c.ck_name c.ck_detail) (failures v))

  let to_json v =
    Json.Obj
      [
        ("pass", Json.Bool v.ok);
        ( "checks",
          Json.List
            (List.map
               (fun c ->
                 Json.Obj
                   [
                     ("name", Json.String c.ck_name);
                     ("ok", Json.Bool c.ck_ok);
                     ("detail", Json.String c.ck_detail);
                   ])
               v.checks) );
        ( "not_applicable",
          Json.List
            (List.map
               (fun n ->
                 Json.Obj [ ("name", Json.String n.na_name); ("reason", Json.String n.na_reason) ])
               v.not_applicable) );
      ]
end

(* --- The one renderer ---

   Every family prints through the same JSON and text layout: the core,
   then each section the report carries.  Only the top-level report
   carries a verdict, the one that sets the gate; a nested run (the gray
   baseline) renders without one. *)

let mode_name r =
  if r.cluster <> None then "cluster"
  else match r.mode with System.Disk_audit -> "disk" | System.Pm_audit -> "pm"

let json_ms t = Json.Float (Time.to_ms t)

let json_p99 (s : Stat.summary) = Json.Float (s.Stat.p99 /. 1e6)

let recovery_json (rr : Recovery.report) =
  Json.Obj
    [
      ("mttr_ms", json_ms rr.Recovery.mttr);
      ( "outcome_source",
        Json.String
          (match rr.Recovery.outcome_source with
          | Recovery.Mat_scan -> "mat_scan"
          | Recovery.Pm_txn_table -> "pm_txn_table") );
      ("committed_txns", Json.Int rr.Recovery.committed_txns);
      ("in_doubt_txns", Json.Int rr.Recovery.in_doubt_txns);
      ("resolved_commit", Json.Int rr.Recovery.resolved_commit);
      ("resolved_abort", Json.Int rr.Recovery.resolved_abort);
      ("rows_rebuilt", Json.Int rr.Recovery.rows_rebuilt);
    ]

let rec json_fields ~plan verdict r =
  let obj f = function Some x -> Json.Obj (f x) | None -> Json.Null in
  let section f = function Some x -> f x | None -> [] in
  (* gray and overload reports have always repeated the verdict here *)
  let pass = match verdict with Some v -> [ ("pass", Json.Bool v.Oracle.ok) ] | None -> [] in
  [
    ("mode", Json.String (mode_name r));
    ("plan", Json.String plan);
    ("seed", Json.String (Printf.sprintf "0x%Lx" r.seed));
    ("elapsed_s", Json.Float (Time.to_sec r.elapsed));
    ( "faults",
      Json.List
        (List.map
           (fun (t, desc) -> Json.Obj [ ("at_ms", json_ms t); ("fault", Json.String desc) ])
           r.faults) );
    ("attempted_txns", Json.Int r.attempted_txns);
    ("committed", Json.Int r.committed);
    ("failed_txns", Json.Int r.failed_txns);
    ("acked_rows", Json.Int r.acked_rows);
    ("recovered_rows", Json.Int r.recovered_rows);
    ("lost_rows", Json.Int r.lost_rows);
    ("in_doubt_after", Json.Int r.in_doubt_after);
    ("orphaned_locks", Json.Int r.orphaned_locks);
    ("fence_checks", Json.Int r.fence_checks);
    ("fence_failures", Json.Int r.fence_failures);
    ("zero_loss", Json.Bool (zero_loss r));
  ]
  @ section (fun v -> [ ("oracle", Oracle.to_json v) ]) verdict
  @ [
      ( "integrity",
        obj
          (fun i ->
            [
              ("decay_injected", Json.Int i.decay_injected);
              ("torn_injected", Json.Int i.torn_injected);
              ("scrub_chunks", Json.Int i.scrub_chunks);
              ("scrub_repairs", Json.Int i.scrub_repairs);
              ("scrub_quarantined", Json.Int i.scrub_quarantined);
              ("read_repairs", Json.Int i.read_repairs);
              ("verify_unrepaired", Json.Int i.verify_unrepaired);
              ("unrepaired_divergence", Json.Int i.unrepaired_divergence);
              ("clean", Json.Bool (integrity_clean r));
            ])
          r.integrity );
      ( "response_ms",
        Json.Obj
          [
            ("mean", Json.Float (r.response.Stat.mean /. 1e6));
            ("p50", Json.Float (r.response.Stat.p50 /. 1e6));
            ("p99", json_p99 r.response);
          ] );
      ( "availability",
        obj
          (fun a ->
            [
              ( "takeovers",
                Json.Obj
                  [
                    ("adp", Json.Int a.adp_takeovers);
                    ("dp2", Json.Int a.dp2_takeovers);
                    ("tmf", Json.Int a.tmf_takeovers);
                    ("pmm", Json.Int a.pmm_takeovers);
                  ] );
              ("outage_ms", json_ms a.outage);
              ("degraded_writes", Json.Int a.degraded_writes);
              ("pm_write_retries", Json.Int a.pm_write_retries);
              ("packet_retries", Json.Int a.packet_retries);
            ])
          r.availability );
      ("recovery", recovery_json r.recovery);
      ( "timeline",
        obj
          (fun ts ->
            [
              ("samples", Json.Int (Timeseries.sample_count ts));
              ("evicted", Json.Int (Timeseries.evicted ts));
              ("series", Timeseries.json ts);
              ("bottlenecks", Timeseries.attribution_json ts);
            ])
          r.timeline );
    ]
  @ section
      (fun g ->
        [
          ("defended", Json.Bool g.g_defended);
          ( "latency_ms",
            Json.Obj
              [
                ("healthy_p99", json_p99 g.g_baseline.response);
                ("degraded_p99", json_p99 r.response);
                ("p99_ratio", Json.Float g.g_p99_ratio);
                ("p99_limit", Json.Float g.g_p99_limit);
              ] );
          ( "mitigation",
            Json.Obj
              [
                ("demotions", Json.Int g.g_demotions);
                ("readmissions", Json.Int g.g_readmissions);
                ("mirror_active", Json.Bool g.g_mirror_active);
                ("monitor_probes", Json.Int g.g_monitor_probes);
                ("slow_suspects", Json.Int g.g_slow_suspects);
                ("hedged_reads", Json.Int g.g_hedged_reads);
                ("hedge_wins", Json.Int g.g_hedge_wins);
                ("single_copy_writes", Json.Int g.g_single_copy_writes);
              ] );
        ]
        @ pass
        @ [
            ("healthy", Json.Obj (json_fields ~plan None g.g_baseline));
            (* the degraded run is this report; kept under its old key *)
            ("degraded", Json.Obj (json_fields ~plan None { r with gray = None }));
          ])
      r.gray
  @ section
      (fun v ->
        [
          ("defended", Json.Bool v.v_defended);
          ("arrivals", Json.Int v.v_arrivals);
          ("rejected", Json.Int v.v_rejected);
          ("failed", Json.Int r.failed_txns);
          ("client_timeouts", Json.Int v.v_timeouts);
          ( "admission",
            Json.Obj
              [
                ("admitted", Json.Int v.v_admitted);
                ("rejected", Json.Int v.v_tmf_rejected);
                ("expired", Json.Int v.v_tmf_expired);
                ("adp_shed_expired", Json.Int v.v_adp_shed);
              ] );
          ( "containment",
            Json.Obj
              [
                ("retry_denied", Json.Int v.v_retry_denied);
                ("breaker_trips", Json.Int v.v_breaker_trips);
              ] );
          ( "goodput_tps",
            Json.Obj
              [
                ("warmup", Json.Float v.v_warmup_goodput);
                ("spike", Json.Float v.v_spike_goodput);
                ("cooldown", Json.Float v.v_cooldown_goodput);
                ("spike_floor", Json.Float v.v_spike_floor);
                ("recovery_frac", Json.Float v.v_recovery_frac);
              ] );
          ("recovery_ms", match v.v_recovery_time with Some t -> json_ms t | None -> Json.Null);
          ("recovery_limit_ms", json_ms v.v_recovery_limit);
          ( "goodput_windows",
            Json.List
              (List.map
                 (fun (t, d) -> Json.Obj [ ("t_ms", json_ms t); ("committed", Json.Int d) ])
                 v.v_goodput) );
        ]
        @ pass)
      r.overload
  @ section
      (fun c ->
        [
          ("nodes", Json.Int c.c_nodes);
          ("in_doubt_before", Json.Int c.c_in_doubt_before);
          ("resolved_commit", Json.Int c.c_resolved_commit);
          ("resolved_abort", Json.Int c.c_resolved_abort);
          ("fenced_writes", Json.Int c.c_fenced_writes);
          ("recoveries", Json.List (List.map recovery_json c.c_recoveries));
        ])
      r.cluster

let to_json ~plan verdict r = Json.Obj (json_fields ~plan (Some verdict) r)

let defenses_label defended = if defended then "on" else "OFF (negative control)"

(* Event-aligned availability overlay: the sampled commit/failure gauges
   interleaved, in time order, with the fault injections as marks. *)
let pp_overlay ppf ts =
  let p fmt = Format.fprintf ppf fmt in
  p "availability overlay (sampled every %s, %d samples, %d evicted):\n"
    (Time.to_string (Timeseries.interval ts))
    (Timeseries.sample_count ts) (Timeseries.evicted ts);
  p "%12s %10s %8s\n" "t(ms)" "committed" "failed";
  let value s key =
    match List.assoc_opt key s.Timeseries.s_values with Some v -> v | None -> 0.0
  in
  let rec go samples marks =
    match (samples, marks) with
    | [], [] -> ()
    | _, (mt, label) :: ms
      when (match samples with [] -> true | s :: _ -> mt <= s.Timeseries.s_time) ->
        p "%12.1f  >> fault: %s\n" (Time.to_ms mt) label;
        go samples ms
    | s :: ss, _ ->
        p "%12.1f %10.0f %8.0f\n"
          (Time.to_ms s.Timeseries.s_time)
          (value s "drill.committed") (value s "drill.failed");
        go ss marks
    | [], _ :: _ -> ()
  in
  go (Timeseries.samples ts) (Timeseries.marks ts)

let pp verdict ppf r =
  let p fmt = Format.fprintf ppf fmt in
  let hr () = p "%s\n" (String.make 72 '-') in
  p "drill: mode=%s seed=0x%Lx — %s\n" (mode_name r) r.seed
    (match (r.gray, r.overload, r.cluster) with
    | Some _, _, _ -> "fail-slow hardware under hot-stock load"
    | _, Some _, _ -> "open-loop flash crowd against impatient clients"
    | _, _, Some _ -> "distributed hot-stock load under a WAN partition"
    | None, None, None -> "hot-stock load under a fault schedule");
  hr ();
  List.iter (fun (t, desc) -> p "%10.1f ms  %s\n" (Time.to_ms t) desc) r.faults;
  hr ();
  p "load elapsed       %.3f s\n" (Time.to_sec r.elapsed);
  p "transactions       %d attempted, %d acked, %d failed\n" r.attempted_txns r.committed
    r.failed_txns;
  p "response mean/p99  %.2f / %.2f ms\n" (r.response.Stat.mean /. 1e6)
    (r.response.Stat.p99 /. 1e6);
  Option.iter
    (fun a ->
      p "takeovers          adp=%d dp2=%d tmf=%d pmm=%d (outage %s)\n" a.adp_takeovers
        a.dp2_takeovers a.tmf_takeovers a.pmm_takeovers (Time.to_string a.outage);
      p "degraded PM writes %d (retried %d, packet retries %d)\n" a.degraded_writes
        a.pm_write_retries a.packet_retries)
    r.availability;
  let recovery label (rr : Recovery.report) =
    p "%-19sMTTR %s, %d committed txns, %d rows\n" label
      (Time.to_string rr.Recovery.mttr)
      rr.Recovery.committed_txns rr.Recovery.rows_rebuilt
  in
  (match r.cluster with
  | Some c -> List.iteri (fun i -> recovery (Printf.sprintf "recovery node %d" i)) c.c_recoveries
  | None -> recovery "recovery" r.recovery);
  p "durability         %d acked rows, %d recovered, %d LOST — %s\n" r.acked_rows
    r.recovered_rows r.lost_rows
    (if zero_loss r then "zero loss" else "DATA LOSS");
  Option.iter
    (fun i ->
      p "corruption         %d decay, %d torn injected\n" i.decay_injected i.torn_injected;
      p "scrubber           %d chunks scanned, %d repaired, %d quarantined\n" i.scrub_chunks
        i.scrub_repairs i.scrub_quarantined;
      p "verified reads     %d repaired, %d unrepaired\n" i.read_repairs i.verify_unrepaired;
      p "integrity audit    %d divergent chunks left — %s\n" i.unrepaired_divergence
        (if i.unrepaired_divergence = 0 then "clean" else "SILENT CORRUPTION"))
    r.integrity;
  Option.iter
    (fun g ->
      let b = g.g_baseline in
      p "defenses           %s\n" (defenses_label g.g_defended);
      p "healthy baseline   %d commits, mean/p99 %.2f / %.2f ms\n" b.committed
        (b.response.Stat.mean /. 1e6) (b.response.Stat.p99 /. 1e6);
      p "p99 ratio          %.2fx (gate: <= %.1fx) — %s\n" g.g_p99_ratio g.g_p99_limit
        (if g.g_p99_ratio <= g.g_p99_limit then "bounded" else "LATENCY COLLAPSE");
      p "mirror health      %d probes, %d demotions, %d readmissions, mirror %s\n"
        g.g_monitor_probes g.g_demotions g.g_readmissions
        (if g.g_mirror_active then "active" else "DEMOTED");
      p "client defenses    %d slow suspects, %d hedged reads (%d won), %d single-copy writes\n"
        g.g_slow_suspects g.g_hedged_reads g.g_hedge_wins g.g_single_copy_writes)
    r.gray;
  Option.iter
    (fun v ->
      p "defenses           %s\n" (defenses_label v.v_defended);
      p "offered load       %d arrivals, %d rejected (backpressure), %d call timeouts\n"
        v.v_arrivals v.v_rejected v.v_timeouts;
      p "admission          %d admitted, %d rejected at begin, %d expired at commit, %d flush \
         waits shed\n"
        v.v_admitted v.v_tmf_rejected v.v_tmf_expired v.v_adp_shed;
      p "containment        %d resends denied by budget, %d breaker trips\n" v.v_retry_denied
        v.v_breaker_trips;
      p "goodput            warmup %.1f tps, spike %.1f tps (floor %.1f), cooldown %.1f tps\n"
        v.v_warmup_goodput v.v_spike_goodput
        (v.v_spike_floor *. v.v_warmup_goodput)
        v.v_cooldown_goodput;
      p "goodput recovery   %s (limit %s after spike end)\n"
        (match v.v_recovery_time with
        | Some t -> Time.to_string t
        | None -> "NEVER — stayed collapsed under base load (metastable)")
        (Time.to_string v.v_recovery_limit);
      p "goodput over time (%d windows):\n%12s %10s\n" (List.length v.v_goodput) "t(ms)"
        "committed";
      List.iter (fun (t, d) -> p "%12.1f %10d\n" (Time.to_ms t) d) v.v_goodput)
    r.overload;
  Option.iter
    (fun c ->
      p "nodes              %d\n" c.c_nodes;
      p "in-doubt window    %d entering recovery, %d resolved commit, %d resolved abort, %d left\n"
        c.c_in_doubt_before c.c_resolved_commit c.c_resolved_abort r.in_doubt_after;
      p "epoch fence        %d checks, %d failures, %d stale writes rejected\n" r.fence_checks
        r.fence_failures c.c_fenced_writes;
      p "orphaned locks     %d\n" r.orphaned_locks)
    r.cluster;
  if not (Oracle.pass verdict) then p "verdict            FAIL — %s\n" (Oracle.summary verdict);
  hr ();
  Option.iter
    (fun ts ->
      pp_overlay ppf ts;
      hr ();
      p "bottleneck attribution (load phase):\n%a" Timeseries.pp_attribution ts;
      hr ())
    r.timeline

(* Offsets tuned so every fault lands while default-params load is still
   running (PM-mode load is an order of magnitude shorter than disk's,
   hence the compressed schedule); the resync runs last, after the
   cycled mirror is powered again. *)
let standard_plan mode =
  match mode with
  | System.Pm_audit ->
      Faultplan.
        [
          at (Time.ms 20) (Kill_primary Pmm);
          at (Time.ms 40)
            (Npmu_power_cycle { device = 1; off_for = Time.ms 60 });
          at (Time.ms 60) (Rail_down 0);
          at (Time.ms 90) (Rail_up 0);
          at (Time.ms 110) (Crc_noise_burst { rate = 0.02; duration = Time.ms 40 });
          at (Time.ms 200) Pmm_resync;
        ]
  | System.Disk_audit ->
      Faultplan.
        [
          at (Time.ms 200) (Kill_primary (Adp 1));
          at (Time.ms 600) (Kill_primary (Dp2 2));
          at (Time.sec 1) (Rail_down 1);
          at (Time.ms 1_300) (Rail_up 1);
          at (Time.ms 1_500) (Kill_primary Tmf);
          at (Time.sec 2) (Crc_noise_burst { rate = 0.02; duration = Time.ms 300 });
        ]

(* Cluster drills push fewer, smaller rows: every insert crosses the
   interconnect and every commit runs two-phase, so default-params volume
   would take minutes of simulated time without exercising anything
   new. *)
let cluster_params =
  {
    drivers = 2;
    records_per_driver = 60;
    record_bytes = 1024;
    inserts_per_txn = 4;
    settle = Time.ms 500;
    begin_retries = 8;
  }

(* Partition mid-2PC, decapitate the coordinator's monitor while the
   link is down, heal, then take over the PM manager (bumping the volume
   epoch) and verify the fence is armed.

   The short pulses before the long outage each sample a different phase
   of the transaction cycle; the ones that land while a prepare or a
   decide is crossing the interconnect lose the reply leg and strand a
   prepared branch — the in-doubt window {!Cluster.recover}'s resolver
   must drain. *)
let partition_plan =
  Faultplan.
    [
      at (Time.ms 8) Wan_partition;
      at (Time.ms 11) Wan_heal;
      at (Time.ms 16) Wan_partition;
      at (Time.ms 19) Wan_heal;
      at (Time.ms 25) Wan_partition;
      at (Time.ms 28) Wan_heal;
      at (Time.ms 34) Wan_partition;
      at (Time.ms 40) (Kill_primary Tmf);
      at (Time.ms 90) Wan_heal;
      at (Time.ms 110) (Kill_primary Pmm);
      at (Time.ms 130) Fence_check;
    ]

(* --- Corruption drill: silent decay and torn stores --- *)

(* Small regions keep the scrubber's pass time in the low milliseconds,
   so dozens of passes fit into the settle window; a tight inter-chunk
   interval does the same.  Verified reads are on because the drill's
   point is proving the read path catches what the scrubber has not
   gotten to yet. *)
let corruption_region_bytes = 2 * 1024 * 1024

let corruption_config =
  {
    System.pm_config with
    System.pm_region_bytes = corruption_region_bytes;
    defenses = [ System.Integrity ];
  }

(* Trail region [i]'s device offset under [corruption_config]: the PMM
   allocates first-fit behind its metadata reserve, and the system
   creates the 1 MiB transaction-state table first, then the trail
   regions in ADP order (MAT last). *)
let corruption_trail_base i =
  Pm.Pmm.meta_reserve + (1 lsl 20) + (i * corruption_region_bytes)

(* The early decays and tears land mid-load inside each trail's first
   chunk — a chunk the ring header keeps active, so the scrubber can
   never re-arbitrate it against the checksum table and must quarantine
   it; recovery then leans on verified reads and the mirror-salvage
   replay for those rows.  The late decays land after the load has
   drained, in settled chunks the scrubber has re-scanned clean: those
   it detects, arbitrates, and repairs on the next pass — the counter
   the acceptance gate checks.  Offsets must sit inside each trail's
   {e written} extent (default-params load puts ~800 KiB in every
   trail) or the faults degrade to corrupting padding nothing ever
   reads back. *)
let corruption_plan =
  let base = corruption_trail_base in
  Faultplan.
    [
      at (Time.ms 12) (Torn_write { device = 1 });
      at (Time.ms 22) (Torn_write { device = 0 });
      (* The primary-side decay spans a whole frame (~4.1 KiB): audit
         frames CRC their body but carry the row payload as padding, so
         a narrow flip could land between bodies and corrupt only bytes
         the row-presence audit cannot see.  A frame-wide span
         guarantees the negative control visibly truncates the
         replay. *)
      at (Time.ms 30) (Media_decay { device = 1; off = base 0 + 8_192; bits = 48 });
      at (Time.ms 40) (Media_decay { device = 0; off = base 1 + 8_192; bits = 8 * 4_200 });
      at (Time.ms 950) (Media_decay { device = 1; off = base 2 + (300 * 1024); bits = 16 });
      at (Time.ms 960) (Media_decay { device = 0; off = base 3 + (300 * 1024); bits = 16 });
    ]

(* Decay injected at the crash itself, after the scrubber dies: only a
   verified read during recovery can catch these.  Offsets sit in the
   middle of each trail's written area — chunks the scrubber last saw
   clean, so the read path can arbitrate them against the table. *)
let corruption_crash_decay =
  [
    (0, corruption_trail_base 0 + (300 * 1024), 8 * 4_200);
    (1, corruption_trail_base 1 + (300 * 1024), 24);
  ]

(* --- Gray-failure drill: fail-slow hardware, defended --- *)

(* Small regions keep the re-admission resync in the low hundreds of
   milliseconds, so a demoted mirror provably comes back inside the
   drill's settle window.  Its defenses: the mirror-health monitor,
   client health tracking, hedged reads and adaptive backoff. *)
let gray_region_bytes = 2 * 1024 * 1024

let gray_config =
  {
    System.pm_config with
    System.pm_region_bytes = gray_region_bytes;
    defenses = [ System.Fail_slow ];
  }

(* The gray gate: the degraded run's p99 commit latency may be at most
   this multiple of the healthy baseline's. *)
let gray_p99_limit = 8.0

(* Enough commits that the detection window's handful of slow commits
   sits below the p99 index: 2 drivers x 300 txns = 600 samples, so p99
   tolerates ~6 outliers.  The defended run eats 2-4 slow commits before
   demotion; the undefended run eats every commit from the degradation
   to the restore.  Rows are small so the whole load (4800 rows) fits
   the 2 MiB trail rings without wrapping — a wrapped ring sheds old
   records and the durability audit would blame the gray defenses for
   rows the ring geometry lost. *)
let gray_params =
  { default_params with records_per_driver = 2_400; record_bytes = 1_024 }

(* Stage the degradations while the load runs hot: the mirror NPMU goes
   fail-slow first (the mode mirrored writes are most exposed to), then
   a congested rail and a dragging data spindle pile on, then everything
   is restored so the drill can also prove re-admission.

   The mirror factor must dwarf the commit interval: group commit
   pipelines trail flushes behind the CPU-bound insert path, so a
   mirror that is "only" ~10x slower hides in that shadow.  At 200x a
   mirrored append takes ~100 ms per transaction — nothing can hide it — and the 780 ms
   exposure window leaves an undefended run with far more than 1% of
   its commits stalled, so the p99 gate provably separates the two. *)
let gray_plan =
  Faultplan.
    [
      at (Time.ms 20)
        (Slow_device { device = 1; factor = 200.0; jitter = Time.us 200 });
      at (Time.ms 200) (Slow_rail { rail = 0; factor = 2.0 });
      at (Time.ms 300) (Slow_disk { volume = 0; factor = 3.0; jitter = Time.us 100 });
      at (Time.ms 800) Restore_speed;
    ]

(* --- Overload drill: flash crowd, open loop, metastability gate --- *)

type overload_params = {
  ov_record_bytes : int;
  ov_inserts_per_txn : int;
  ov_base_rate : float;
  ov_spike : float;
  ov_warmup : Time.span;
  ov_spike_for : Time.span;
  ov_cooldown : Time.span;
  ov_window : Time.span;
  ov_settle : Time.span;
  ov_client_retries : int;
  ov_spike_floor : float;
  ov_recovery_frac : float;
  ov_recovery_limit : Time.span;
}

(* Base rate ~0.6x of the platform's measured open-loop capacity, spike
   5x base.  Small transactions keep per-arrival client CPU low enough
   that the offered spike really exceeds service capacity at the servers
   rather than serializing at the session pool. *)
let overload_params =
  {
    ov_record_bytes = 1_024;
    ov_inserts_per_txn = 4;
    ov_base_rate = 400.0;
    ov_spike = 5.0;
    ov_warmup = Time.ms 500;
    ov_spike_for = Time.ms 400;
    ov_cooldown = Time.ms 1_500;
    ov_window = Time.ms 100;
    ov_settle = Time.ms 300;
    ov_client_retries = 2;
    ov_spike_floor = 0.5;
    ov_recovery_frac = 0.7;
    ov_recovery_limit = Time.ms 600;
  }

(* The defended platform: admission control at the monitor, deadlines
   minted at arrival, budgeted retries and breakers at every client.
   [client_op_timeout] is the environment, not a defense — clients are
   impatient either way; that impatience is what makes overload
   metastable when nothing contains it. *)
let overload_config =
  {
    System.pm_config with
    System.client_op_timeout = Time.ms 300;
    defenses = [ System.Overload ];
  }

let overload_plan p =
  Faultplan.
    [ at p.ov_warmup (Flash_crowd { spike = p.ov_spike; spike_for = p.ov_spike_for }) ]

let overload_schedule p =
  Arrival.flash_crowd ~base:p.ov_base_rate ~spike:(p.ov_base_rate *. p.ov_spike)
    ~cool:p.ov_base_rate ~warmup:p.ov_warmup ~spike_for:p.ov_spike_for
    ~cooldown:p.ov_cooldown ()

(* --- Drill specs: every family as one value --- *)

type plan = Standard | Kills | Corruption | Grayfail | Overload | Partition | No_faults

(* In [--list-plans] order: each platform's canonical plan first. *)
let plans =
  [
    ("standard", Standard);
    ("kills", Kills);
    ("corruption", Corruption);
    ("grayfail", Grayfail);
    ("overload", Overload);
    ("partition", Partition);
    ("none", No_faults);
  ]

type load =
  | Closed of params
  | Open of overload_params
  | Distributed of { nodes : int; params : params }

type spec = {
  load : load;
  config : System.config;
  plan : Faultplan.t;
  recovery_plan : Faultplan.t;
  horizon : Time.span option;
  crash_decay : (int * int * int) list;
  baseline : bool;
  seed : int64;
}

let names_where keep = List.filter_map (fun (n, p) -> if keep p then Some n else None) plans

let runs_on_cluster = function Partition | No_faults -> true | _ -> false

(* The one table of per-family constants.  A match rather than a
   top-level list, so loading the library allocates no spec. *)
let spec_of plan scope =
  let name = fst (List.find (fun (_, p) -> p = plan) plans) in
  let spec ?(load = Closed default_params) ?(crash_decay = []) ?(baseline = false)
      ?(seed = 0xD5177L) config plan =
    Ok
      { load; config; plan; recovery_plan = []; horizon = None; crash_decay; baseline; seed }
  in
  match (scope, plan) with
  | `Cluster, _ when runs_on_cluster plan ->
      spec ~load:(Distributed { nodes = 2; params = cluster_params }) ~seed:0xC1D5L
        System.pm_config
        (if plan = Partition then partition_plan else [])
  | `Cluster, _ ->
      Error
        (Printf.sprintf "plan '%s' does not run in cluster mode (%s)" name
           (String.concat "|" (names_where runs_on_cluster)))
  | `Single _, Partition -> Error "plan 'partition' requires --mode cluster"
  | `Single System.Disk_audit, (Corruption | Grayfail | Overload) ->
      Error (Printf.sprintf "plan '%s' requires --mode pm" name)
  | `Single mode, (Standard | Kills | No_faults) ->
      let kill ev = match ev.Faultplan.action with Faultplan.Kill_primary _ -> true | _ -> false in
      spec
        (if mode = System.Pm_audit then System.pm_config else System.default_config)
        (match plan with
        | No_faults -> []
        | Kills -> List.filter kill (standard_plan mode) (* process-pair decapitations only *)
        | _ -> standard_plan mode)
  | `Single _, Corruption ->
      spec ~crash_decay:corruption_crash_decay corruption_config corruption_plan
  | `Single _, Grayfail ->
      spec ~load:(Closed gray_params) ~baseline:true ~seed:0x66A7L gray_config gray_plan
  | `Single _, Overload ->
      spec ~load:(Open overload_params) overload_config (overload_plan overload_params)

let plan_names scope = names_where (fun p -> Result.is_ok (spec_of p scope))

(* --- The drill harness ---

   Every drill is the same experiment: build a platform, put load on it
   while a fault plan fires, settle, crash (every DP2 loses its
   in-memory image), recover while an optional second plan races the
   recovery, and audit that every acknowledged row survived.  A family
   supplies only its platform, its load and its evidence; the harness
   owns the rest, and [gated] is the one place a verdict decides whether
   the flight recorder dumps. *)

(* The black-box dump a failed drill leaves behind: recent spans plus
   the fault-injection marks, one JSON document. *)
let dump_flight path fr =
  let oc = open_out path in
  output_string oc (Json.to_string (Flightrec.to_json fr));
  output_char oc '\n';
  close_out oc

(* Arm a flight recorder: reuse the caller's observability context (or
   grow a private one), make sure spans flow, and stream every finished
   span into the recorder's ring. *)
let arm_flight flight obs =
  match flight with
  | None -> (None, obs)
  | Some _ ->
      let o = match obs with Some o -> o | None -> Obs.create () in
      let fr = Flightrec.create () in
      Span.enable (Obs.spans o);
      Flightrec.attach fr (Obs.spans o);
      (Some fr, Some o)

let mark_faults recorder faults =
  match recorder with
  | Some fr -> List.iter (fun (time, label) -> Flightrec.mark fr ~time label) faults
  | None -> ()

(* A single system or a cluster, as the harness drives it; ['k] is an
   acknowledged row's key. *)
type ('p, 'k) platform = {
  build : Sim.t -> Obs.t option -> 'p;
  scope : 'p -> Faultplan.scope;  (* what its fault plans may target *)
  systems : 'p -> System.t list;
  recover : 'p -> (Recovery.report list, string) result;
  quiesce : 'p -> unit;  (* post-recovery work the audit must wait out *)
  present : 'p -> 'k -> bool;
}

let row_present system ~file ~key =
  let d = (System.dp2s system).((System.routing system).Txclient.dp2_of ~file ~key) in
  Dp2.lookup_direct d ~file ~key <> None

let sum_over systems f = List.fold_left (fun acc s -> acc + f s) 0 systems

let in_doubt system = List.length (Tmf.in_doubt (System.tmf system))

let node_platform scope cfg =
  {
    build = (fun sim obs -> System.build ?obs sim cfg);
    scope;
    systems = (fun s -> [ s ]);
    recover = (fun s -> Result.map (fun r -> [ r ]) (Recovery.run s));
    quiesce = ignore;
    present = (fun s (file, key) -> row_present s ~file ~key);
  }

(* A fat interconnect latency widens the in-flight window of every
   cross-node call, so a partition pulse reliably catches prepares and
   decides mid-air.  Node-local faults (monitor and manager kills, the
   fence probe) target node 0 — the coordinator side of every even
   driver's transactions.  Lock release rides the monitors' finish
   queues, which drain behind the recovery replies, so the audit waits
   out one more settle. *)
let cluster_platform ~nodes ~settle cfg =
  {
    build = (fun sim obs -> Cluster.build sim ~nodes ~wan_latency:(Time.us 500) ?obs cfg);
    scope = (fun c -> Faultplan.Cluster_node (c, 0));
    systems = (fun c -> List.init nodes (Cluster.system c));
    recover = Cluster.recover;
    quiesce = (fun _ -> Sim.sleep settle);
    present = (fun c (node, file, key) -> row_present (Cluster.system c node) ~file ~key);
  }

(* What a load reports.  Only acknowledged commits put keys in
   [t_acked]: that set is the durability contract the audit checks. *)
type 'k tally = {
  mutable t_acked : 'k list;
  mutable t_committed : int;
  mutable t_failed : int;
  mutable t_rejected : int;
  t_response : Stat.t;
}

let ack tally keys response_time =
  tally.t_committed <- tally.t_committed + 1;
  tally.t_acked <- List.rev_append keys tally.t_acked;
  Stat.add_span tally.t_response response_time

let fail tally () = tally.t_failed <- tally.t_failed + 1

(* What the harness hands a family's evidence after the loss audit,
   next to the report core it has already filled from the same run. *)
type 'k outcome = {
  o_started : Time.t;
  o_tally : 'k tally;
  o_recoveries : Recovery.report list;  (* one per system, in order *)
}

type ('p, 'k) family = {
  platform : ('p, 'k) platform;
  gauges : (string * ('k tally -> int)) list;
      (* sampled between drill.committed and drill.failed *)
  load : 'p -> 'k tally -> unit -> unit;
      (* set up before the plan launches; the thunk runs the load to
         completion *)
  settle_for : Time.span;
  evidence : 'p -> (Time.t * string) list * ('k outcome -> report -> report);
      (* called at the crash, before the DP2 images go: the injections
         made at the crash itself, and what adds the family's sections
         to the report core *)
}

(* The scrubber and mirror-health monitor (started by [System.build]
   when the config asks for them) sleep forever between passes; every
   exit from a drill must stop them or the simulation never quiesces. *)
let stop_daemons system =
  match System.pmm system with
  | Some p ->
      Pm.Pmm.stop_scrubber p;
      Pm.Pmm.stop_monitor p
  | None -> ()

(* One run of a family: the outcome, the armed recorder, and the
   simulated clock at the end — the instant the gate judges it. *)
let harness fam ~seed ?prof ?obs ?flight ?sample_interval ?inspect ?horizon ~recovery_plan
    plan =
  (match (sample_interval, obs) with
  | Some _, None -> invalid_arg "Drill: sample_interval requires obs"
  | _ -> ());
  let recorder, obs = arm_flight flight obs in
  let pf = fam.platform in
  let out, judged_at =
    Prof.simulate ?prof ~seed ~name:"drill-main" (fun sim ->
        let p = pf.build sim obs in
        let scope = pf.scope p in
        let stop () = List.iter stop_daemons (pf.systems p) in
        let validated =
          match Faultplan.validate ?horizon scope plan with
          | Error e -> Error ("fault plan: " ^ e)
          | Ok () -> (
              match Faultplan.validate scope recovery_plan with
              | Error e -> Error ("recovery fault plan: " ^ e)
              | Ok () -> Ok ())
        in
        match validated with
        | Error e ->
            stop ();
            Error e
        | Ok () -> (
            let tally =
              {
                t_acked = [];
                t_committed = 0;
                t_failed = 0;
                t_rejected = 0;
                t_response = Stat.create ~name:"drill-rt" ();
              }
            in
            let started = Sim.now sim in
            (* Event-aligned overlay: the load's counters sampled on the
               telemetry cadence, with fault injections as marks. *)
            let ts =
              match (sample_interval, obs) with
              | Some interval, Some o ->
                  let m = Obs.metrics o in
                  List.iter
                    (fun (name, f) ->
                      Metrics.register_gauge m name (fun () -> float_of_int (f tally)))
                    ((("drill.committed", fun t -> t.t_committed) :: fam.gauges)
                    @ [ ("drill.failed", fun t -> t.t_failed) ]);
                  let t = Timeseries.create ~sim ~metrics:m ~interval () in
                  Timeseries.start t;
                  Some t
              | _ -> None
            in
            let drive = fam.load p tally in
            let frun = Faultplan.launch scope plan in
            drive ();
            let elapsed = Sim.now sim - started in
            Faultplan.await frun;
            mark_faults recorder (Faultplan.injected frun);
            (match ts with
            | Some t ->
                Timeseries.stop t;
                List.iter
                  (fun (time, label) -> Timeseries.mark t ~time label)
                  (Faultplan.injected frun)
            | None -> ());
            Sim.sleep fam.settle_for;
            (* Crash: the daemons die with the node and every DP2 loses
               its in-memory image; the only truth left is the trails
               and the PM state. *)
            stop ();
            let crash_faults, sections = fam.evidence p in
            mark_faults recorder crash_faults;
            List.iter
              (fun s -> Array.iter (fun d -> Dp2.load_table d []) (System.dp2s s))
              (pf.systems p);
            (* Recovery-phase injection: offsets in [recovery_plan] are
               relative to the instant recovery starts, so its events
               land while the replay and resolvers are still running —
               the nested-failure window no hand-written drill reaches. *)
            let rrun = match recovery_plan with [] -> None | rp -> Some (Faultplan.launch scope rp) in
            let recovered = pf.recover p in
            let recovery_faults =
              match rrun with
              | None -> []
              | Some r ->
                  Faultplan.await r;
                  let injected = Faultplan.injected r in
                  mark_faults recorder injected;
                  injected
            in
            match recovered with
            | Error e -> Error ("recovery failed: " ^ e)
            | Ok recoveries ->
                pf.quiesce p;
                let systems = pf.systems p in
                let fences f = f frun + match rrun with Some r -> f r | None -> 0 in
                let t = tally in
                let core =
                  {
                    mode = (System.config (List.hd systems)).System.log_mode;
                    seed;
                    elapsed;
                    faults = Faultplan.injected frun @ crash_faults @ recovery_faults;
                    attempted_txns = t.t_committed + t.t_failed + t.t_rejected;
                    committed = t.t_committed;
                    failed_txns = t.t_failed;
                    acked_rows = List.length t.t_acked;
                    recovered_rows =
                      List.fold_left (fun acc r -> acc + r.Recovery.rows_rebuilt) 0 recoveries;
                    lost_rows = List.length (List.filter (fun k -> not (pf.present p k)) t.t_acked);
                    in_doubt_after = sum_over systems in_doubt;
                    orphaned_locks =
                      sum_over systems (fun s -> Lockmgr.held_total (System.locks s));
                    fence_checks = fences Faultplan.fence_checks;
                    fence_failures = fences Faultplan.fence_failures;
                    response = Stat.summary t.t_response;
                    recovery = List.hd recoveries;
                    timeline = ts;
                    flight = recorder;
                    integrity = None;
                    availability = None;
                    gray = None;
                    overload = None;
                    cluster = None;
                  }
                in
                let o = { o_started = started; o_tally = t; o_recoveries = recoveries } in
                let r = sections o core in
                Option.iter (fun f -> List.iter f systems) inspect;
                Ok r))
  in
  (Option.value out ~default:(Error "drill: simulation did not complete"), recorder, judged_at)

(* The one gate: judge a drill's report with the oracle and, when that
   fails or the drill produced no report, dump the armed flight
   recorder once, marked with the reason at the instant of judgement. *)
let gated ~family ~flight ?max_outage (out, recorder, judged_at) =
  (match (flight, recorder) with
  | Some path, Some fr ->
      let failure =
        match out with
        | Error e -> Some ("drill error: " ^ e)
        | Ok r ->
            let v = Oracle.of_report ?max_outage r in
            if Oracle.pass v then None
            else Some (Printf.sprintf "%s gate failed: %s" family (Oracle.summary v))
      in
      Option.iter
        (fun label ->
          Flightrec.mark fr ~time:judged_at label;
          dump_flight path fr)
        failure
  | _ -> ());
  out

(* --- Closed load: hot-stock on one node --- *)

let availability_of system =
  (* Every ADP pair (the MAT's too) and every DP2 pair, summed. *)
  let adp = Array.map Adp.pair (Array.append (System.adps system) [| System.mat system |]) in
  let dp2 = Array.map Dp2.pair (System.dp2s system) in
  let sum_arr pairs f = Array.fold_left (fun acc p -> acc + f p) 0 pairs in
  let tmf = System.tmf system in
  let pmm_takeovers, pmm_outage =
    match System.pmm system with
    | Some p -> Procpair.(takeovers (Pm.Pmm.pair p), outage_time (Pm.Pmm.pair p))
    | None -> (0, 0)
  in
  let fs = Servernet.Fabric.stats (Node.fabric (System.node system)) in
  {
    adp_takeovers = sum_arr adp Procpair.takeovers;
    dp2_takeovers = sum_arr dp2 Procpair.takeovers;
    tmf_takeovers = Procpair.takeovers (Tmf.pair tmf);
    pmm_takeovers;
    outage =
      sum_arr adp Procpair.outage_time
      + sum_arr dp2 Procpair.outage_time
      + Procpair.outage_time (Tmf.pair tmf)
      + pmm_outage;
    degraded_writes = System.degraded_pm_writes system;
    pm_write_retries = System.pm_write_retries system;
    packet_retries = fs.Servernet.Fabric.packet_retries;
  }

(* Closed-loop hot-stock drivers, crash-time decay, and the integrity
   audit and availability as evidence. *)
let closed_family cfg params ~crash_decay ~plan =
  let count p = List.length (List.filter (fun ev -> p ev.Faultplan.action) plan) in
  let evidence system =
    (* Decay injected at the crash lands after the scrubber died with
       the node: only a verified read during recovery can catch it. *)
    let crash_faults =
      List.filter_map
        (fun (device, off, bits) ->
          match List.nth_opt (System.npmus system) device with
          | Some d ->
              Pm.Npmu.decay d ~off ~bits;
              Some
                ( Sim.now (System.sim system),
                  Printf.sprintf "crash media_decay: device %d, %d bits at offset %d" device
                    bits off )
          | None -> None)
        crash_decay
    in
    let sections _ core =
      (* Full-content audit: every mirrored byte of every region
         compared, not just the rows the replay touched.  Anything
         still divergent that is neither repaired nor quarantined is
         silent corruption the defenses missed. *)
      let integrity =
        Option.map
          (fun pmm ->
            {
              decay_injected =
                count (function Faultplan.Media_decay _ -> true | _ -> false)
                + List.length crash_faults;
              torn_injected = count (function Faultplan.Torn_write _ -> true | _ -> false);
              scrub_chunks = Pm.Pmm.scrub_chunks_scanned pmm;
              scrub_repairs = Pm.Pmm.scrub_repairs pmm;
              scrub_quarantined = Pm.Pmm.scrub_quarantined pmm;
              read_repairs = System.pm_read_repairs system;
              verify_unrepaired = System.pm_verify_unrepaired system;
              unrepaired_divergence = List.length (Pm.Pmm.divergent_chunks pmm);
            })
          (System.pmm system)
      in
      { core with integrity; availability = Some (availability_of system) }
    in
    (crash_faults, sections)
  in
  {
    platform = node_platform (fun s -> Faultplan.Single s) cfg;
    gauges = [];
    load =
      (fun system tally () ->
        Load.clients [| system |] ~name:"drill-driver" params.drivers
          (Load.hot_stock system ~records:params.records_per_driver
             ~record_bytes:params.record_bytes ~per_txn:params.inserts_per_txn
             ~begin_retries:params.begin_retries ~commit:(ack tally) ~fail:(fail tally))
          ());
    settle_for = params.settle;
    evidence;
  }

(* --- Open load: a flash crowd against impatient clients --- *)

let open_family cfg params =
  let workers = cfg.System.worker_cpus in
  let files = cfg.System.files in
  let per_txn = params.ov_inserts_per_txn in
  let pool = ref [||] in
  let arrivals = ref 0 in
  (* Cumulative committed count at each window boundary; the
     goodput-over-time series and both phase gates derive from it. *)
  let windows = ref [] in
  let load system tally =
    let sim = System.sim system in
    let sampling = ref true in
    ignore
      (Sim.spawn sim ~name:"goodput-sampler" (fun () ->
           while !sampling do
             Sim.sleep params.ov_window;
             windows := (Sim.now sim, tally.t_committed) :: !windows
           done));
    fun () ->
      pool := Array.init workers (fun i -> System.session system ~cpu:i);
      let outstanding = ref 0 in
      let failed_attempt retries retry =
        if retries > 0 then begin
          Sim.sleep (Time.ms 100);
          retry (retries - 1)
        end
        else fail tally ()
      in
      (* One arrival = one transaction attempt.  Rejection is respected
         immediately (that is the contract the defended system offers);
         failure is retried a bounded number of times, because real
         clients do — the driver-level half of the retry storm. *)
      let worker index () =
        let session = !pool.(index mod workers) in
        let keys =
          List.init per_txn (fun i -> (i mod files, 900_000_000 + (index * per_txn) + i))
        in
        let rec attempt retries =
          let t0 = Sim.now sim in
          match Txclient.begin_txn session with
          | Error e when Txclient.is_rejected e -> tally.t_rejected <- tally.t_rejected + 1
          | Error _ -> failed_attempt retries attempt
          | Ok txn -> (
              List.iter
                (fun (file, key) ->
                  Txclient.insert_async session txn ~file ~key ~len:params.ov_record_bytes ())
                keys;
              match Txclient.commit session txn with
              | Ok () -> ack tally keys (Sim.now sim - t0)
              | Error e when Txclient.is_rejected e -> tally.t_rejected <- tally.t_rejected + 1
              | Error _ -> failed_attempt retries attempt)
        in
        attempt params.ov_client_retries;
        decr outstanding
      in
      let rng = Rng.split (Sim.rng sim) in
      let node = System.node system in
      arrivals :=
        Arrival.run ~rng (overload_schedule params) ~f:(fun index ->
            incr outstanding;
            ignore
              (Cpu.spawn
                 (Node.cpu node (index mod workers))
                 ~name:(Printf.sprintf "ov%d" index)
                 (worker index)));
      (* Drain the stragglers — under collapse this tail is long, which
         the windowed series records faithfully. *)
      while !outstanding > 0 do
        Sim.sleep (Time.ms 10)
      done;
      sampling := false
  in
  (* Client and server counters are harvested before the crash wipes
     the live processes' relevance. *)
  let evidence system =
    let sum f = Array.fold_left (fun acc s -> acc + f s) 0 !pool in
    let timeouts = sum Txclient.timeouts in
    let retry_denied =
      sum (fun s ->
          match Txclient.retry_budget s with Some b -> Retry_budget.denied b | None -> 0)
    in
    let breaker_trips = sum Txclient.breaker_trips in
    let tmf = System.tmf system in
    let admitted = Tmf.admitted tmf in
    let tmf_rejected = Tmf.rejected tmf in
    let tmf_expired = Tmf.expired tmf in
    let adp_shed = System.adp_shed_expired system in
    let sections o core =
      (* Per-window commit deltas, oldest first. *)
      let goodput =
        let prev = ref 0 in
        List.map
          (fun (t, c) ->
            let d = c - !prev in
            prev := c;
            (t, d))
          (List.rev !windows)
      in
      let started = o.o_started in
      let spike_start = started + params.ov_warmup in
      let spike_end = spike_start + params.ov_spike_for in
      let sched_end = spike_end + params.ov_cooldown in
      let phase_rate lo hi =
        let commits =
          List.fold_left
            (fun acc (t, d) -> if t > lo && t <= hi then acc + d else acc)
            0 goodput
        in
        let dt = Time.to_sec (hi - lo) in
        if dt > 0.0 then float_of_int commits /. dt else 0.0
      in
      let warmup_g = phase_rate started spike_start in
      let window_sec = Time.to_sec params.ov_window in
      (* Metastability gate: the first window inside the cooldown phase
         whose rate is back to the recovery fraction of the warmup
         rate.  Only windows while base-rate load is still arriving
         count — recovering after the offered load stops is exactly
         what a metastable system does, and it does not count. *)
      let recovery_time =
        let threshold = params.ov_recovery_frac *. warmup_g in
        List.find_map
          (fun (t, d) ->
            if t > spike_end && t <= sched_end && float_of_int d /. window_sec >= threshold
            then Some (t - spike_end)
            else None)
          goodput
      in
      let overload =
        {
          v_defended = cfg.System.defenses <> [];
          v_arrivals = !arrivals;
          v_rejected = o.o_tally.t_rejected;
          v_timeouts = timeouts;
          v_admitted = admitted;
          v_tmf_rejected = tmf_rejected;
          v_tmf_expired = tmf_expired;
          v_adp_shed = adp_shed;
          v_retry_denied = retry_denied;
          v_breaker_trips = breaker_trips;
          v_warmup_goodput = warmup_g;
          v_spike_goodput = phase_rate spike_start spike_end;
          v_cooldown_goodput = phase_rate spike_end sched_end;
          v_recovery_time = recovery_time;
          v_spike_floor = params.ov_spike_floor;
          v_recovery_frac = params.ov_recovery_frac;
          v_recovery_limit = params.ov_recovery_limit;
          v_goodput = goodput;
        }
      in
      { core with overload = Some overload }
    in
    ([], sections)
  in
  {
    platform = node_platform (fun s -> Faultplan.Overload_drill s) cfg;
    gauges = [ ("drill.rejected", fun t -> t.t_rejected) ];
    load;
    settle_for = params.ov_settle;
    evidence;
  }

(* --- Distributed load: the 2PC mix on a cluster --- *)

let distributed_family cfg ~nodes params =
  (* The in-doubt window is counted before the crash: the partition's
     wreckage, which recovery's resolvers must drain. *)
  let evidence cluster =
    let systems = List.init nodes (Cluster.system cluster) in
    let in_doubt_before = sum_over systems in_doubt in
    let sections o core =
      let resolved f = List.fold_left (fun acc r -> acc + f r) 0 o.o_recoveries in
      let cluster =
        {
          c_nodes = nodes;
          c_in_doubt_before = in_doubt_before;
          c_resolved_commit = resolved (fun r -> r.Recovery.resolved_commit);
          c_resolved_abort = resolved (fun r -> r.Recovery.resolved_abort);
          c_fenced_writes =
            sum_over systems (fun s ->
                List.fold_left (fun acc d -> acc + Pm.Npmu.fenced_writes d) 0 (System.npmus s));
          c_recoveries = o.o_recoveries;
        }
      in
      { core with cluster = Some cluster }
    in
    ([], sections)
  in
  {
    platform = cluster_platform ~nodes ~settle:params.settle cfg;
    gauges = [];
    load =
      (fun cluster tally () ->
        Load.clients (Array.init nodes (Cluster.system cluster)) ~name:"drill-driver"
          params.drivers
          (Load.two_phase cluster ~records:params.records_per_driver
             ~record_bytes:params.record_bytes ~per_txn:params.inserts_per_txn
             ~commit:(ack tally) ~fail:(fail tally))
          ());
    settle_for = params.settle;
    evidence;
  }

(* --- The one entry point --- *)

let check_params p =
  if p.drivers < 1 then invalid_arg "Drill.exec: need at least one driver";
  if p.inserts_per_txn < 1 then invalid_arg "Drill.exec: need at least one insert per transaction"

let exec ?obs ?prof ?sample_interval ?inspect ?flight ?max_outage (s : spec) =
  (match s.load with
  | Closed p -> check_params p
  | Distributed { nodes; params } ->
      check_params params;
      if nodes < 2 then invalid_arg "Drill.exec: need at least two nodes"
  | Open _ -> ());
  let cfg = { s.config with System.seed = s.seed } in
  let once ?obs ?prof ?sample_interval ?inspect ?flight ~recovery_plan plan =
    let go fam =
      harness fam ~seed:s.seed ?prof ?obs ?flight ?sample_interval ?inspect ?horizon:s.horizon
        ~recovery_plan plan
    in
    match s.load with
    | Closed p -> go (closed_family cfg p ~crash_decay:s.crash_decay ~plan)
    | Open p -> go (open_family cfg p)
    | Distributed { nodes; params } -> go (distributed_family cfg ~nodes params)
  in
  let family =
    match s.load with
    | Open _ -> "overload"
    | Distributed _ -> "cluster"
    | Closed _ when s.crash_decay <> [] -> "corruption"
    | Closed _ -> "drill"
  in
  if not s.baseline then
    once ?obs ?prof ?sample_interval ?inspect ?flight ~recovery_plan:s.recovery_plan s.plan
    |> gated ~family ~flight ?max_outage
  else
    (* Healthy baseline first: identical platform, identical seed, no
       faults.  Its p99 is the denominator of the latency gate. *)
    let baseline, _, _ = once ~recovery_plan:[] [] in
    match baseline with
    | Error e -> Error ("gray baseline: " ^ e)
    | Ok baseline ->
        (* The mitigation counters, read off the live system after
           recovery; the p99 ratio is filled in below. *)
        let mitigation = ref None in
        let harvest system =
          let on_pmm f default = Option.fold ~none:default ~some:f (System.pmm system) in
          mitigation :=
            Some
              {
                g_defended = cfg.System.defenses <> [];
                g_baseline = baseline;
                g_p99_ratio = nan;
                g_p99_limit = gray_p99_limit;
                g_demotions = on_pmm Pm.Pmm.demotions 0;
                g_readmissions = on_pmm Pm.Pmm.readmissions 0;
                g_mirror_active = on_pmm Pm.Pmm.mirror_active true;
                g_monitor_probes = on_pmm Pm.Pmm.monitor_probes 0;
                g_slow_suspects = System.pm_slow_suspects system;
                g_hedged_reads = System.pm_hedged_reads system;
                g_hedge_wins = System.pm_hedge_wins system;
                g_single_copy_writes = System.pm_single_copy_writes system;
              };
          Option.iter (fun f -> f system) inspect
        in
        let degraded, recorder, judged_at =
          once ?obs ?prof ?sample_interval ~inspect:harvest ?flight
            ~recovery_plan:s.recovery_plan s.plan
        in
        let out =
          match degraded with
          | Error e -> Error ("gray degraded: " ^ e)
          | Ok degraded ->
              let g_p99_ratio =
                if baseline.response.Stat.p99 > 0.0 then
                  degraded.response.Stat.p99 /. baseline.response.Stat.p99
                else infinity
              in
              (* [harvest] ran: recovery succeeded. *)
              Ok { degraded with gray = Some { (Option.get !mitigation) with g_p99_ratio } }
        in
        gated ~family:"gray" ~flight ?max_outage (out, recorder, judged_at)

let run ?(seed = 0xD5177L) ?(config = System.default_config) ?obs ?prof ?sample_interval
    ?(params = default_params) ?horizon ?(recovery_plan = []) ?inspect ?flight ?max_outage ~mode
    ~plan () =
  let config = { config with System.log_mode = mode } in
  exec ?obs ?prof ?sample_interval ?inspect ?flight ?max_outage
    { load = Closed params; config; plan; recovery_plan; horizon; crash_decay = [];
      baseline = false; seed }

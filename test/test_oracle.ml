(* The oracle's one check table, pinned: every row shows up exactly once
   in every family's verdict, a missing section turns its rows into
   not-applicable entries, and each family's verdict is what its old
   hand-picked oracle returned. *)

open Tp

let check_bool = Alcotest.(check bool)
let check_names = Alcotest.(check (list string))

(* The table, in order. *)
let rows =
  [
    "acked_durable";
    "in_doubt_drained";
    "no_orphaned_locks";
    "no_fence_failures";
    "integrity_clean";
    "bounded_unavailability";
    "baseline_durable";
    "p99_bounded";
    "mirror_demoted";
    "mirror_readmitted";
    "mirror_active";
    "slow_suspects_flagged";
    "warmup_progress";
    "spike_goodput_floor";
    "goodput_recovered";
    "admission_shed";
  ]

let report = function
  | Ok r -> r
  | Error e -> Alcotest.fail ("drill refused: " ^ e)

(* Each family's default drill, with and without its defenses where it
   has them; the name, then the report. *)
let families =
  lazy
    (List.map
       (fun (name, scope, plan, defenses) ->
         (name, report (Drill.exec (Test_util.drill_spec ~scope ~defenses plan))))
       [
         ("disk standard", `Single System.Disk_audit, Drill.Standard, true);
         ("corruption", `Single System.Pm_audit, Drill.Corruption, true);
         ("corruption undefended", `Single System.Pm_audit, Drill.Corruption, false);
         ("grayfail", `Single System.Pm_audit, Drill.Grayfail, true);
         ("grayfail undefended", `Single System.Pm_audit, Drill.Grayfail, false);
         ("overload", `Single System.Pm_audit, Drill.Overload, true);
         ("overload undefended", `Single System.Pm_audit, Drill.Overload, false);
         ("partition", `Cluster, Drill.Partition, true);
       ])

let names v =
  List.map (fun c -> c.Drill.Oracle.ck_name) v.Drill.Oracle.checks
  @ List.map (fun n -> n.Drill.Oracle.na_name) v.Drill.Oracle.not_applicable

let not_applicable v = List.map (fun n -> n.Drill.Oracle.na_name) v.Drill.Oracle.not_applicable

let test_every_row_once () =
  List.iter
    (fun (family, r) ->
      List.iter
        (fun max_outage ->
          let v = Drill.Oracle.of_report ?max_outage r in
          check_names (family ^ ": every row exactly once") (List.sort compare rows)
            (List.sort compare (names v)))
        [ None; Some Explorer.max_outage ])
    (Lazy.force families)

(* Strip one section at a time: its rows leave the checks and are listed
   as not applicable, naming the missing section. *)
let test_missing_section_not_applicable () =
  let families = Lazy.force families in
  let gray = List.assoc "grayfail" families and overload = List.assoc "overload" families in
  let max_outage = Explorer.max_outage in
  let strip label r section_rows =
    let v = Drill.Oracle.of_report ~max_outage r in
    List.iter
      (fun row ->
        check_bool (label ^ ": " ^ row ^ " not applicable") true (List.mem row (not_applicable v));
        check_bool
          (label ^ ": reason names the section")
          true
          (List.exists
             (fun n ->
               n.Drill.Oracle.na_name = row
               && n.Drill.Oracle.na_reason = Printf.sprintf "no %s section in this report" label)
             v.Drill.Oracle.not_applicable))
      section_rows
  in
  strip "integrity" { gray with Drill.integrity = None } [ "integrity_clean" ];
  strip "availability" { gray with Drill.availability = None } [ "bounded_unavailability" ];
  strip "gray" { gray with Drill.gray = None }
    [
      "baseline_durable";
      "p99_bounded";
      "mirror_demoted";
      "mirror_readmitted";
      "mirror_active";
      "slow_suspects_flagged";
    ];
  strip "overload" { overload with Drill.overload = None }
    [ "warmup_progress"; "spike_goodput_floor"; "goodput_recovered"; "admission_shed" ];
  (* With its gray section gone the degraded run's divergence is judged
     again, as on any single-system run. *)
  let v = Drill.Oracle.of_report { gray with Drill.gray = None } in
  check_bool "integrity judged without the gray section" true
    (List.exists (fun c -> c.Drill.Oracle.ck_name = "integrity_clean") v.Drill.Oracle.checks)

(* What the per-family oracles returned before the table replaced them:
   the same pass/fail and the same failing checks. *)
let test_verdicts_unchanged () =
  let expected =
    [
      ("disk standard", []);
      ("corruption", []);
      ("corruption undefended", [ "acked_durable"; "integrity_clean" ]);
      ("grayfail", []);
      ("grayfail undefended", [ "p99_bounded" ]);
      ("overload", []);
      ("overload undefended", [ "goodput_recovered" ]);
      ("partition", []);
    ]
  in
  List.iter
    (fun (family, r) ->
      let v = Drill.Oracle.of_report r in
      let failing = List.map (fun c -> c.Drill.Oracle.ck_name) (Drill.Oracle.failures v) in
      check_names (family ^ ": failing checks") (List.assoc family expected) failing;
      check_bool (family ^ ": pass") (failing = []) (Drill.Oracle.pass v))
    (Lazy.force families)

(* Gray runs report their divergence without judging it, and say how
   much there is. *)
let test_gray_integrity_reported () =
  let r = List.assoc "grayfail" (Lazy.force families) in
  let v = Drill.Oracle.of_report r in
  let divergent = (Option.get r.Drill.integrity).Drill.unrepaired_divergence in
  let na = v.Drill.Oracle.not_applicable in
  match List.find_opt (fun n -> n.Drill.Oracle.na_name = "integrity_clean") na with
  | Some n ->
      check_bool "reason carries the divergent-chunk count" true
        (String.ends_with
           ~suffix:(Printf.sprintf ": %d mirrored chunks still divergent" divergent)
           n.Drill.Oracle.na_reason)
  | None -> Alcotest.fail "integrity_clean judged on a gray run"

(* --- The spec table --- *)

(* What --list-plans prints per platform, and the usage message for
   every other plan. *)
let test_spec_table () =
  let scopes =
    [
      ("disk", `Single System.Disk_audit, [ "standard"; "kills"; "none" ]);
      ("pm", `Single System.Pm_audit, [ "standard"; "kills"; "corruption"; "grayfail"; "overload"; "none" ]);
      ("cluster", `Cluster, [ "partition"; "none" ]);
    ]
  in
  List.iter
    (fun (label, scope, runs) ->
      check_names (label ^ ": plan names") runs (Drill.plan_names scope);
      List.iter
        (fun (name, plan) ->
          let what = Printf.sprintf "%s %s" label name in
          match (Drill.spec_of plan scope, List.mem name runs) with
          | Ok _, true -> ()
          | Ok _, false -> Alcotest.fail (what ^ ": accepted")
          | Error e, true -> Alcotest.fail (what ^ ": refused: " ^ e)
          | Error e, false ->
              let expected =
                match scope with
                | `Cluster ->
                    Printf.sprintf "plan '%s' does not run in cluster mode (partition|none)" name
                | `Single _ when plan = Drill.Partition -> "plan 'partition' requires --mode cluster"
                | `Single _ -> Printf.sprintf "plan '%s' requires --mode pm" name
              in
              Alcotest.(check string) (what ^ ": message") expected e)
        Drill.plans)
    scopes

(* Each mechanism a built PM system can arm, with the switch it belongs
   to and whether it is armed under [defenses]: verified reads on every
   PM client, scrub passes, mirror-health probes, a session retry budget,
   and admission control, which refuses a begin whose deadline has
   already passed where an unguarded monitor admits it. *)
let mechanisms defenses =
  let sim = Simkit.Sim.create ~seed:0x5EL () in
  Test_util.run_in sim (fun () ->
      let system = System.build sim { System.pm_config with System.defenses } in
      let pmm = Option.get (System.pmm system) and tmf = System.tmf system in
      let from = Nsk.Node.cpu (System.node system) 0 in
      let expired = Tmf.Begin_txn { deadline = 1 } in
      ignore (Rpc.call_retry (Tmf.server tmf) ~from ~attempts:1 expired);
      Simkit.Sim.sleep (Simkit.Time.ms 20);
      Pm.Pmm.stop_scrubber pmm;
      Pm.Pmm.stop_monitor pmm;
      let verifying = List.map Pm.Pm_client.verified_reads_enabled (System.pm_clients system) in
      let verified = List.for_all Fun.id verifying in
      if verified <> List.exists Fun.id verifying then
        Alcotest.fail "verified reads armed on some PM clients only";
      [
        ("verified reads", System.Integrity, verified);
        ("scrubber", System.Integrity, Pm.Pmm.scrub_chunks_scanned pmm > 0);
        ("mirror-health monitor", System.Fail_slow, Pm.Pmm.monitor_probes pmm > 0);
        ("session retry budget", System.Overload,
          Txclient.retry_budget (System.session system ~cpu:0) <> None);
        ("admission control", System.Overload, Tmf.admitted tmf = 0);
      ])

(* Each switch alone arms its own mechanisms and none of the others';
   no switch arms nothing. *)
let test_each_switch_arms_its_own () =
  let switch = function
    | System.Integrity -> "Integrity"
    | System.Fail_slow -> "Fail_slow"
    | System.Overload -> "Overload"
  in
  List.iter
    (fun defenses ->
      let on = String.concat "; " (List.map switch defenses) in
      List.iter
        (fun (name, group, armed) ->
          check_bool (Printf.sprintf "%s armed under [%s]" name on) (defenses = [ group ]) armed)
        (mechanisms defenses))
    [ []; [ System.Integrity ]; [ System.Fail_slow ]; [ System.Overload ] ]

(* Every family spec arms exactly the switch its name implies. *)
let test_families_arm_their_switch () =
  let expected = function
    | "corruption" -> [ System.Integrity ]
    | "grayfail" -> [ System.Fail_slow ]
    | "overload" -> [ System.Overload ]
    | _ -> []
  in
  List.iter
    (fun scope ->
      List.iter
        (fun (name, plan) ->
          match Drill.spec_of plan scope with
          | Error _ -> ()
          | Ok spec ->
              check_bool (name ^ ": armed switches") true
                (spec.Drill.config.System.defenses = expected name))
        Drill.plans)
    [ `Single System.Disk_audit; `Single System.Pm_audit; `Cluster ]

let suite =
  [
    ( "drill.spec",
      [
        Alcotest.test_case "spec_of runs exactly the listed plans" `Quick test_spec_table;
        Alcotest.test_case "each switch arms only its own defenses" `Quick
          test_each_switch_arms_its_own;
        Alcotest.test_case "each family arms the switch its name implies" `Quick
          test_families_arm_their_switch;
      ] );
    ( "oracle.table",
      [
        Alcotest.test_case "every row once in every family's verdict" `Quick
          test_every_row_once;
        Alcotest.test_case "a missing section is not applicable" `Quick
          test_missing_section_not_applicable;
        Alcotest.test_case "family verdicts unchanged" `Quick test_verdicts_unchanged;
        Alcotest.test_case "gray integrity reported, not judged" `Quick
          test_gray_integrity_reported;
      ] );
  ]

(* The adversarial fault-schedule explorer: faultplan JSON round-trip,
   horizon validation, the shared oracle, the generator's corpus
   properties, the shrinker, and repro-file replay. *)

open Simkit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* One event of every action kind, with non-default parameters. *)
let every_action_plan =
  Tp.Faultplan.
    [
      at (Time.ms 1) (Kill_primary (Adp 2));
      at (Time.ms 2) (Kill_primary (Dp2 7));
      at (Time.ms 3) (Kill_primary Tmf);
      at (Time.ms 4) (Kill_primary Pmm);
      at (Time.ms 5) (Npmu_power_cycle { device = 1; off_for = Time.ms 35 });
      at (Time.ms 6) (Rail_down 1);
      at (Time.ms 7) (Rail_up 1);
      at (Time.ms 8) (Crc_noise_burst { rate = 0.015625; duration = Time.ms 9 });
      at (Time.ms 10) (Media_decay { device = 0; off = 123_456; bits = 77 });
      at (Time.ms 11) (Torn_write { device = 1 });
      at (Time.ms 12) Pmm_resync;
      at (Time.ms 13) Wan_partition;
      at (Time.ms 14) Wan_heal;
      at (Time.ms 15) Fence_check;
      at (Time.ms 16)
        (Slow_device { device = 0; factor = 12.5; jitter = Time.us 250 });
      at (Time.ms 17) (Slow_rail { rail = 0; factor = 3.25 });
      at (Time.ms 18) (Slow_disk { volume = 9; factor = 2.75; jitter = Time.us 50 });
      at (Time.ms 19) Restore_speed;
      at (Time.ms 20) (Flash_crowd { spike = 5.5; spike_for = Time.ms 400 });
    ]

let test_plan_json_roundtrip () =
  check_int "one event per action kind"
    (List.length Tp.Faultplan.action_kinds)
    (List.length every_action_plan);
  let json = Tp.Faultplan.to_json every_action_plan in
  (match Tp.Faultplan.of_json json with
  | Error e -> Alcotest.fail ("round-trip rejected: " ^ e)
  | Ok plan ->
      check_bool "structurally identical plan" true (plan = every_action_plan));
  (* Byte-identity through a parse cycle: serialize, parse the text,
     re-serialize — the repro-file contract. *)
  let text = Json.to_string json in
  match Json.parse text with
  | Error e -> Alcotest.fail ("serialized plan unparseable: " ^ e)
  | Ok doc -> (
      check_string "byte-identical through parse" text (Json.to_string doc);
      match Tp.Faultplan.of_json doc with
      | Error e -> Alcotest.fail ("parsed plan rejected: " ^ e)
      | Ok plan -> check_bool "identical after parse cycle" true (plan = every_action_plan))

let test_plan_json_errors () =
  (* Unknown kind: the error names the offending index and lists every
     valid kind. *)
  let bad =
    Json.List
      [
        Json.Obj [ ("after_ns", Json.Int 10); ("kind", Json.String "kill_adp"); ("index", Json.Int 0) ];
        Json.Obj [ ("after_ns", Json.Int 20); ("kind", Json.String "set_on_fire") ];
      ]
  in
  (match Tp.Faultplan.of_json bad with
  | Ok _ -> Alcotest.fail "unknown kind accepted"
  | Error e ->
      check_bool "names the action index" true (contains e "action 1");
      check_bool "names the bad kind" true (contains e "set_on_fire");
      List.iter
        (fun k -> check_bool ("lists valid kind " ^ k) true (contains e k))
        Tp.Faultplan.action_kinds);
  (* Missing parameter: named field, named index. *)
  let missing =
    Json.List [ Json.Obj [ ("after_ns", Json.Int 5); ("kind", Json.String "rail_down") ] ]
  in
  (match Tp.Faultplan.of_json missing with
  | Ok _ -> Alcotest.fail "missing field accepted"
  | Error e ->
      check_bool "names the action index" true (contains e "action 0");
      check_bool "names the missing field" true (contains e "rail"));
  (* Non-object action, non-array plan. *)
  (match Tp.Faultplan.of_json (Json.List [ Json.Int 3 ]) with
  | Ok _ -> Alcotest.fail "non-object action accepted"
  | Error e -> check_bool "names the action index" true (contains e "action 0"));
  match Tp.Faultplan.of_json (Json.Obj []) with
  | Ok _ -> Alcotest.fail "non-array plan accepted"
  | Error e -> check_bool "says array" true (contains e "array")

(* --- The horizon: events past the drill's crash point are rejected,
   not silently dropped --- *)

let test_validate_horizon () =
  let sim = Sim.create ~seed:0x40AL () in
  Test_util.run_in sim (fun () ->
      let system = Tp.System.build sim Tp.System.pm_config in
      let plan =
        Tp.Faultplan.
          [
            at (Time.ms 10) (Kill_primary (Adp 0));
            at (Time.sec 5) (Kill_primary Tmf);
          ]
      in
      (* Without a horizon the plan is fine. *)
      (match Tp.Faultplan.validate (Tp.Faultplan.Single system) plan with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("valid plan rejected: " ^ e));
      (* With one, the late event is named and refused. *)
      match Tp.Faultplan.validate ~horizon:(Time.sec 2) (Tp.Faultplan.Single system) plan with
      | Ok () -> Alcotest.fail "past-horizon event accepted"
      | Error e ->
          check_bool "names the action index" true (contains e "action 1");
          check_bool "mentions the horizon" true (contains e "horizon"))

let test_drill_run_horizon () =
  match
    Tp.Drill.exec
      {
        (Test_util.drill_spec Tp.Drill.No_faults) with
        Tp.Drill.seed = 0x1L;
        horizon = Some (Time.ms 100);
        plan = [ Tp.Faultplan.at (Time.ms 200) (Tp.Faultplan.Kill_primary Tmf) ];
      }
  with
  | Ok _ -> Alcotest.fail "drill ran a plan with an event past the horizon"
  | Error e -> check_bool "mentions the horizon" true (contains e "horizon")

(* --- The shared oracle --- *)

let test_oracle_verdicts () =
  let r =
    match Tp.Drill.exec (Test_util.drill_spec Tp.Drill.No_faults) with
    | Ok r -> r
    | Error e -> Alcotest.fail ("faultless drill refused: " ^ e)
  in
  let open Tp.Drill.Oracle in
  let ok = of_report r in
  check_bool "all-green passes" true (pass ok);
  check_string "all-green summary" "all invariants hold" (summary ok);
  let v = of_report { r with Tp.Drill.lost_rows = 3 } in
  check_bool "any failed check fails the verdict" false (pass v);
  check_int "failures lists only the failed" 1 (List.length (failures v));
  check_bool "summary names the check" true (contains (summary v) "acked_durable: 3 of");
  let length = function Some (Json.List l) -> List.length l | _ -> -1 in
  match to_json v with
  | Json.Obj fields ->
      check_bool "pass field present" true (List.assoc_opt "pass" fields = Some (Json.Bool false));
      check_int "checks listed" (List.length v.checks) (length (List.assoc_opt "checks" fields));
      check_int "not-applicable rows listed" (List.length v.not_applicable)
        (length (List.assoc_opt "not_applicable" fields))
  | _ -> Alcotest.fail "oracle verdict is not an object"

(* --- Generator properties --- *)

let pm_only_action (a : Tp.Faultplan.action) =
  match a with
  | Tp.Faultplan.Kill_primary Tp.Faultplan.Pmm | Npmu_power_cycle _ | Media_decay _
  | Torn_write _ | Pmm_resync | Fence_check | Slow_device _ ->
      true
  | _ -> false

let prop_same_seed_identical_corpus =
  QCheck.Test.make ~name:"same seed generates a byte-identical corpus" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let a = Json.to_string (Tp.Explorer.corpus_json ~seed ~budget:20) in
      let b = Json.to_string (Tp.Explorer.corpus_json ~seed ~budget:20) in
      a = b)

let prop_disk_schedules_have_no_pm_actions =
  QCheck.Test.make ~name:"disk-kind schedules never carry PM-only actions" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      Tp.Explorer.corpus ~seed ~budget:32
      |> List.filter (fun s -> s.Tp.Explorer.s_kind = Tp.Explorer.Disk)
      |> List.for_all (fun s ->
             List.for_all
               (fun ev -> not (pm_only_action ev.Tp.Faultplan.action))
               (s.Tp.Explorer.s_plan @ s.Tp.Explorer.s_recovery)))

let prop_schedules_sorted_and_in_horizon =
  QCheck.Test.make ~name:"generated schedules are sorted and inside the horizon"
    ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      Tp.Explorer.corpus ~seed ~budget:32
      |> List.for_all (fun s ->
             let sorted plan =
               let rec go = function
                 | a :: (b :: _ as rest) ->
                     a.Tp.Faultplan.after <= b.Tp.Faultplan.after && go rest
                 | _ -> true
               in
               go plan
             in
             sorted s.Tp.Explorer.s_plan
             && sorted s.Tp.Explorer.s_recovery
             && List.for_all
                  (fun ev -> ev.Tp.Faultplan.after <= Tp.Explorer.horizon)
                  (s.Tp.Explorer.s_plan @ s.Tp.Explorer.s_recovery)))

(* Mode validation: every generated single-system schedule must be
   accepted by the platform it will run on — PM schedules against a
   PM-audit system, disk schedules against a disk-audit system. *)
let test_generated_schedules_validate () =
  let sim = Sim.create ~seed:0x60DL () in
  Test_util.run_in sim (fun () ->
      (* [pm_config], not the drill's scrub-enabled corruption config:
         the background scrubber never quiesces, and [Sim.run] would
         never return.  Validation only needs the mode and topology. *)
      let pm = Tp.System.build sim Tp.System.pm_config in
      let disk = Tp.System.build sim Tp.System.default_config in
      Tp.Explorer.corpus ~seed:0xBEEF ~budget:48
      |> List.iter (fun s ->
             let target =
               match s.Tp.Explorer.s_kind with
               | Tp.Explorer.Pm -> Some pm
               | Tp.Explorer.Disk -> Some disk
               | _ -> None
             in
             match target with
             | None -> ()
             | Some system -> (
                 (match
                    Tp.Faultplan.validate ~horizon:Tp.Explorer.horizon (Tp.Faultplan.Single system)
                      s.Tp.Explorer.s_plan
                  with
                 | Ok () -> ()
                 | Error e ->
                     Alcotest.fail
                       (Printf.sprintf "schedule %d load plan rejected: %s"
                          s.Tp.Explorer.s_index e));
                 match Tp.Faultplan.validate (Tp.Faultplan.Single system) s.Tp.Explorer.s_recovery with
                 | Ok () -> ()
                 | Error e ->
                     Alcotest.fail
                       (Printf.sprintf "schedule %d recovery plan rejected: %s"
                          s.Tp.Explorer.s_index e))))

let test_coverage_accounting () =
  let schedules = Tp.Explorer.corpus ~seed:0xC0FE ~budget:64 in
  let cells = Tp.Explorer.coverage schedules in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 cells in
  let events =
    List.fold_left
      (fun acc s ->
        acc
        + List.length s.Tp.Explorer.s_plan
        + List.length s.Tp.Explorer.s_recovery)
      0 schedules
  in
  check_int "every event lands in exactly one cell" events total;
  let phases = List.sort_uniq compare (List.map (fun ((_, p, _), _) -> p) cells) in
  check_bool "load phase covered" true (List.mem "load" phases);
  check_bool "recovery phase covered" true (List.mem "recovery" phases)

(* --- The shrinker --- *)

let prop_shrinker_minimizes =
  (* Against a pure predicate ("the plan still contains a TMF kill"),
     the shrinker must return a smaller-or-equal schedule that still
     fails, regardless of where the essential action hides. *)
  QCheck.Test.make ~name:"shrinker output still fails and never grows" ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 0 15))
    (fun (seed, index) ->
      let s = Tp.Explorer.generate ~seed ~index in
      let essential =
        List.exists
          (fun ev -> ev.Tp.Faultplan.action = Tp.Faultplan.Kill_primary Tp.Faultplan.Tmf)
      in
      let fails (p, r) = essential p || essential r in
      if not (fails (s.Tp.Explorer.s_plan, s.Tp.Explorer.s_recovery)) then true
      else begin
        let (p', r'), _replays =
          Tp.Explorer.minimize ~fails (s.Tp.Explorer.s_plan, s.Tp.Explorer.s_recovery)
        in
        let len (a, b) = List.length a + List.length b in
        fails (p', r')
        && len (p', r') <= len (s.Tp.Explorer.s_plan, s.Tp.Explorer.s_recovery)
        && len (p', r') = 1
      end)

let test_shrinker_tightens_windows () =
  (* A single essential action with a large offset: phase 2 must halve
     the offset down to the floor while the predicate keeps failing. *)
  let plan =
    [ Tp.Faultplan.at (Time.ms 800) (Tp.Faultplan.Kill_primary Tp.Faultplan.Tmf) ]
  in
  let fails (p, _) =
    List.exists
      (fun ev -> ev.Tp.Faultplan.action = Tp.Faultplan.Kill_primary Tp.Faultplan.Tmf)
      p
  in
  let (p', r'), _ = Tp.Explorer.minimize ~fails (plan, []) in
  check_int "nothing dropped" 1 (List.length p');
  check_int "recovery untouched" 0 (List.length r');
  let ev = List.hd p' in
  check_bool "offset tightened to the floor" true (ev.Tp.Faultplan.after <= Time.us 200)

let test_shrinker_respects_budget () =
  let plan =
    List.init 10 (fun i ->
        Tp.Faultplan.at (Time.ms i) (Tp.Faultplan.Kill_primary (Tp.Faultplan.Adp 0)))
  in
  let calls = ref 0 in
  let fails _ =
    incr calls;
    true
  in
  let (_, _), replays = Tp.Explorer.minimize ~max_replays:7 ~fails (plan, []) in
  check_bool "replays bounded" true (replays <= 7);
  check_int "counted every evaluation" replays !calls

(* --- Repro files --- *)

let test_repro_roundtrip () =
  let repro =
    {
      Tp.Explorer.rp_kind = Tp.Explorer.Cluster;
      rp_seed = 0xDEADBEEFCAFEL;
      rp_defenses = false;
      rp_plan =
        Tp.Faultplan.
          [ at (Time.ms 3) Wan_partition; at (Time.ms 9) Wan_heal ];
      rp_recovery = [ Tp.Faultplan.at (Time.ms 1) (Tp.Faultplan.Rail_down 0) ];
    }
  in
  let text = Json.to_string (Tp.Explorer.repro_to_json repro) in
  (match Json.parse text with
  | Error e -> Alcotest.fail ("repro unparseable: " ^ e)
  | Ok doc -> (
      match Tp.Explorer.repro_of_json doc with
      | Error e -> Alcotest.fail ("repro rejected: " ^ e)
      | Ok r -> check_bool "round-trips structurally" true (r = repro)));
  (* An overload schedule as [generate] writes it round-trips too; one
     carrying plans the overload drill would ignore is refused, both as
     a document and as a record. *)
  let s = Tp.Explorer.generate ~seed:42 ~index:15 in
  let overload =
    { Tp.Explorer.rp_kind = s.Tp.Explorer.s_kind; rp_seed = s.Tp.Explorer.s_seed;
      rp_defenses = true; rp_plan = s.Tp.Explorer.s_plan; rp_recovery = s.Tp.Explorer.s_recovery }
  in
  let reparse r = Tp.Explorer.repro_of_json (Tp.Explorer.repro_to_json r) in
  check_bool "generated overload repro round-trips" true (reparse overload = Ok overload);
  let extra = [ Tp.Faultplan.at (Time.ms 1) (Tp.Faultplan.Kill_primary Tp.Faultplan.Tmf) ] in
  check_bool "overload repro with a recovery plan refused" true
    (Result.is_error (reparse { overload with rp_recovery = extra }));
  check_bool "overload repro with an extra fault refused at replay" true
    (Result.is_error (Tp.Explorer.replay { overload with rp_plan = overload.rp_plan @ extra }));
  (* Unknown schema and bad action errors are named. *)
  (match Tp.Explorer.repro_of_json (Json.Obj [ ("schema", Json.String "nope") ]) with
  | Ok _ -> Alcotest.fail "bad schema accepted"
  | Error e -> check_bool "names the schema" true (contains e "nope"));
  match
    Tp.Explorer.repro_of_json
      (Json.Obj
         [
           ("schema", Json.String "odsbench-repro");
           ("kind", Json.String "warp");
           ("seed", Json.String "0x1");
           ("defenses", Json.Bool true);
           ("plan", Json.List []);
           ("recovery_plan", Json.List []);
         ])
  with
  | Ok _ -> Alcotest.fail "bad kind accepted"
  | Error e -> check_bool "names the kind" true (contains e "warp")

(* --- End to end: a tiny defended exploration is clean, and a repro
   replays deterministically --- *)

let test_small_defended_run () =
  let r = Tp.Explorer.run ~budget:3 ~seed:11 () in
  check_int "every schedule ran" 3 (List.length r.Tp.Explorer.x_schedules);
  check_bool "defended corpus is violation-free" false (Tp.Explorer.found r);
  check_bool "coverage recorded" true (r.Tp.Explorer.x_coverage <> []);
  check_bool "drill count at least budget" true (r.Tp.Explorer.x_drills >= 3);
  match Tp.Explorer.to_json r with
  | Json.Obj fields ->
      check_bool "pass flag set" true
        (List.assoc_opt "pass" fields = Some (Json.Bool true))
  | _ -> Alcotest.fail "explorer report is not an object"

let test_replay_deterministic () =
  (* Same repro, two replays: identical committed/acked/fault streams. *)
  let s = Tp.Explorer.generate ~seed:11 ~index:0 in
  let repro =
    {
      Tp.Explorer.rp_kind = s.Tp.Explorer.s_kind;
      rp_seed = s.Tp.Explorer.s_seed;
      rp_defenses = true;
      rp_plan = s.Tp.Explorer.s_plan;
      rp_recovery = s.Tp.Explorer.s_recovery;
    }
  in
  let run () =
    match Tp.Explorer.replay repro with
    | Ok (Tp.Explorer.Single rep) ->
        ( rep.Tp.Drill.committed,
          rep.Tp.Drill.acked_rows,
          rep.Tp.Drill.elapsed,
          List.map snd rep.Tp.Drill.faults )
    | Ok _ -> Alcotest.fail "pm repro replayed on the wrong platform"
    | Error e -> Alcotest.fail ("replay refused: " ^ e)
  in
  let a = run () and b = run () in
  check_bool "bit-identical replay" true (a = b)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_same_seed_identical_corpus;
      prop_disk_schedules_have_no_pm_actions;
      prop_schedules_sorted_and_in_horizon;
      prop_shrinker_minimizes;
    ]

let suite =
  [
    ( "explorer.faultplan_json",
      [
        Alcotest.test_case "every action round-trips" `Quick test_plan_json_roundtrip;
        Alcotest.test_case "errors name index and kinds" `Quick test_plan_json_errors;
      ] );
    ( "explorer.horizon",
      [
        Alcotest.test_case "validate rejects past-horizon events" `Quick
          test_validate_horizon;
        Alcotest.test_case "drill refuses a past-horizon plan" `Quick
          test_drill_run_horizon;
      ] );
    ( "explorer.oracle",
      [ Alcotest.test_case "verdict mechanics" `Quick test_oracle_verdicts ] );
    ( "explorer.generator",
      [
        Alcotest.test_case "schedules pass mode validation" `Quick
          test_generated_schedules_validate;
        Alcotest.test_case "coverage counts every event once" `Quick
          test_coverage_accounting;
      ] );
    ( "explorer.shrinker",
      [
        Alcotest.test_case "windows tighten to the floor" `Quick
          test_shrinker_tightens_windows;
        Alcotest.test_case "replay budget respected" `Quick test_shrinker_respects_budget;
      ] );
    ( "explorer.repro",
      [
        Alcotest.test_case "document round-trips" `Quick test_repro_roundtrip;
        Alcotest.test_case "replay is deterministic" `Slow test_replay_deterministic;
      ] );
    ( "explorer.run",
      [ Alcotest.test_case "small defended run is clean" `Slow test_small_defended_run ] );
    ("explorer.properties", qcheck_cases);
  ]

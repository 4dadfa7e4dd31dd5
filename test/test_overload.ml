(* Overload robustness: retry-budget and admission arithmetic
   properties, faultplan scoping of the flash-crowd marker, and the
   end-to-end metastable-failure drill with its negative control. *)

open Simkit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Retry-budget token bucket: pure invariants --- *)

(* An op sequence drives the bucket; [true] spends, [false] credits. *)
let ops_arb = QCheck.(list_of_size Gen.(int_bound 200) bool)

let prop_budget_bounded =
  QCheck.Test.make ~name:"retry budget tokens stay in [0, capacity]" ~count:200
    QCheck.(triple (float_range 0.0 20.0) (float_range 0.0 2.0) ops_arb)
    (fun (capacity, refill, ops) ->
      let b = Retry_budget.create ~capacity ~refill () in
      List.for_all
        (fun spend ->
          if spend then ignore (Retry_budget.try_spend b) else Retry_budget.success b;
          Retry_budget.tokens b >= 0.0 && Retry_budget.tokens b <= Retry_budget.capacity b)
        ops)

let prop_budget_refill_monotone =
  QCheck.Test.make ~name:"retry budget refill never decreases tokens" ~count:200
    QCheck.(pair (float_range 0.0 20.0) ops_arb)
    (fun (capacity, ops) ->
      let b = Retry_budget.create ~capacity ~refill:0.25 () in
      List.iter
        (fun spend ->
          if spend then ignore (Retry_budget.try_spend b) else Retry_budget.success b)
        ops;
      let before = Retry_budget.tokens b in
      Retry_budget.success b;
      Retry_budget.tokens b >= before)

let prop_budget_exhaustion_denies =
  QCheck.Test.make ~name:"exhausted retry budget denies the spend" ~count:100
    QCheck.(int_range 0 30)
    (fun spends ->
      let b = Retry_budget.create ~capacity:5.0 ~refill:0.0 () in
      for _ = 1 to spends do
        ignore (Retry_budget.try_spend b)
      done;
      (* With no refill, at most [capacity] spends can ever succeed. *)
      Retry_budget.spent b <= 5 && Retry_budget.denied b = max 0 (spends - 5))

(* --- Admission arithmetic: never admit the already-expired --- *)

let prop_admits_never_expired =
  QCheck.Test.make ~name:"admission never admits an expired deadline" ~count:500
    QCheck.(triple (pair (int_bound 1_000_000) (int_range 1 1_000_000))
              (int_bound 64) (float_range 0.0 1e6))
    (fun ((deadline, past), queue, svc_ewma_ns) ->
      let deadline = deadline + 1 (* strictly positive: client opted in *) in
      let now = deadline + past - 1 (* now >= deadline *) in
      match Tp.Tmf.admits ~now ~deadline ~queue ~svc_ewma_ns with
      | `Expired -> true
      | `Admit | `Reject -> false)

let prop_admits_respects_wait_estimate =
  QCheck.Test.make ~name:"admission rejects when estimated wait overshoots" ~count:500
    QCheck.(quad (int_range 1 1_000_000) (int_range 1 1_000_000) (int_bound 64)
              (float_range 0.0 1e6))
    (fun (now, slack, queue, svc_ewma_ns) ->
      let deadline = now + slack in
      match Tp.Tmf.admits ~now ~deadline ~queue ~svc_ewma_ns with
      | `Expired -> false (* now < deadline: cannot be expired *)
      | `Admit -> float_of_int now +. (float_of_int queue *. svc_ewma_ns)
                  < float_of_int deadline
      | `Reject -> float_of_int now +. (float_of_int queue *. svc_ewma_ns)
                   >= float_of_int deadline)

(* --- Faultplan scoping of the flash-crowd marker --- *)

let test_flash_crowd_overload_only () =
  let sim = Sim.create ~seed:0x11L () in
  Test_util.run_in sim (fun () ->
      let system = Tp.System.build sim Tp.System.pm_config in
      let crowd = Tp.Faultplan.Flash_crowd { spike = 5.0; spike_for = Time.ms 400 } in
      let plan = [ Tp.Faultplan.at (Time.ms 1) crowd ] in
      (match Tp.Faultplan.validate system plan with
      | Ok () -> Alcotest.fail "flash_crowd accepted outside the overload drill"
      | Error e ->
          (* The rejection must steer to --plan overload and list the
             valid plan names, exactly as --list-plans would print them. *)
          check_bool "error names the overload plan" true (contains e "overload");
          List.iter
            (fun name ->
              check_bool (Printf.sprintf "error lists plan '%s'" name) true
                (contains e name))
            (Tp.Drill.plan_names (`Single Tp.System.Pm_audit)));
      (match Tp.Faultplan.validate_overload system plan with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("overload scope rejected the marker: " ^ e));
      (match
         Tp.Faultplan.validate_overload system
           [ Tp.Faultplan.at (Time.ms 1)
               (Tp.Faultplan.Flash_crowd { spike = 0.5; spike_for = Time.ms 400 }) ]
       with
      | Ok () -> Alcotest.fail "sub-1x spike accepted"
      | Error _ -> ());
      match
        Tp.Faultplan.validate_overload system
          [ Tp.Faultplan.at (Time.ms 1)
              (Tp.Faultplan.Flash_crowd { spike = 5.0; spike_for = 0 }) ]
      with
      | Ok () -> Alcotest.fail "zero-length spike accepted"
      | Error _ -> ())

let test_overload_plan_validates () =
  let sim = Sim.create ~seed:0x12L () in
  Test_util.run_in sim (fun () ->
      let spec = Test_util.drill_spec Tp.Drill.Overload in
      let system = Tp.System.build sim spec.Tp.Drill.config in
      match Tp.Faultplan.validate_overload system spec.Tp.Drill.plan with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("overload plan rejected: " ^ e))

(* --- The end-to-end drill --- *)

let overload ?seed ?(defenses = true) ?flight () =
  let spec = Test_util.drill_spec ~defenses Tp.Drill.Overload in
  let seed = Option.value seed ~default:spec.Tp.Drill.seed in
  Tp.Drill.exec ?flight { spec with Tp.Drill.seed }

let run_drill ?seed ?defenses () =
  match overload ?seed ?defenses () with
  | Ok ({ Tp.Drill.overload = Some v; _ } as r) -> (r, v)
  | Ok _ -> Alcotest.fail "overload drill reported no overload section"
  | Error e -> Alcotest.fail ("overload drill failed to run: " ^ e)

let passes r = Tp.Drill.Oracle.pass (Tp.Drill.Oracle.of_report r)

(* Recovery after the storm leaves nothing behind, defended or not: the
   oracle judges the drain like every other drill family's. *)
let check_drained r =
  let checks = (Tp.Drill.Oracle.of_report r).Tp.Drill.Oracle.checks in
  List.iter
    (fun name ->
      match List.find_opt (fun c -> c.Tp.Drill.Oracle.ck_name = name) checks with
      | Some c -> check_bool name true c.Tp.Drill.Oracle.ck_ok
      | None -> Alcotest.fail ("oracle lacks " ^ name))
    [ "in_doubt_drained"; "no_orphaned_locks"; "no_fence_failures" ]

let test_overload_drill_defended () =
  let r, v = run_drill () in
  check_int "zero acked rows lost" 0 r.Tp.Drill.lost_rows;
  check_drained r;
  check_bool "admission actually fired" true (v.Tp.Drill.v_rejected > 0);
  check_bool "spike goodput above the floor" true
    (v.Tp.Drill.v_spike_goodput
    >= v.Tp.Drill.v_spike_floor *. v.Tp.Drill.v_warmup_goodput);
  (match v.Tp.Drill.v_recovery_time with
  | Some t -> check_bool "recovery within the bound" true (t <= v.Tp.Drill.v_recovery_limit)
  | None -> Alcotest.fail "defended run never recovered");
  check_bool "gate bundle" true (passes r);
  (* Bit-determinism: the same seed replays to the same report,
     including the whole goodput-over-time series. *)
  let r2, v2 = run_drill () in
  check_int "same arrivals" v.Tp.Drill.v_arrivals v2.Tp.Drill.v_arrivals;
  check_int "same commits" r.Tp.Drill.committed r2.Tp.Drill.committed;
  check_int "same rejections" v.Tp.Drill.v_rejected v2.Tp.Drill.v_rejected;
  check_int "same timeouts" v.Tp.Drill.v_timeouts v2.Tp.Drill.v_timeouts;
  check_bool "same goodput series" true (v.Tp.Drill.v_goodput = v2.Tp.Drill.v_goodput);
  check_bool "same recovery time" true
    (v.Tp.Drill.v_recovery_time = v2.Tp.Drill.v_recovery_time)

let test_overload_drill_negative_control () =
  let r, v = run_drill ~defenses:false () in
  check_bool "gate fails undefended" false (passes r);
  check_bool "stayed collapsed under base load" true
    (v.Tp.Drill.v_recovery_time = None);
  check_int "nothing was rejected (no admission)" 0 v.Tp.Drill.v_rejected;
  check_bool "the storm showed up as timeouts" true (v.Tp.Drill.v_timeouts > 0);
  (* Rejected is backpressure, lost is betrayal: even collapsed, every
     acknowledged row must survive the crash. *)
  check_int "still zero acked rows lost" 0 r.Tp.Drill.lost_rows;
  check_drained r

let test_overload_drill_second_seed () =
  let seed = 0xBEEF1L in
  check_bool "defended passes on a second seed" true (passes (fst (run_drill ~seed ())));
  check_bool "negative control fails on a second seed" false
    (passes (fst (run_drill ~seed ~defenses:false ())))

(* CI's negative control finds the dump by its gate mark: exactly one,
   labelled by the family and stamped with the simulated clock at
   judgement, after every fault. *)
let test_overload_negative_control_flight_mark () =
  let path = Filename.temp_file "flight-overload" ".json" in
  let r =
    match overload ~defenses:false ~flight:path () with
    | Error e -> Alcotest.fail ("overload drill failed to run: " ^ e)
    | Ok r -> r
  in
  let marks = Test_util.flight_gate_marks path in
  Sys.remove path;
  check_int "one gate mark" 1 (List.length marks);
  let time, label = List.hd marks in
  check_bool "labelled by the overload family" true
    (String.starts_with ~prefix:"overload gate failed: " label);
  check_bool "stamped with the simulated clock" true (time > 0);
  check_bool "after every fault" true
    (List.for_all (fun (t, _) -> time >= t) r.Tp.Drill.faults)

let suite =
  [
    ( "overload.budget",
      [
        QCheck_alcotest.to_alcotest prop_budget_bounded;
        QCheck_alcotest.to_alcotest prop_budget_refill_monotone;
        QCheck_alcotest.to_alcotest prop_budget_exhaustion_denies;
      ] );
    ( "overload.admission",
      [
        QCheck_alcotest.to_alcotest prop_admits_never_expired;
        QCheck_alcotest.to_alcotest prop_admits_respects_wait_estimate;
      ] );
    ( "overload.faultplan",
      [
        Alcotest.test_case "flash crowd is overload-drill-only" `Quick
          test_flash_crowd_overload_only;
        Alcotest.test_case "overload plan validates in scope" `Quick
          test_overload_plan_validates;
      ] );
    ( "overload.drill",
      [
        Alcotest.test_case "defended drill passes and replays" `Slow
          test_overload_drill_defended;
        Alcotest.test_case "negative control stays collapsed" `Slow
          test_overload_drill_negative_control;
        Alcotest.test_case "second seed" `Slow test_overload_drill_second_seed;
        Alcotest.test_case "negative control dumps one gate mark" `Slow
          test_overload_negative_control_flight_mark;
      ] );
  ]

(* The four workloads.  A rep is a list of units — a hot-stock run, an
   open-loop step, a drill — each in a simulation of its own.  A unit
   reports its counts, the wall time of its measured part, and its
   sim-time results, which are exact functions of the seed and must
   repeat bit for bit across reps and under tracing. *)

open Simkit

let now = Unix.gettimeofday

type size = Full | Quick

(* Instruments of a traced rep; absent in the reps end-to-end metrics
   come from. *)
type tracer = { obs : Obs.t; cp : Critpath.t; prof : Prof.t }

let tracer () =
  let obs = Obs.create () in
  Span.enable (Obs.spans obs);
  let cp = Critpath.create () in
  Critpath.attach cp (Obs.spans obs);
  { obs; cp; prof = Prof.create () }

(* Layer counters read from the public System/Recovery accessors after a
   rep, summed over every system the rep built. *)
type evidence = {
  mutable txns : int;  (** committed: the per-txn denominator *)
  mutable user_bytes : int;
  mutable audit_bytes : int;
  mutable ckpt_bytes : int;
  mutable flushes : int;  (** trail flushes, data ADPs and the MAT *)
  mutable lock_conflicts : int;
  mutable pm_write_retries : int;
  mutable pm_read_repairs : int;
  mutable rec_bytes : int;
  mutable rec_records : int;
  mutable ack_ns : float;  (** summed commit latency of [txns] *)
}

let evidence () =
  {
    txns = 0;
    user_bytes = 0;
    audit_bytes = 0;
    ckpt_bytes = 0;
    flushes = 0;
    lock_conflicts = 0;
    pm_write_retries = 0;
    pm_read_repairs = 0;
    rec_bytes = 0;
    rec_records = 0;
    ack_ns = 0.;
  }

let harvest ev system =
  let flushes a = Tp.Adp.flushes_performed a in
  ev.audit_bytes <- ev.audit_bytes + Tp.System.total_audit_bytes system;
  ev.ckpt_bytes <- ev.ckpt_bytes + Tp.System.checkpoint_message_bytes system;
  ev.flushes <-
    ev.flushes
    + Array.fold_left (fun n a -> n + flushes a) 0 (Tp.System.adps system)
    + flushes (Tp.System.mat system);
  ev.lock_conflicts <- ev.lock_conflicts + Tp.Lockmgr.conflicts (Tp.System.locks system);
  ev.pm_write_retries <- ev.pm_write_retries + Tp.System.pm_write_retries system;
  ev.pm_read_repairs <- ev.pm_read_repairs + Tp.System.pm_read_repairs system

let harvest_recovery ev (r : Tp.Recovery.report) =
  ev.rec_bytes <- ev.rec_bytes + r.Tp.Recovery.bytes_scanned;
  ev.rec_records <- ev.rec_records + r.Tp.Recovery.records_replayed

type outcome = {
  wall_s : float;
      (** from the end of the unit's System.build to quiescence; a drill
          builds inside [Drill.run], so its builds are included *)
  attempted : int;
  failed : int;  (** failed or rejected transactions; violating drills *)
  sim : (string * float) list;  (** sim-time results: exact per seed *)
  label : string;  (** one line for the text report *)
  errors : string list;  (** failed correctness checks *)
}

let ms span = Time.to_ms span

let check errors cond msg = if not cond then errors := msg :: !errors

let obs_of = Option.map (fun t -> t.obs)

(* Run [main] as the one process of a fresh simulation, with the
   tracer's profiler installed on it.  Returns the wall seconds from
   [main]'s call of [built] (the end of its System.build) to quiescence. *)
let simulate ~seed tracer main =
  let sim = Sim.create ~seed:(Int64.of_int seed) () in
  Option.iter (fun t -> Prof.install t.prof sim) tracer;
  let built_at = ref nan in
  let built () = built_at := now () in
  let (_ : Sim.pid) = Sim.spawn sim ~name:"bench-main" (fun () -> main sim built) in
  Sim.run sim;
  Option.iter (fun t -> Prof.uninstall t.prof) tracer;
  now () -. !built_at

let build ?parent tracer sim cfg =
  Trace_log.with_span ?parent "System.build" (fun _ -> Tp.System.build ?obs:(obs_of tracer) sim cfg)

(* Crash (every DP2 loses its in-memory image) and recover; count the
   acknowledged rows recovery failed to bring back. *)
let crash_and_recover ?parent system ~acked errors =
  Array.iter (fun d -> Tp.Dp2.load_table d []) (Tp.System.dp2s system);
  match Trace_log.with_span ?parent "Recovery.run" (fun _ -> Tp.Recovery.run system) with
  | Error e ->
      check errors false ("recovery failed: " ^ e);
      None
  | Ok r ->
      let routing = Tp.System.routing system and dp2s = Tp.System.dp2s system in
      let lost =
        List.length
          (List.filter
             (fun (file, key) ->
               Tp.Dp2.lookup_direct dp2s.(routing.Tp.Txclient.dp2_of ~file ~key) ~file ~key = None)
             acked)
      in
      check errors (lost = 0) (Printf.sprintf "%d acknowledged rows lost in recovery" lost);
      check errors
        (r.Tp.Recovery.rows_rebuilt = List.length acked)
        (Printf.sprintf "recovery rebuilt %d rows, %d were acknowledged" r.Tp.Recovery.rows_rebuilt
           (List.length acked));
      Some r

(* --- hotstock-pm / hotstock-disk ---

   The paper's §4.3 closed loop, as [Workloads.Hot_stock.run] drives it:
   each driver boxcars [hot_boxcar] 4 KiB inserts per transaction and
   waits for the commit before the next.  Nothing on the PM commit path
   draws a random number, so hotstock-pm's simulated times are the same
   for every seed; on disk the seed draws the rotational delays. *)

let hot_drivers = 2

let hot_boxcar = 8

let hot_params size =
  Workloads.Hot_stock.scaled_params ~drivers:hot_drivers ~inserts_per_txn:hot_boxcar
    ~records_per_driver:(match size with Full -> 12_000 | Quick -> 200)

(* The (file, key) rows a completed [Hot_stock.run] acknowledged: its
   per-driver key bases, per-transaction key shift and file rotation. *)
let hot_rows (p : Workloads.Hot_stock.params) ~files =
  List.concat
    (List.init p.drivers (fun d ->
         List.init p.records_per_driver (fun idx ->
             (idx mod files, ((d + 1) * 100_000_000) + idx + (idx / p.inserts_per_txn)))))

let hotstock cfg size ~seed tracer ev =
  let p = hot_params size in
  let result = ref None and errors = ref [] and mttr = ref nan in
  let wall =
    Trace_log.with_span "hotstock" (fun root ->
        simulate ~seed tracer (fun sim built ->
            let system = build ~parent:root tracer sim cfg in
            built ();
            let r =
              Trace_log.with_span ~parent:root "Hot_stock.run" (fun _ ->
                  Workloads.Hot_stock.run system p)
            in
            result := Some r;
            let files = (Tp.System.config system).Tp.System.files in
            match crash_and_recover ~parent:root system ~acked:(hot_rows p ~files) errors with
            | Some rr ->
                mttr := ms rr.Tp.Recovery.mttr;
                harvest ev system;
                harvest_recovery ev rr
            | None -> ()))
  in
  let r = Option.get !result in
  let open Workloads.Hot_stock in
  let txns = hot_drivers * ((p.records_per_driver + hot_boxcar - 1) / hot_boxcar) in
  check errors (r.committed = txns) (Printf.sprintf "committed %d of %d transactions" r.committed txns);
  ev.txns <- ev.txns + r.committed;
  ev.user_bytes <- ev.user_bytes + (p.drivers * p.records_per_driver * p.record_bytes);
  ev.ack_ns <- ev.ack_ns +. (r.response.Stat.mean *. float_of_int r.response.Stat.n);
  let p50 = r.response.Stat.p50 /. 1e6 and p99 = r.response.Stat.p99 /. 1e6 in
  {
    wall_s = wall;
    attempted = txns;
    failed = txns - r.committed;
    sim =
      [
        ("commit_p50_ms", p50);
        ("commit_p99_ms", p99);
        ("sim_tps", r.throughput_tps);
        ("mttr_ms", !mttr);
      ];
    label =
      Printf.sprintf "%d txns, p50 %.3f ms, p99 %.3f ms, mttr %.3f ms" r.committed p50 p99 !mttr;
    errors = !errors;
  }

(* --- open-pm ---

   Independent users arriving Poisson: one worker per arrival over a
   session pool, so the offered load never waits for the system, and
   latency runs from the arrival's due time.  A ladder of rates, each on
   a fresh system, finds the rate at which p99 reaches the SLO; the
   reporting rate's step also crashes and recovers.

   Every rate replays one fixed unit-rate Poisson trace, compressed to
   that rate.  With a trace drawn from the seed, p99 at 300 tps moved by
   a third between seeds — its dozen samples beyond p99 are whichever
   burst the trace happened to hold — which no usable regression bound
   survives.  The seed seeds the simulation, which the PM path never
   draws from, so the simulated results are the same for every seed. *)

let open_rates = function
  | Full -> [ 150.; 200.; 250.; 300.; 350.; 400. ]
  | Quick -> [ 150.; 300. ]

let open_report_rate = 300.

let open_arrivals = function Full -> 1_300 | Quick -> 120

let open_warmup = function Full -> 100 | Quick -> 20

let open_sessions = 16

let slo_p99_ms = 25.

let slo_drain_ms = 100.

let open_trace = 0x7EA5EL

let open_record_bytes = 4_096

(* One arrival's transaction: begin, [boxcar] async inserts, commit.
   The acknowledged rows go to [acked]. *)
let open_txn ~parent session ~files ~keys acked =
  match Trace_log.with_span ~parent "begin_txn" (fun _ -> Tp.Txclient.begin_txn session) with
  | Error e -> Error e
  | Ok t -> (
      let rows = List.mapi (fun i key -> (i mod files, key)) keys in
      List.iter
        (fun (file, key) -> Tp.Txclient.insert_async session t ~file ~key ~len:open_record_bytes ())
        rows;
      match Trace_log.with_span ~parent "commit" (fun _ -> Tp.Txclient.commit session t) with
      | Error e -> Error e
      | Ok () ->
          acked := List.rev_append rows !acked;
          Ok ())

let open_step size ~rate ~seed tracer ev =
  let boxcar = 8 in
  let recover = rate = open_report_rate and warmup = open_warmup size in
  let all = Stat.create () and lat = Stat.create () in
  let committed = ref 0 and refused = ref 0 and arrived = ref 0 and acked = ref [] in
  let errors = ref [] and mttr = ref nan in
  let last_due = ref 0 and last_done = ref 0 in
  let wall =
    Trace_log.with_span (Printf.sprintf "open@%.0f" rate) (fun root ->
        simulate ~seed tracer (fun sim built ->
            let system = build ~parent:root tracer sim Tp.System.pm_config in
            built ();
            let cfg = Tp.System.config system in
            let cpus = cfg.Tp.System.worker_cpus and files = cfg.Tp.System.files in
            let pool =
              Array.init open_sessions (fun i -> Tp.System.session system ~cpu:(i mod cpus))
            in
            let outstanding = ref 0 and generated = ref false and drained = Ivar.create () in
            (* The generator is never late: a spawned worker starts at its
               due time.  Were that to change, latency from the due time
               would include the lag, and this check says so. *)
            let worker index due () =
              if Sim.now sim <> due then
                errors :=
                  Printf.sprintf "arrival %d started %d ns after it was due" index (Sim.now sim - due)
                  :: !errors;
              let keys = List.init boxcar (fun i -> 900_000_000 + (index * (boxcar + 1)) + i) in
              (match open_txn ~parent:root pool.(index mod open_sessions) ~files ~keys acked with
              | Ok () ->
                  incr committed;
                  ev.user_bytes <- ev.user_bytes + (boxcar * open_record_bytes);
                  let l = Sim.now sim - due in
                  Stat.add_span all l;
                  if index >= warmup then Stat.add_span lat l
              | Error _ -> incr refused);
              decr outstanding;
              last_done := Sim.now sim;
              if !generated && !outstanding = 0 then Ivar.fill drained ()
            in
            let rng = Rng.create open_trace in
            let duration = Time.sec_f (float_of_int (open_arrivals size) /. rate) in
            arrived :=
              Arrival.run ~rng (Arrival.constant ~rate ~duration ()) ~f:(fun index ->
                  let due = Sim.now sim in
                  last_due := due;
                  incr outstanding;
                  ignore
                    (Nsk.Cpu.spawn
                       (Nsk.Node.cpu (Tp.System.node system) (index mod cpus))
                       ~name:"arrival" (worker index due)));
            generated := true;
            if !outstanding > 0 then Ivar.read drained;
            if recover then
              match crash_and_recover ~parent:root system ~acked:!acked errors with
              | Some r ->
                  mttr := ms r.Tp.Recovery.mttr;
                  harvest ev system;
                  harvest_recovery ev r
              | None -> ()))
  in
  check errors
    (!committed + !refused = !arrived)
    (Printf.sprintf "@%.0f tps: %d committed + %d refused <> %d arrivals" rate !committed !refused
       !arrived);
  (if size = Full then
     let n = Stat.count lat in
     check errors (n >= 1_000) (Printf.sprintf "@%.0f tps: only %d latency samples" rate n));
  ev.txns <- ev.txns + !committed;
  ev.ack_ns <- ev.ack_ns +. Stat.total all;
  let p50 = Stat.percentile lat 0.5 /. 1e6 and p99 = Stat.percentile lat 0.99 /. 1e6 in
  let drain = ms (!last_done - !last_due) in
  let slo_met = !refused = 0 && p99 <= slo_p99_ms && drain <= slo_drain_ms in
  {
    wall_s = wall;
    attempted = !arrived;
    failed = !refused;
    sim =
      [
        ("rate", rate);
        ("commit_p50_ms", p50);
        ("commit_p99_ms", p99);
        ("drain_ms", drain);
        ("refused", float_of_int !refused);
        ("slo_met", if slo_met then 1. else 0.);
      ]
      @ if recover then [ ("mttr_ms", !mttr) ] else [];
    label =
      Printf.sprintf "@%3.0f tps: %4d arrivals, p50 %7.3f ms, p99 %8.3f ms, drain %8.3f ms%s" rate
        !arrived p50 p99 drain
        (if slo_met then "" else "  (misses the SLO)");
    errors = !errors;
  }

(* The reporting step's latencies and recovery.  [sim_tps] is the
   highest rate meeting the SLO.  When the first failing step misses it
   on p99 alone, the rate is interpolated on p99 between that step and
   the last passing one, so it moves smoothly with the latencies instead
   of jumping a whole step; otherwise it is the last passing rate. *)
let open_summary steps =
  let get key o = List.assoc key o.sim in
  let p99 = get "commit_p99_ms" in
  let report = List.find (fun o -> get "rate" o = open_report_rate) steps in
  let misses_on_p99_alone o =
    get "refused" o = 0. && get "drain_ms" o <= slo_drain_ms && p99 o > slo_p99_ms
  in
  let rec slo_rate passed = function
    | o :: rest when get "slo_met" o = 1. -> slo_rate (Some o) rest
    | o :: _ when misses_on_p99_alone o -> (
        match passed with
        | Some p ->
            get "rate" p
            +. ((get "rate" o -. get "rate" p) *. (slo_p99_ms -. p99 p) /. (p99 o -. p99 p))
        | None -> 0.)
    | _ -> ( match passed with Some p -> get "rate" p | None -> 0.)
  in
  [
    ("commit_p50_ms", get "commit_p50_ms" report);
    ("commit_p99_ms", get "commit_p99_ms" report);
    ("sim_tps", slo_rate None steps);
    ("mttr_ms", get "mttr_ms" report);
  ]

(* --- explore-pm ---

   Fault-schedule drills as the explorer runs them, under its oracle.  The
   schedules are fixed — the first PM-kind ones of the CI corpus — and the
   seed reseeds each drill's simulation, so every run replays the same
   faults and the wall time does not swing with which faults a corpus
   happened to draw. *)

let explore_corpus = 42

let explore_drills = function Full -> 6 | Quick -> 1

let explore_schedules size =
  let rec go index acc =
    if List.length acc = explore_drills size then List.rev acc
    else
      let s = Tp.Explorer.generate ~seed:explore_corpus ~index in
      go (index + 1) (if s.Tp.Explorer.s_kind = Tp.Explorer.Pm then s :: acc else acc)
  in
  go 0 []

(* The explorer's PM drill parameters ([Explorer.pm_params], not
   exported).  A traced drill runs [Drill.run] with them so it can attach
   the tracer; it must reproduce the untraced [Explorer.replay] results
   exactly, which fails loudly if the two ever drift apart. *)
let explorer_pm_params =
  {
    Tp.Drill.drivers = 2;
    records_per_driver = 48;
    record_bytes = 2_048;
    inserts_per_txn = 4;
    settle = Time.ms 900;
    begin_retries = 8;
  }

let drill (s : Tp.Explorer.schedule) ~seed tracer ev =
  let index = s.Tp.Explorer.s_index in
  (* The schedule's own seed, moved by the benchmark seed. *)
  let rp_seed =
    Int64.logxor s.Tp.Explorer.s_seed (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L)
  in
  let errors = ref [] in
  let t0 = now () in
  let result =
    Trace_log.with_span (Printf.sprintf "Drill.run %d" index) (fun _ ->
        match tracer with
        | None -> (
            match
              Tp.Explorer.replay
                {
                  Tp.Explorer.rp_kind = Tp.Explorer.Pm;
                  rp_seed;
                  rp_defenses = true;
                  rp_plan = s.Tp.Explorer.s_plan;
                  rp_recovery = s.Tp.Explorer.s_recovery;
                }
            with
            | Ok (Tp.Explorer.Single r) -> Ok r
            | Ok _ -> Error "replay returned a non-PM report"
            | Error e -> Error e)
        | Some t ->
            Tp.Drill.run ~seed:rp_seed ~config:Tp.Drill.corruption_config ~obs:t.obs ~prof:t.prof
              ~params:explorer_pm_params ~horizon:Tp.Explorer.horizon
              ~recovery_plan:s.Tp.Explorer.s_recovery ~inspect:(harvest ev)
              ~mode:Tp.System.Pm_audit ~plan:s.Tp.Explorer.s_plan ())
  in
  let wall = now () -. t0 in
  match result with
  | Error e ->
      { wall_s = wall; attempted = 1; failed = 1; sim = []; label = "drill failed: " ^ e;
        errors = [ Printf.sprintf "drill %d: %s" index e ] }
  | Ok r ->
      let pass = Tp.Drill.Oracle.pass (Tp.Drill.Oracle.of_report ~max_outage:Tp.Explorer.max_outage r) in
      check errors pass (Printf.sprintf "drill %d violates the oracle" index);
      let response = r.Tp.Drill.response in
      ev.txns <- ev.txns + r.Tp.Drill.committed;
      ev.user_bytes <- ev.user_bytes + (r.Tp.Drill.acked_rows * explorer_pm_params.Tp.Drill.record_bytes);
      ev.ack_ns <- ev.ack_ns +. (response.Stat.mean *. float_of_int response.Stat.n);
      harvest_recovery ev r.Tp.Drill.recovery;
      let mttr = ms r.Tp.Drill.recovery.Tp.Recovery.mttr in
      {
        wall_s = wall;
        attempted = 1;
        failed = (if pass then 0 else 1);
        sim =
          [
            ("commit_p50_ms", response.Stat.p50 /. 1e6);
            ("commit_p99_ms", response.Stat.p99 /. 1e6);
            ("committed", float_of_int r.Tp.Drill.committed);
            ("elapsed_s", Time.to_sec r.Tp.Drill.elapsed);
            ("mttr_ms", mttr);
          ];
        label =
          Printf.sprintf "drill %2d: %d commits, p50 %.3f ms, p99 %.3f ms, mttr %.3f ms, %s" index
            r.Tp.Drill.committed (response.Stat.p50 /. 1e6) (response.Stat.p99 /. 1e6) mttr
            (if pass then "oracle pass" else "ORACLE FAIL");
        errors = !errors;
      }

(* p50 is the median over the drills and throughput is over their summed
   load phases.  p99 and MTTR are means over the drills.  A drill's p99 of
   24 commits is about its slowest commit, and which drill's ranks third
   changes with the seed: the median of the six moved 5.6% between seeds,
   the mean 0.4%.  Most drills' recoveries do not depend on the seed, so
   a median MTTR would often read one of them exactly. *)
let explore_summary outcomes =
  let drills = List.filter (fun o -> o.sim <> []) outcomes in
  let get key o = List.assoc key o.sim in
  let sum key = List.fold_left (fun acc o -> acc +. get key o) 0. drills in
  let mean key = sum key /. float_of_int (List.length drills) in
  if drills = [] then []
  else
    [
      ("commit_p50_ms", Quantiles.median (List.map (get "commit_p50_ms") drills));
      ("commit_p99_ms", mean "commit_p99_ms");
      ("sim_tps", sum "committed" /. sum "elapsed_s");
      ("mttr_ms", mean "mttr_ms");
    ]

(* --- the table --- *)

type unit_run = seed:int -> tracer option -> evidence -> outcome

type workload = {
  name : string;
  setup_config : Tp.System.config;  (** what setup_s builds *)
  units : size -> unit_run list;  (** one rep, in order *)
  summarize : outcome list -> (string * float) list;
      (** one rep's end-to-end sim metrics from its unit outcomes *)
  traced : size -> unit_run list;  (** what a traced run repeats *)
  check_critpath : bool;
      (** hop sums must equal the mean commit latency: every transaction
          the critical path sees is one the benchmark timed *)
}

let explore_units size = List.map drill (explore_schedules size)

let workloads =
  let hot name cfg =
    let units size = [ hotstock cfg size ] in
    { name; setup_config = cfg; units; summarize = (fun os -> (List.hd os).sim); traced = units;
      check_critpath = true }
  in
  [
    hot "hotstock-pm" Tp.System.pm_config;
    hot "hotstock-disk" Tp.System.default_config;
    {
      name = "open-pm";
      setup_config = Tp.System.pm_config;
      units = (fun size -> List.map (fun rate -> open_step size ~rate) (open_rates size));
      summarize = open_summary;
      traced = (fun size -> [ open_step size ~rate:open_report_rate ]);
      check_critpath = true;
    };
    {
      name = "explore-pm";
      setup_config = Tp.Drill.corruption_config;
      units = explore_units;
      summarize = explore_summary;
      traced = explore_units;
      check_critpath = false;
    };
  ]

(* Wall seconds of [Tp.System.build] of [cfg] in a fresh simulation.  The
   scrubber and health monitor a config may start are stopped afterwards
   so the simulation quiesces. *)
let time_setup cfg =
  Gc.full_major ();
  let sim = Sim.create () in
  let dt = ref nan in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"setup" (fun () ->
        let t0 = now () in
        let system = Tp.System.build sim cfg in
        dt := now () -. t0;
        Option.iter
          (fun p ->
            Pm.Pmm.stop_scrubber p;
            Pm.Pmm.stop_monitor p)
          (Tp.System.pmm system))
  in
  Sim.run sim;
  !dt

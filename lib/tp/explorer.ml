open Simkit

(* Adversarial fault-schedule search.

   The generator composes schedules from a small set of motifs rather
   than drawing raw actions: motifs encode the liveness pairings a
   random draw would violate (a rail that goes down comes back up, a
   degraded component is restored, a power-cycled mirror is resynced),
   so every generated schedule leaves the system able to finish its
   load and recovery — the only invariants allowed to fail are the
   oracle's, not the harness's.  Everything is derived from (seed,
   index) through one splitmix stream, so a corpus is a pure function
   of its seed and any violating schedule replays bit-for-bit. *)

type kind = Pm | Disk | Cluster | Overload

let kind_name = function
  | Pm -> "pm"
  | Disk -> "disk"
  | Cluster -> "cluster"
  | Overload -> "overload"

let kind_of_name = function
  | "pm" -> Some Pm
  | "disk" -> Some Disk
  | "cluster" -> Some Cluster
  | "overload" -> Some Overload
  | _ -> None

type schedule = {
  s_index : int;
  s_seed : int64;  (* the drill's simulation seed *)
  s_kind : kind;
  s_plan : Faultplan.t;  (* load-phase schedule *)
  s_recovery : Faultplan.t;  (* offsets relative to recovery start *)
}

(* --- Drill sizing ---

   Small loads keep one schedule in the hundreds of milliseconds of
   wall clock, so a 200-schedule corpus fits a CI smoke budget.  The
   PM-mode load window is ~40 ms of simulated time at this size; load
   motifs aim inside it. *)

let pm_params =
  {
    Drill.drivers = 2;
    records_per_driver = 48;
    record_bytes = 2_048;
    inserts_per_txn = 4;
    (* Long enough for the scrubber to converge on a chunk corrupted
       while it was still being appended to: the durable checksum
       table is stale for a hot chunk, so the only path is the strike
       machinery — [scrub_quarantine_after] consecutive quiet passes at
       roughly 150 ms per full device sweep. *)
    settle = Time.ms 900;
    begin_retries = 8;
  }

let disk_params = { pm_params with Drill.settle = Time.ms 500 }

let cluster_params = { Drill.cluster_params with Drill.records_per_driver = 32 }

(* Liveness tripwire more than a latency SLO: a schedule that wedges a
   pair headless for this long is a finding even with zero rows lost. *)
let max_outage = Time.sec 30

(* Load plans never reach past this; validation enforces it so a
   mutated or hand-edited repro cannot silently carry dead events. *)
let horizon = Time.sec 2

(* --- Coverage accounting --- *)

let layer_of (action : Faultplan.action) =
  match action with
  | Faultplan.Kill_primary _ -> "process"
  | Npmu_power_cycle _ | Media_decay _ | Torn_write _ | Slow_device _ -> "pm_device"
  | Rail_down _ | Rail_up _ | Crc_noise_burst _ | Slow_rail _ -> "fabric"
  | Slow_disk _ -> "disk"
  | Wan_partition | Wan_heal -> "wan"
  | Pmm_resync | Fence_check | Restore_speed -> "control"
  | Flash_crowd _ -> "load"

(* (fault family, phase, layer) cells with counts, sorted for stable
   output. *)
let coverage schedules =
  let tbl = Hashtbl.create 64 in
  let add phase ev =
    let key =
      (Faultplan.action_name ev.Faultplan.action, phase, layer_of ev.Faultplan.action)
    in
    Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)
  in
  List.iter
    (fun s ->
      List.iter (add "load") s.s_plan;
      List.iter (add "recovery") s.s_recovery)
    schedules;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* --- The generator --- *)

let ms = Time.ms

(* Draw an offset uniformly in [lo, hi). *)
let offset rng lo hi = lo + Rng.uniform_span rng (hi - lo)

(* One load-phase motif: a self-contained burst of 1-3 events that
   leaves the system live.  [budget] tracks per-schedule caps (one rail
   flap, one power-cycle window, one slowdown group) so composed motifs
   cannot stack into a wedge — e.g. both rails down at once. *)
type motif_budget = {
  mutable b_rail_flap : bool;
  mutable b_power : bool;
  mutable b_slow : bool;
  mutable b_resync : bool;
}

let fresh_budget () =
  { b_rail_flap = false; b_power = false; b_slow = false; b_resync = false }

let pm_trails = 4 (* trail regions the small load writes into *)

(* A media fault must land inside a trail's written extent or it only
   corrupts padding.  The small load writes ~40 KiB per trail behind
   each region's header, so low single-digit KiB offsets are always
   inside it. *)
let decay_site rng =
  let trail = Rng.int rng pm_trails in
  let off = Drill.corruption_trail_base trail + 2_048 + Rng.int rng 12_288 in
  (trail, off)

let pm_load_motif rng budget lo hi =
  let pick = Rng.int rng 100 in
  let at t a = Faultplan.at t a in
  if pick < 22 then
    (* process-pair kill *)
    let target =
      match Rng.int rng 4 with
      | 0 -> Faultplan.Adp (Rng.int rng 4)
      | 1 -> Faultplan.Dp2 (Rng.int rng 16)
      | 2 -> Faultplan.Tmf
      | _ -> Faultplan.Pmm
    in
    [ at (offset rng lo hi) (Faultplan.Kill_primary target) ]
  else if pick < 36 && not budget.b_power then begin
    budget.b_power <- true;
    let t = offset rng lo hi in
    let off_for = ms 20 + Rng.uniform_span rng (ms 60) in
    let cycle =
      at t (Faultplan.Npmu_power_cycle { device = Rng.int rng 2; off_for })
    in
    (* Always resync after the cycle: writes during the off window
       degrade to the surviving mirror, and restoring redundancy is an
       operator action, not something recovery does — a cycled-but-
       never-resynced mirror would fail the divergence audit on every
       platform, defended or not.  The resync races the still-running
       load, which is the mid-resync coverage. *)
    budget.b_resync <- true;
    [ cycle; at (t + off_for + ms 2 + Rng.uniform_span rng (ms 6)) Faultplan.Pmm_resync ]
  end
  else if pick < 48 && not budget.b_rail_flap then begin
    budget.b_rail_flap <- true;
    let rail = Rng.int rng 2 in
    let t = offset rng lo hi in
    let flap = ms 8 + Rng.uniform_span rng (ms 30) in
    [ at t (Faultplan.Rail_down rail); at (t + flap) (Faultplan.Rail_up rail) ]
  end
  else if pick < 60 then
    let rate = 0.005 +. Rng.float rng 0.04 in
    let duration = ms 15 + Rng.uniform_span rng (ms 40) in
    [ at (offset rng lo hi) (Faultplan.Crc_noise_burst { rate; duration }) ]
  else if pick < 74 then
    (* silent media decay spanning a whole frame, so an undefended
       replay visibly truncates — the planted-bug family *)
    let device = Rng.int rng 2 in
    let _, off = decay_site rng in
    let bits = 8 * (1_024 + Rng.int rng 3_500) in
    [ at (offset rng lo hi) (Faultplan.Media_decay { device; off; bits }) ]
  else if pick < 82 then
    [ at (offset rng lo hi) (Faultplan.Torn_write { device = Rng.int rng 2 }) ]
  else if pick < 92 && not budget.b_slow then begin
    budget.b_slow <- true;
    let t = offset rng lo hi in
    let hold = ms 20 + Rng.uniform_span rng (ms 60) in
    let slow =
      match Rng.int rng 3 with
      | 0 ->
          Faultplan.Slow_device
            { device = Rng.int rng 2; factor = 20. +. Rng.float rng 180.; jitter = Time.us 200 }
      | 1 -> Faultplan.Slow_rail { rail = Rng.int rng 2; factor = 2. +. Rng.float rng 6. }
      | _ ->
          Faultplan.Slow_disk
            { volume = Rng.int rng 16; factor = 2. +. Rng.float rng 6.; jitter = Time.us 100 }
    in
    [ at t slow; at (t + hold) Faultplan.Restore_speed ]
  end
  else [ at (offset rng lo hi) Faultplan.Fence_check ]

(* Disk-mode motifs: the same families minus everything PM-only. *)
let disk_load_motif rng budget lo hi =
  let pick = Rng.int rng 100 in
  let at t a = Faultplan.at t a in
  if pick < 35 then
    let target =
      match Rng.int rng 3 with
      | 0 -> Faultplan.Adp (Rng.int rng 4)
      | 1 -> Faultplan.Dp2 (Rng.int rng 16)
      | _ -> Faultplan.Tmf
    in
    [ at (offset rng lo hi) (Faultplan.Kill_primary target) ]
  else if pick < 55 && not budget.b_rail_flap then begin
    budget.b_rail_flap <- true;
    let rail = Rng.int rng 2 in
    let t = offset rng lo hi in
    let flap = ms 10 + Rng.uniform_span rng (ms 40) in
    [ at t (Faultplan.Rail_down rail); at (t + flap) (Faultplan.Rail_up rail) ]
  end
  else if pick < 75 then
    let rate = 0.005 +. Rng.float rng 0.04 in
    let duration = ms 20 + Rng.uniform_span rng (ms 60) in
    [ at (offset rng lo hi) (Faultplan.Crc_noise_burst { rate; duration }) ]
  else begin
    let t = offset rng lo hi in
    let hold = ms 30 + Rng.uniform_span rng (ms 60) in
    let slow =
      if Rng.bool rng 0.5 then
        Faultplan.Slow_rail { rail = Rng.int rng 2; factor = 2. +. Rng.float rng 6. }
      else
        Faultplan.Slow_disk
          { volume = Rng.int rng 16; factor = 2. +. Rng.float rng 6.; jitter = Time.us 100 }
    in
    [ at t slow; at (t + hold) Faultplan.Restore_speed ]
  end

(* Cluster motifs: partition pulses timed against the 2PC window, plus
   coordinator-side kills and the fence probe.  Every partition heals. *)
let cluster_load_motif rng budget lo hi =
  let pick = Rng.int rng 100 in
  let at t a = Faultplan.at t a in
  if pick < 45 then
    let t = offset rng lo hi in
    let width = ms 2 + Rng.uniform_span rng (ms 8) in
    [ at t Faultplan.Wan_partition; at (t + width) Faultplan.Wan_heal ]
  else if pick < 70 then
    let target =
      match Rng.int rng 4 with
      | 0 -> Faultplan.Adp (Rng.int rng 4)
      | 1 -> Faultplan.Dp2 (Rng.int rng 16)
      | 2 -> Faultplan.Tmf
      | _ -> Faultplan.Pmm
    in
    [ at (offset rng lo hi) (Faultplan.Kill_primary target) ]
  else if pick < 85 && not budget.b_rail_flap then begin
    budget.b_rail_flap <- true;
    let rail = Rng.int rng 2 in
    let t = offset rng lo hi in
    let flap = ms 3 + Rng.uniform_span rng (ms 8) in
    [ at t (Faultplan.Rail_down rail); at (t + flap) (Faultplan.Rail_up rail) ]
  end
  else [ at (offset rng lo hi) Faultplan.Fence_check ]

(* Recovery-phase motifs: faults that race the replay and the in-doubt
   resolver without decapitating the processes doing the recovering.
   Offsets are relative to the instant recovery starts; MTTR at this
   load size is ~10-20 ms, so single-digit offsets land mid-replay. *)
let recovery_motif ~pm rng budget =
  let pick = Rng.int rng 100 in
  let at t a = Faultplan.at t a in
  let lo = Time.us 100 and hi = ms 8 in
  if pick < 25 && pm then [ at (offset rng lo hi) Faultplan.Fence_check ]
  else if pick < 45 && not budget.b_rail_flap then begin
    budget.b_rail_flap <- true;
    let rail = Rng.int rng 2 in
    let t = offset rng lo hi in
    [ at t (Faultplan.Rail_down rail); at (t + ms 1 + Rng.uniform_span rng (ms 2)) (Faultplan.Rail_up rail) ]
  end
  else if pick < 65 then
    let rate = 0.002 +. Rng.float rng 0.015 in
    [ at (offset rng lo hi) (Faultplan.Crc_noise_burst { rate; duration = ms 3 }) ]
  else if pick < 85 && not budget.b_slow then begin
    budget.b_slow <- true;
    let t = offset rng lo hi in
    let slow =
      match Rng.int rng (if pm then 3 else 2) with
      | 0 -> Faultplan.Slow_rail { rail = Rng.int rng 2; factor = 2. +. Rng.float rng 4. }
      | 1 ->
          Faultplan.Slow_disk
            { volume = Rng.int rng 16; factor = 2. +. Rng.float rng 4.; jitter = Time.us 100 }
      | _ ->
          Faultplan.Slow_device
            { device = Rng.int rng 2; factor = 5. +. Rng.float rng 20.; jitter = Time.us 100 }
    in
    [ at t slow; at (t + ms 4) Faultplan.Restore_speed ]
  end
  else if pm && not budget.b_power then begin
    budget.b_power <- true;
    [
      at (offset rng lo hi)
        (Faultplan.Npmu_power_cycle
           { device = Rng.int rng 2; off_for = ms 1 + Rng.uniform_span rng (ms 2) });
    ]
  end
  else
    let rate = 0.002 +. Rng.float rng 0.01 in
    [ at (offset rng lo hi) (Faultplan.Crc_noise_burst { rate; duration = ms 2 }) ]

let sort_plan plan =
  List.stable_sort (fun a b -> compare a.Faultplan.after b.Faultplan.after) plan

(* Deterministic per-schedule stream: splitmix of the corpus seed and
   the index.  The drill seed is the stream's first draw, so schedule
   [i] replays identically whether it was reached by exploring or by a
   repro file. *)
let schedule_rng ~seed ~index =
  Rng.create
    (Int64.logxor
       (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L)
       (Int64.of_int (seed * 2 + 1)))

let kind_of_index index =
  match index mod 16 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 -> Pm
  | 9 | 10 | 11 -> Disk
  | 12 | 13 -> Cluster
  | _ -> Overload

let generate ~seed ~index =
  let rng = schedule_rng ~seed ~index in
  let s_seed = Rng.int64 rng in
  let s_kind = kind_of_index index in
  match s_kind with
  | Overload ->
      (* The overload drill owns its schedule (the open-loop arrival
         engine); the plan here is the spike marker it will inject.
         Exploration is over the seed: arrival timing, retry phasing. *)
      {
        s_index = index;
        s_seed;
        s_kind;
        s_plan = Drill.overload_plan Drill.overload_params;
        s_recovery = [];
      }
  | _ ->
      let budget = fresh_budget () in
      let lo, hi, motif =
        match s_kind with
        | Pm -> (ms 2, ms 36, pm_load_motif)
        | Disk -> (ms 5, ms 200, disk_load_motif)
        | Cluster -> (ms 2, ms 50, cluster_load_motif)
        | Overload -> assert false
      in
      let n_motifs = 2 + Rng.int rng 4 in
      let plan = ref [] in
      for _ = 1 to n_motifs do
        plan := !plan @ motif rng budget lo hi
      done;
      let rec_budget = fresh_budget () in
      let n_rec = match s_kind with Cluster -> 0 | _ -> Rng.int rng 3 in
      let recovery = ref [] in
      for _ = 1 to n_rec do
        recovery := !recovery @ recovery_motif ~pm:(s_kind = Pm) rng rec_budget
      done;
      {
        s_index = index;
        s_seed;
        s_kind;
        s_plan = sort_plan !plan;
        s_recovery = sort_plan !recovery;
      }

let corpus ~seed ~budget = List.init budget (fun index -> generate ~seed ~index)

let schedule_to_json s =
  Json.Obj
    [
      ("index", Json.Int s.s_index);
      ("kind", Json.String (kind_name s.s_kind));
      ("seed", Json.String (Printf.sprintf "0x%Lx" s.s_seed));
      ("plan", Faultplan.to_json s.s_plan);
      ("recovery_plan", Faultplan.to_json s.s_recovery);
    ]

let corpus_json ~seed ~budget =
  Json.List (List.map schedule_to_json (corpus ~seed ~budget))

(* --- Running one schedule under the oracle --- *)

type verdict_or_error = Verdict of Drill.Oracle.verdict | Harness_error of string

let violates = function
  | Verdict v -> not (Drill.Oracle.pass v)
  | Harness_error _ -> true

let verdict_json = function
  | Verdict v -> Drill.Oracle.to_json v
  | Harness_error e -> Json.Obj [ ("pass", Json.Bool false); ("error", Json.String e) ]

(* --- The shrinker ---

   Delta debugging under deterministic replay: every candidate is the
   same drill at the same seed with a subset of the actions, so [fails]
   is a pure function of the plans.  Greedy single-action drops to a
   fixpoint first (dropping from the load and recovery plans together),
   then window tightening: halve each surviving event's offset and
   duration fields while the violation persists. *)

let plan_len (p, r) = List.length p + List.length r

let drop_nth (p, r) n =
  let np = List.length p in
  if n < np then (List.filteri (fun i _ -> i <> n) p, r)
  else (p, List.filteri (fun i _ -> i <> n - np) r)

let halve_span s = if s <= Time.us 200 then s else s / 2

let tighten_event ev =
  let open Faultplan in
  let action =
    match ev.action with
    | Npmu_power_cycle { device; off_for } ->
        Npmu_power_cycle { device; off_for = halve_span off_for }
    | Crc_noise_burst { rate; duration } ->
        Crc_noise_burst { rate; duration = halve_span duration }
    | Flash_crowd { spike; spike_for } ->
        Flash_crowd { spike; spike_for = halve_span spike_for }
    | a -> a
  in
  { after = halve_span ev.after; action }

let replace_nth (p, r) n ev =
  let np = List.length p in
  if n < np then (List.mapi (fun i e -> if i = n then ev else e) p, r)
  else (p, List.mapi (fun i e -> if i = n - np then ev else e) r)

let nth_event (p, r) n =
  let np = List.length p in
  if n < np then List.nth p n else List.nth r (n - np)

let minimize ?(max_replays = 150) ~fails (p0, r0) =
  let replays = ref 0 in
  let test c =
    if !replays >= max_replays then false
    else begin
      incr replays;
      fails c
    end
  in
  (* Phase 1: greedy drops to fixpoint. *)
  let cur = ref (p0, r0) in
  let progress = ref true in
  while !progress && !replays < max_replays do
    progress := false;
    let n = plan_len !cur in
    let i = ref 0 in
    while !i < n && not !progress do
      let candidate = drop_nth !cur !i in
      if test candidate then begin
        cur := candidate;
        progress := true
      end;
      incr i
    done
  done;
  (* Phase 2: tighten the survivors' windows. *)
  let n = plan_len !cur in
  for i = 0 to n - 1 do
    let continue = ref true in
    while !continue && !replays < max_replays do
      let ev = nth_event !cur i in
      let t = tighten_event ev in
      if t = ev then continue := false
      else begin
        let candidate = replace_nth !cur i t in
        if test candidate then cur := candidate else continue := false
      end
    done
  done;
  (!cur, !replays)

(* --- Exploration --- *)

type violation = {
  vi_index : int;
  vi_kind : kind;
  vi_seed : int64;
  vi_actions : int;  (* actions in the generated schedule *)
  vi_shrunk_actions : int;  (* after minimization *)
  vi_replays : int;  (* drills the shrinker spent *)
  vi_schedule : schedule;  (* the minimized schedule *)
  vi_verdict : verdict_or_error;  (* verdict of the minimized schedule *)
  vi_repro : string option;  (* repro file path, when out_dir given *)
  vi_flight : string option;  (* flight dump path, when out_dir given *)
}

type report = {
  x_seed : int;
  x_budget : int;
  x_defenses : bool;
  x_schedules : schedule list;
  x_violations : violation list;
  x_coverage : ((string * string * string) * int) list;
  x_drills : int;  (* total drills run, shrink replays included *)
}

let found r = r.x_violations <> []

(* --- Repro files --- *)

type repro = {
  rp_kind : kind;
  rp_seed : int64;
  rp_defenses : bool;
  rp_plan : Faultplan.t;
  rp_recovery : Faultplan.t;
}

let repro_schema = "odsbench-repro"

let repro_of_violation ~defenses v =
  {
    rp_kind = v.vi_kind;
    rp_seed = v.vi_seed;
    rp_defenses = defenses;
    rp_plan = v.vi_schedule.s_plan;
    rp_recovery = v.vi_schedule.s_recovery;
  }

let repro_to_json ?violation r =
  Json.Obj
    ([
       ("schema", Json.String repro_schema);
       ("version", Json.Int 1);
       ("kind", Json.String (kind_name r.rp_kind));
       ("seed", Json.String (Printf.sprintf "0x%Lx" r.rp_seed));
       ("defenses", Json.Bool r.rp_defenses);
       ("plan", Faultplan.to_json r.rp_plan);
       ("recovery_plan", Faultplan.to_json r.rp_recovery);
     ]
    @ match violation with None -> [] | Some v -> [ ("violation", v) ])

(* The overload drill owns its schedule, so a repro of that kind
   must carry exactly the schedule [generate] writes for it: plans the
   drill would ignore are refused, not silently dropped. *)
let overload_plans_ignored r =
  if r.rp_kind = Overload
     && (r.rp_plan <> Drill.overload_plan Drill.overload_params || r.rp_recovery <> [])
  then
    Some
      "repro: an overload repro's plan must be the drill's own flash crowd and its \
       recovery_plan empty"
  else None

let repro_of_json json =
  let ( let* ) = Result.bind in
  let field name conv what =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "repro: missing or ill-typed field %S (expected %s)" name what)
  in
  let* schema = field "schema" Json.to_string_opt "string" in
  if schema <> repro_schema then
    Error (Printf.sprintf "repro: unknown schema %S (expected %S)" schema repro_schema)
  else
    let* kind_s = field "kind" Json.to_string_opt "string" in
    let* rp_kind =
      match kind_of_name kind_s with
      | Some k -> Ok k
      | None ->
          Error
            (Printf.sprintf "repro: unknown kind %S (valid: pm, disk, cluster, overload)"
               kind_s)
    in
    let* seed_s = field "seed" Json.to_string_opt "hex string" in
    let* rp_seed =
      match Int64.of_string_opt seed_s with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "repro: unparseable seed %S" seed_s)
    in
    let* rp_defenses = field "defenses" Json.to_bool_opt "bool" in
    let* plan_json = field "plan" Option.some "array" in
    let* rp_plan = Faultplan.of_json plan_json in
    let* rec_json = field "recovery_plan" Option.some "array" in
    let* rp_recovery = Faultplan.of_json rec_json in
    let r = { rp_kind; rp_seed; rp_defenses; rp_plan; rp_recovery } in
    Option.fold ~none:(Ok r) ~some:Result.error (overload_plans_ignored r)

type replay_result = Single of Drill.report | Clustered of Drill.report | Overloaded of Drill.report

(* PM schedules run on the corruption-drill platform — small regions,
   the scrubber on a tight cadence, verified reads: the defenses the
   media-fault motifs are aimed at — without its crash decay. *)
let replay ?flight r =
  let family plan scope =
    let s = Result.get_ok (Drill.spec_of plan scope) in
    let config = if r.rp_defenses then s.config else { s.config with System.defenses = [] } in
    { s with Drill.seed = r.rp_seed; config }
  in
  let with_repro load spec =
    { spec with Drill.load; plan = r.rp_plan; recovery_plan = r.rp_recovery;
      horizon = Some horizon; crash_decay = [] }
  in
  let pm = `Single System.Pm_audit and disk = `Single System.Disk_audit in
  let wrap, spec =
    match r.rp_kind with
    | Pm ->
        ((fun rep -> Single rep), with_repro (Drill.Closed pm_params) (family Drill.Corruption pm))
    | Disk ->
        ( (fun rep -> Single rep),
          with_repro (Drill.Closed disk_params) (family Drill.No_faults disk) )
    | Cluster ->
        ( (fun rep -> Clustered rep),
          with_repro
            (Drill.Distributed { nodes = 2; params = cluster_params })
            (family Drill.Partition `Cluster) )
    | Overload -> ((fun rep -> Overloaded rep), family Drill.Overload pm)
  in
  match overload_plans_ignored r with
  | Some e -> Error e
  | None -> Drill.exec ?flight ~max_outage spec |> Result.map wrap

let replay_verdict (Single rep | Clustered rep | Overloaded rep) =
  Drill.Oracle.of_report ~max_outage rep

(* Run one schedule on its drill platform and judge it with the
   oracle: [replay] then [replay_verdict].  [defenses:false]
   strips the PM integrity defenses (scrubber, verified reads) and the
   overload defenses — the weakened platform the explorer must find
   known failures on. *)
let execute ?flight ~defenses s =
  let repro =
    {
      rp_kind = s.s_kind;
      rp_seed = s.s_seed;
      rp_defenses = defenses;
      rp_plan = s.s_plan;
      rp_recovery = s.s_recovery;
    }
  in
  match replay ?flight repro with
  | Error e -> Harness_error e
  | Ok result -> Verdict (replay_verdict result)

(* --- The explorer loop --- *)

let write_json path json =
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc

let run ?(defenses = true) ?out_dir ?(max_replays = 150) ?progress ~budget ~seed () =
  let drills = ref 0 in
  let schedules = ref [] in
  let violations = ref [] in
  for index = 0 to budget - 1 do
    let s = generate ~seed ~index in
    schedules := s :: !schedules;
    incr drills;
    let outcome = execute ~defenses s in
    (match progress with
    | Some f -> f index (violates outcome)
    | None -> ());
    if violates outcome then begin
      let original_actions = plan_len (s.s_plan, s.s_recovery) in
      (* Overload schedules carry only the informational spike marker —
         the drill owns its arrival schedule — so there is nothing to
         shrink. *)
      let (p', r'), replays =
        if s.s_kind = Overload then ((s.s_plan, s.s_recovery), 0)
        else
          minimize ~max_replays
            ~fails:(fun (p, r) ->
              violates (execute ~defenses { s with s_plan = p; s_recovery = r }))
            (s.s_plan, s.s_recovery)
      in
      drills := !drills + replays;
      let shrunk = { s with s_plan = p'; s_recovery = r' } in
      (* One last replay of the minimized schedule, with the flight
         recorder armed when there is somewhere to dump it. *)
      let flight_path =
        Option.map
          (fun d -> Filename.concat d (Printf.sprintf "flight_%04d.json" index))
          out_dir
      in
      incr drills;
      let final = execute ?flight:flight_path ~defenses shrunk in
      let repro_path =
        match out_dir with
        | None -> None
        | Some d ->
            let path = Filename.concat d (Printf.sprintf "repro_%04d.json" index) in
            let doc =
              repro_to_json
                ~violation:(verdict_json final)
                (repro_of_violation ~defenses
                   {
                     vi_index = index;
                     vi_kind = s.s_kind;
                     vi_seed = s.s_seed;
                     vi_actions = original_actions;
                     vi_shrunk_actions = plan_len (p', r');
                     vi_replays = replays;
                     vi_schedule = shrunk;
                     vi_verdict = final;
                     vi_repro = None;
                     vi_flight = None;
                   })
            in
            write_json path doc;
            Some path
      in
      let flight_path =
        match flight_path with
        | Some p when Sys.file_exists p -> Some p
        | _ -> None
      in
      violations :=
        {
          vi_index = index;
          vi_kind = s.s_kind;
          vi_seed = s.s_seed;
          vi_actions = original_actions;
          vi_shrunk_actions = plan_len (p', r');
          vi_replays = replays;
          vi_schedule = shrunk;
          vi_verdict = final;
          vi_repro = repro_path;
          vi_flight = flight_path;
        }
        :: !violations
    end
  done;
  let schedules = List.rev !schedules in
  {
    x_seed = seed;
    x_budget = budget;
    x_defenses = defenses;
    x_schedules = schedules;
    x_violations = List.rev !violations;
    x_coverage = coverage schedules;
    x_drills = !drills;
  }

let violation_json v =
  Json.Obj
    [
      ("index", Json.Int v.vi_index);
      ("kind", Json.String (kind_name v.vi_kind));
      ("seed", Json.String (Printf.sprintf "0x%Lx" v.vi_seed));
      ("actions", Json.Int v.vi_actions);
      ("shrunk_actions", Json.Int v.vi_shrunk_actions);
      ("shrink_replays", Json.Int v.vi_replays);
      ("plan", Faultplan.to_json v.vi_schedule.s_plan);
      ("recovery_plan", Faultplan.to_json v.vi_schedule.s_recovery);
      ("verdict", verdict_json v.vi_verdict);
      ( "repro",
        match v.vi_repro with Some p -> Json.String p | None -> Json.Null );
      ( "flight",
        match v.vi_flight with Some p -> Json.String p | None -> Json.Null );
    ]

let to_json r =
  let kinds = [ Pm; Disk; Cluster; Overload ] in
  let kind_counts =
    List.map
      (fun k ->
        ( kind_name k,
          Json.Int (List.length (List.filter (fun s -> s.s_kind = k) r.x_schedules)) ))
      kinds
  in
  let families =
    List.sort_uniq compare (List.map (fun ((f, _, _), _) -> f) r.x_coverage)
  in
  let phases =
    List.sort_uniq compare (List.map (fun ((_, p, _), _) -> p) r.x_coverage)
  in
  let layers =
    List.sort_uniq compare (List.map (fun ((_, _, l), _) -> l) r.x_coverage)
  in
  Json.Obj
    [
      ("seed", Json.Int r.x_seed);
      ("budget", Json.Int r.x_budget);
      ("defenses", Json.Bool r.x_defenses);
      ("schedules", Json.Int (List.length r.x_schedules));
      ("drills", Json.Int r.x_drills);
      ("kinds", Json.Obj kind_counts);
      ("violations", Json.List (List.map violation_json r.x_violations));
      ("pass", Json.Bool (not (found r)));
      ( "coverage",
        Json.Obj
          [
            ("families", Json.Int (List.length families));
            ("phases", Json.Int (List.length phases));
            ("layers", Json.Int (List.length layers));
            ( "cells",
              Json.List
                (List.map
                   (fun ((family, phase, layer), count) ->
                     Json.Obj
                       [
                         ("family", Json.String family);
                         ("phase", Json.String phase);
                         ("layer", Json.String layer);
                         ("count", Json.Int count);
                       ])
                   r.x_coverage) );
          ] );
    ]

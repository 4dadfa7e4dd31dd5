open Simkit
open Nsk

type target = Adp of int | Dp2 of int | Tmf | Pmm

type action =
  | Kill_primary of target
  | Npmu_power_cycle of { device : int; off_for : Time.span }
  | Rail_down of int
  | Rail_up of int
  | Crc_noise_burst of { rate : float; duration : Time.span }
  | Media_decay of { device : int; off : int; bits : int }
  | Torn_write of { device : int }
  | Pmm_resync
  | Wan_partition
  | Wan_heal
  | Fence_check
  | Slow_device of { device : int; factor : float; jitter : Time.span }
  | Slow_rail of { rail : int; factor : float }
  | Slow_disk of { volume : int; factor : float; jitter : Time.span }
  | Restore_speed
  | Flash_crowd of { spike : float; spike_for : Time.span }

type event = { after : Time.span; action : action }

type t = event list

let at after action = { after; action }

let action_name = function
  | Kill_primary (Adp _) -> "kill_adp"
  | Kill_primary (Dp2 _) -> "kill_dp2"
  | Kill_primary Tmf -> "kill_tmf"
  | Kill_primary Pmm -> "kill_pmm"
  | Npmu_power_cycle _ -> "npmu_power_cycle"
  | Rail_down _ -> "rail_down"
  | Rail_up _ -> "rail_up"
  | Crc_noise_burst _ -> "crc_noise_burst"
  | Media_decay _ -> "media_decay"
  | Torn_write _ -> "torn_write"
  | Pmm_resync -> "pmm_resync"
  | Wan_partition -> "wan_partition"
  | Wan_heal -> "wan_heal"
  | Fence_check -> "fence_check"
  | Slow_device _ -> "slow_device"
  | Slow_rail _ -> "slow_rail"
  | Slow_disk _ -> "slow_disk"
  | Restore_speed -> "restore_speed"
  | Flash_crowd _ -> "flash_crowd"

let action_kinds =
  [
    "kill_adp"; "kill_dp2"; "kill_tmf"; "kill_pmm"; "npmu_power_cycle";
    "rail_down"; "rail_up"; "crc_noise_burst"; "media_decay"; "torn_write";
    "pmm_resync"; "wan_partition"; "wan_heal"; "fence_check"; "slow_device";
    "slow_rail"; "slow_disk"; "restore_speed"; "flash_crowd";
  ]

let describe = function
  | Kill_primary (Adp i) -> Printf.sprintf "kill ADP %d primary" i
  | Kill_primary (Dp2 i) -> Printf.sprintf "kill DP2 %d primary" i
  | Kill_primary Tmf -> "kill TMF primary"
  | Kill_primary Pmm -> "kill PMM primary"
  | Npmu_power_cycle { device; off_for } ->
      Printf.sprintf "power-cycle NPMU %d (off %s)" device (Time.to_string off_for)
  | Rail_down r -> Printf.sprintf "rail %d down" r
  | Rail_up r -> Printf.sprintf "rail %d up" r
  | Crc_noise_burst { rate; duration } ->
      Printf.sprintf "CRC noise %.4f for %s" rate (Time.to_string duration)
  | Media_decay { device; off; bits } ->
      Printf.sprintf "decay %d bits at offset %d of NPMU %d" bits off device
  | Torn_write { device } -> Printf.sprintf "tear last write on NPMU %d" device
  | Pmm_resync -> "PMM mirror resync"
  | Wan_partition -> "sever the inter-node link"
  | Wan_heal -> "heal the inter-node link"
  | Fence_check -> "verify the volume epoch fence is armed"
  | Slow_device { device; factor; jitter } ->
      Printf.sprintf "degrade NPMU %d to %.1fx (jitter %s)" device factor
        (Time.to_string jitter)
  | Slow_rail { rail; factor } -> Printf.sprintf "slow rail %d to %.1fx" rail factor
  | Slow_disk { volume; factor; jitter } ->
      Printf.sprintf "degrade data volume %d to %.1fx (jitter %s)" volume factor
        (Time.to_string jitter)
  | Restore_speed -> "restore every degraded component to full speed"
  | Flash_crowd { spike; spike_for } ->
      Printf.sprintf "flash crowd: %.1fx offered load for %s" spike
        (Time.to_string spike_for)

(* Durations serialize as [*_ns] integer fields so a plan written to a
   repro file and read back is structurally identical — no float
   rounding on the time axis. *)
let action_to_json action =
  let kind = ("kind", Json.String (action_name action)) in
  let fields =
    match action with
    | Kill_primary (Adp i) | Kill_primary (Dp2 i) -> [ ("index", Json.Int i) ]
    | Kill_primary Tmf | Kill_primary Pmm -> []
    | Npmu_power_cycle { device; off_for } ->
        [ ("device", Json.Int device); ("off_for_ns", Json.Int off_for) ]
    | Rail_down r | Rail_up r -> [ ("rail", Json.Int r) ]
    | Crc_noise_burst { rate; duration } ->
        [ ("rate", Json.Float rate); ("duration_ns", Json.Int duration) ]
    | Media_decay { device; off; bits } ->
        [ ("device", Json.Int device); ("off", Json.Int off); ("bits", Json.Int bits) ]
    | Torn_write { device } -> [ ("device", Json.Int device) ]
    | Pmm_resync | Wan_partition | Wan_heal | Fence_check | Restore_speed -> []
    | Slow_device { device; factor; jitter } ->
        [
          ("device", Json.Int device);
          ("factor", Json.Float factor);
          ("jitter_ns", Json.Int jitter);
        ]
    | Slow_rail { rail; factor } ->
        [ ("rail", Json.Int rail); ("factor", Json.Float factor) ]
    | Slow_disk { volume; factor; jitter } ->
        [
          ("volume", Json.Int volume);
          ("factor", Json.Float factor);
          ("jitter_ns", Json.Int jitter);
        ]
    | Flash_crowd { spike; spike_for } ->
        [ ("spike", Json.Float spike); ("spike_for_ns", Json.Int spike_for) ]
  in
  Json.Obj (kind :: fields)

let to_json plan =
  Json.List
    (List.map
       (fun ev ->
         match action_to_json ev.action with
         | Json.Obj fields -> Json.Obj (("after_ns", Json.Int ev.after) :: fields)
         | j -> j)
       plan)

let of_json json =
  let ( let* ) = Result.bind in
  let action_of_json i j =
    let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "action %d: %s" i m)) fmt in
    let field name conv what =
      match Option.bind (Json.member name j) conv with
      | Some v -> Ok v
      | None -> fail "missing or ill-typed field %S (expected %s)" name what
    in
    let int name = field name Json.to_int_opt "integer" in
    let flt name = field name Json.to_float_opt "number" in
    let* kind = field "kind" Json.to_string_opt "string" in
    match kind with
    | "kill_adp" ->
        let* i = int "index" in
        Ok (Kill_primary (Adp i))
    | "kill_dp2" ->
        let* i = int "index" in
        Ok (Kill_primary (Dp2 i))
    | "kill_tmf" -> Ok (Kill_primary Tmf)
    | "kill_pmm" -> Ok (Kill_primary Pmm)
    | "npmu_power_cycle" ->
        let* device = int "device" in
        let* off_for = int "off_for_ns" in
        Ok (Npmu_power_cycle { device; off_for })
    | "rail_down" ->
        let* r = int "rail" in
        Ok (Rail_down r)
    | "rail_up" ->
        let* r = int "rail" in
        Ok (Rail_up r)
    | "crc_noise_burst" ->
        let* rate = flt "rate" in
        let* duration = int "duration_ns" in
        Ok (Crc_noise_burst { rate; duration })
    | "media_decay" ->
        let* device = int "device" in
        let* off = int "off" in
        let* bits = int "bits" in
        Ok (Media_decay { device; off; bits })
    | "torn_write" ->
        let* device = int "device" in
        Ok (Torn_write { device })
    | "pmm_resync" -> Ok Pmm_resync
    | "wan_partition" -> Ok Wan_partition
    | "wan_heal" -> Ok Wan_heal
    | "fence_check" -> Ok Fence_check
    | "slow_device" ->
        let* device = int "device" in
        let* factor = flt "factor" in
        let* jitter = int "jitter_ns" in
        Ok (Slow_device { device; factor; jitter })
    | "slow_rail" ->
        let* rail = int "rail" in
        let* factor = flt "factor" in
        Ok (Slow_rail { rail; factor })
    | "slow_disk" ->
        let* volume = int "volume" in
        let* factor = flt "factor" in
        let* jitter = int "jitter_ns" in
        Ok (Slow_disk { volume; factor; jitter })
    | "restore_speed" -> Ok Restore_speed
    | "flash_crowd" ->
        let* spike = flt "spike" in
        let* spike_for = int "spike_for_ns" in
        Ok (Flash_crowd { spike; spike_for })
    | other ->
        fail "unknown kind %S (valid kinds: %s)" other (String.concat ", " action_kinds)
  in
  let event_of_json i j =
    match j with
    | Json.Obj _ ->
        let* after =
          match Option.bind (Json.member "after_ns" j) Json.to_int_opt with
          | Some v -> Ok v
          | None ->
              Error
                (Printf.sprintf
                   "action %d: missing or ill-typed field \"after_ns\" (expected integer)"
                   i)
        in
        let* action = action_of_json i j in
        Ok { after; action }
    | _ -> Error (Printf.sprintf "action %d: expected an object" i)
  in
  match json with
  | Json.List items ->
      let rec build i acc = function
        | [] -> Ok (List.rev acc)
        | j :: rest ->
            let* ev = event_of_json i j in
            build (i + 1) (ev :: acc) rest
      in
      build 0 [] items
  | _ -> Error "fault plan must be a JSON array of action objects"

(* Flash_crowd does not act on the system — the overload drill's open-loop
   arrival engine is what actually raises the offered load; the event
   exists so the spike lands in the injection log, the timeline marks and
   the flight recorder like any other fault.  Outside the overload drill
   the event would silently mark a spike that never happens, so only the
   overload drill's scope admits it. *)
type scope = Single of System.t | Overload_drill of System.t | Cluster_node of Cluster.t * int

(* The drill plans a single node of each log mode runs, named in the
   flash-crowd refusal.  [Drill] owns the plan table and sits above this
   module, so it supplies the list when it is linked. *)
let single_plans = ref (fun (_ : System.log_mode) -> [])

let set_single_plans f = single_plans := f

let validate ?horizon scope plan =
  let system, overload, clustered =
    match scope with
    | Single s -> (s, false, false)
    | Overload_drill s -> (s, true, false)
    | Cluster_node (c, node) -> (Cluster.system c node, false, true)
  in
  let cfg = System.config system in
  let pm_mode = cfg.System.log_mode = System.Pm_audit in
  let n_adps = Array.length (System.adps system) in
  let n_dp2s = Array.length (System.dp2s system) in
  let n_devices = List.length (System.npmus system) in
  let rails = (Servernet.Fabric.config (Node.fabric (System.node system))).rails in
  let reject fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let check ev =
    let pm_only what = reject "%s requires a PM-mode system" what in
    match ev.action with
    | Kill_primary (Adp i) when i < 0 || i >= n_adps ->
        reject "kill_adp: index %d out of range (have %d)" i n_adps
    | Kill_primary (Dp2 i) when i < 0 || i >= n_dp2s ->
        reject "kill_dp2: index %d out of range (have %d)" i n_dp2s
    | Kill_primary Pmm when not pm_mode -> pm_only "kill_pmm"
    | Pmm_resync when not pm_mode -> pm_only "pmm_resync"
    | Npmu_power_cycle _ when not pm_mode -> pm_only "npmu_power_cycle"
    | Npmu_power_cycle { device; _ } when device < 0 || device >= n_devices ->
        reject "npmu_power_cycle: device %d out of range (have %d)" device n_devices
    | Npmu_power_cycle { off_for; _ } when off_for <= 0 ->
        reject "npmu_power_cycle: off_for must be positive"
    | (Rail_down r | Rail_up r) when r < 0 || r >= rails ->
        reject "rail event: rail %d out of range (have %d)" r rails
    | Media_decay _ when not pm_mode -> pm_only "media_decay"
    | Media_decay { device; _ } when device < 0 || device >= n_devices ->
        reject "media_decay: device %d out of range (have %d)" device n_devices
    | Media_decay { bits; _ } when bits <= 0 -> reject "media_decay: bits must be positive"
    | Media_decay { device; off; bits }
      when off < 0
           || off + ((bits + 7) / 8)
              > Pm.Npmu.capacity (List.nth (System.npmus system) device) ->
        reject "media_decay: offset %d (+%d bits) outside device %d" off bits device
    | Torn_write _ when not pm_mode -> pm_only "torn_write"
    | Torn_write { device } when device < 0 || device >= n_devices ->
        reject "torn_write: device %d out of range (have %d)" device n_devices
    | Crc_noise_burst { rate; _ } when rate < 0.0 || rate >= 1.0 ->
        reject "crc_noise_burst: rate %.3f outside [0, 1)" rate
    | Crc_noise_burst { duration; _ } when duration <= 0 ->
        reject "crc_noise_burst: duration must be positive"
    | (Wan_partition | Wan_heal) when not clustered ->
        reject "%s requires a cluster-scoped plan" (action_name ev.action)
    | Fence_check when not pm_mode -> pm_only "fence_check"
    | Slow_device _ when not pm_mode -> pm_only "slow_device"
    | Slow_device { device; _ } when device < 0 || device >= n_devices ->
        reject "slow_device: device %d out of range (have %d)" device n_devices
    | Slow_device { factor; _ } when factor < 1.0 ->
        reject "slow_device: factor %.2f below 1.0" factor
    | Slow_device { jitter; _ } when jitter < 0 -> reject "slow_device: negative jitter"
    | Slow_rail { rail; _ } when rail < 0 || rail >= rails ->
        reject "slow_rail: rail %d out of range (have %d)" rail rails
    | Slow_rail { factor; _ } when factor < 1.0 ->
        reject "slow_rail: factor %.2f below 1.0" factor
    | Slow_disk { volume; _ }
      when volume < 0 || volume >= Array.length (System.data_volumes system) ->
        reject "slow_disk: volume %d out of range (have %d)" volume
          (Array.length (System.data_volumes system))
    | Slow_disk { factor; _ } when factor < 1.0 ->
        reject "slow_disk: factor %.2f below 1.0" factor
    | Slow_disk { jitter; _ } when jitter < 0 -> reject "slow_disk: negative jitter"
    | Flash_crowd _ when not overload ->
        reject
          "flash_crowd is overload-drill-only: run it via --plan overload (valid plans: \
           %s)"
          (String.concat ", " (!single_plans cfg.System.log_mode))
    | Flash_crowd { spike; _ } when spike < 1.0 ->
        reject "flash_crowd: spike %.2f below 1.0" spike
    | Flash_crowd { spike_for; _ } when spike_for <= 0 ->
        reject "flash_crowd: spike_for must be positive"
    | _ when ev.after < 0 -> reject "event offset must be non-negative"
    | _ -> (
        (* A scheduler past the drill horizon would hold the offset but
           the drill would already have crashed and audited — the event
           silently never fires.  Surface that at validation time. *)
        match horizon with
        | Some h when ev.after > h ->
            reject "%s at +%s is past the drill horizon (%s) and would never fire"
              (action_name ev.action) (Time.to_string ev.after) (Time.to_string h)
        | _ -> Ok ())
  in
  let _, result =
    List.fold_left
      (fun (i, acc) ev ->
        match acc with
        | Error _ -> (i + 1, acc)
        | Ok () -> (
            ( i + 1,
              match check ev with
              | Ok () -> Ok ()
              | Error m -> Error (Printf.sprintf "action %d: %s" i m) )))
      (0, Ok ()) plan
  in
  result

type run = {
  r_system : System.t;
  r_cluster : Cluster.t option;  (* scope for WAN partition events *)
  mutable r_injected : (Time.t * string) list;  (* newest first *)
  mutable r_fence_checks : int;
  mutable r_fence_failures : int;
  r_done : unit Ivar.t;
}

let injected r = List.rev r.r_injected

let fence_checks r = r.r_fence_checks

let fence_failures r = r.r_fence_failures

let await r = Ivar.read r.r_done

let record run ?(detail = "") action =
  let system = run.r_system in
  let sim = System.sim system in
  let now = Sim.now sim in
  let desc =
    if detail = "" then describe action else describe action ^ " — " ^ detail
  in
  run.r_injected <- (now, desc) :: run.r_injected;
  let obs = System.obs system in
  Obs.bump obs "fault.injected";
  Obs.bump obs ("fault." ^ action_name action)

(* Injection runs in the scheduler process; anything that must happen at
   the end of a window (power restore, noise end) is a non-blocking
   [Sim.at] callback. *)
let inject run action =
  let system = run.r_system in
  let sim = System.sim system in
  let sp = Obs.start (System.obs system) ~track:"fault" (action_name action) in
  if not (Span.is_null sp) then Span.annotate sp ~key:"fault" (describe action);
  let finish () = Obs.finish (System.obs system) sp in
  (match action with
  | Kill_primary (Adp i) ->
      Procpair.kill_primary (Adp.pair (System.adps system).(i));
      record run action
  | Kill_primary (Dp2 i) ->
      Procpair.kill_primary (Dp2.pair (System.dp2s system).(i));
      record run action
  | Kill_primary Tmf ->
      Procpair.kill_primary (Tmf.pair (System.tmf system));
      record run action
  | Kill_primary Pmm ->
      (match System.pmm system with
      | Some pmm -> Procpair.kill_primary (Pm.Pmm.pair pmm)
      | None -> ());
      record run action
  | Npmu_power_cycle { device; off_for } ->
      let d = List.nth (System.npmus system) device in
      Pm.Npmu.power_loss d;
      Sim.at sim ~after:off_for (fun () -> Pm.Npmu.power_restore d);
      record run action
  | Rail_down r ->
      Servernet.Fabric.set_rail (Node.fabric (System.node system)) r false;
      record run action
  | Rail_up r ->
      Servernet.Fabric.set_rail (Node.fabric (System.node system)) r true;
      record run action
  | Crc_noise_burst { rate; duration } ->
      let fabric = Node.fabric (System.node system) in
      let previous = Servernet.Fabric.crc_error_rate fabric in
      Servernet.Fabric.set_crc_error_rate fabric rate;
      Sim.at sim ~after:duration (fun () ->
          Servernet.Fabric.set_crc_error_rate fabric previous);
      record run action
  | Media_decay { device; off; bits } ->
      let d = List.nth (System.npmus system) device in
      Pm.Npmu.decay d ~off ~bits;
      record run action
  | Torn_write { device } ->
      let d = List.nth (System.npmus system) device in
      let detail =
        match Pm.Npmu.tear_last_write d with
        | Some (off, len) -> Printf.sprintf "tore %d bytes at offset %d" len off
        | None -> "no write to tear"
      in
      Span.annotate sp ~key:"result" detail;
      record run ~detail action
  | Slow_device { device; factor; jitter } ->
      let d = List.nth (System.npmus system) device in
      Pm.Npmu.degrade d ~factor ~jitter ();
      record run action
  | Slow_rail { rail; factor } ->
      Servernet.Fabric.set_rail_slow (Node.fabric (System.node system)) rail factor;
      record run action
  | Slow_disk { volume; factor; jitter } ->
      Diskio.Volume.degrade (System.data_volumes system).(volume) ~factor ~jitter ();
      record run action
  | Restore_speed ->
      List.iter Pm.Npmu.restore_speed (System.npmus system);
      let fabric = Node.fabric (System.node system) in
      let rails = (Servernet.Fabric.config fabric).rails in
      for r = 0 to rails - 1 do
        Servernet.Fabric.set_rail_slow fabric r 1.0
      done;
      Array.iter Diskio.Volume.restore_speed (System.data_volumes system);
      record run action
  | Flash_crowd _ ->
      (* The arrival engine raises the load; this only marks the spike. *)
      record run action
  | Wan_partition ->
      (match run.r_cluster with Some c -> Cluster.partition c | None -> ());
      record run action
  | Wan_heal ->
      (match run.r_cluster with Some c -> Cluster.heal c | None -> ());
      record run action
  | Fence_check ->
      run.r_fence_checks <- run.r_fence_checks + 1;
      let detail =
        match System.fence_check system with
        | Ok () -> "stale-epoch write rejected"
        | Error e ->
            run.r_fence_failures <- run.r_fence_failures + 1;
            "FAILED: " ^ e
      in
      Span.annotate sp ~key:"result" detail;
      record run ~detail action
  | Pmm_resync -> (
      match System.pmm system with
      | None -> ()
      | Some pmm ->
          (* The copy streams every region through the manager CPU, so
             give it a whole-device worth of patience; retries ride out
             a takeover happening underneath the call.  Direction: copy
             away from the device that has lost power more often — while
             it was dark, writes degraded to the survivor, so the
             freshly-cycled device holds the stale image and resyncing
             from it would overwrite acknowledged data with stale bytes.
             Ties (no cycle on either side) keep the primary as source,
             the historical default. *)
          let from_primary =
            match System.npmus system with
            | prim :: mirr :: _ ->
                Pm.Npmu.power_cycles prim <= Pm.Npmu.power_cycles mirr
            | _ -> true
          in
          let from = Node.cpu (System.node system) 0 in
          let detail =
            match
              Rpc.call_retry (Pm.Pmm.server pmm) ~from ~attempts:3
                ~timeout:(Time.sec 120) ~span:sp
                (Pm.Pmm.Resync { from_primary })
            with
            | Ok (Pm.Pmm.R_resynced { bytes }) ->
                Printf.sprintf "copied %d bytes from %s" bytes
                  (if from_primary then "primary" else "mirror")
            | Ok (Pm.Pmm.R_error e) -> "failed: " ^ Pm.Pm_types.error_to_string e
            | Ok _ -> "failed: unexpected response"
            | Error _ -> "failed: manager unreachable"
          in
          Span.annotate sp ~key:"result" detail;
          record run ~detail action));
  finish ()

let start_run system ?cluster plan =
  let run =
    {
      r_system = system;
      r_cluster = cluster;
      r_injected = [];
      r_fence_checks = 0;
      r_fence_failures = 0;
      r_done = Ivar.create ();
    }
  in
  let sim = System.sim system in
  let start = Sim.now sim in
  let ordered = List.stable_sort (fun a b -> compare a.after b.after) plan in
  ignore
    (Sim.spawn sim ~name:"fault-scheduler" (fun () ->
         List.iter
           (fun ev ->
             Sim.wait_until (start + ev.after);
             inject run ev.action)
           ordered;
         Ivar.fill run.r_done ()));
  run

let launch scope plan =
  (match validate scope plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Faultplan.launch: " ^ msg));
  match scope with
  | Single system | Overload_drill system -> start_run system plan
  | Cluster_node (cluster, node) -> start_run (Cluster.system cluster node) ~cluster plan

open Simkit
open Nsk

type log_mode = Disk_audit | Pm_audit

type pm_device_kind = Hardware_npmu | Prototype_pmp

type defense = Integrity | Fail_slow | Overload

type config = {
  seed : int64;
  worker_cpus : int;
  files : int;
  partitions_per_file : int;
  log_mode : log_mode;
  adps_per_node : int;
  pm_device_kind : pm_device_kind;
  pm_capacity : int;
  pm_region_bytes : int;
  pm_write_penalty : Time.span;
  pm_mirrored : bool;
  client_op_timeout : Time.span;
  fabric : Servernet.Fabric.config;
  defenses : defense list;
}

let default_config =
  {
    seed = 0x0D5L;
    worker_cpus = 4;
    files = 4;
    partitions_per_file = 4;
    log_mode = Disk_audit;
    adps_per_node = 4;
    pm_device_kind = Hardware_npmu;
    pm_capacity = 192 * 1024 * 1024;
    pm_region_bytes = 24 * 1024 * 1024;
    pm_write_penalty = 0;
    pm_mirrored = true;
    client_op_timeout = 0;
    fabric = Servernet.Fabric.default_config;
    defenses = [];
  }

let pm_config = { default_config with log_mode = Pm_audit }

(* What each switch arms.  [Integrity]: the scrubber, pausing
   [scrub_pause] between chunks, and verified reads.  [Fail_slow]: the
   mirror-health monitor at [Pmm.default_health_config], client latency
   tracking against [slo_budget], hedged reads and adaptive backoff.
   [Overload]: admission control at the monitor, a [deadline] on every
   transaction, per-session and PM-management retry budgets of
   [retry_tokens] and circuit breakers. *)
let scrub_pause = Time.us 100
let slo_budget = Time.us 150
let deadline = Time.ms 150
let retry_tokens = 12.0

let armed cfg d = List.mem d cfg.defenses

type pm_parts = {
  pmm : Pm.Pmm.t;
  devices : Pm.Npmu.t list;
  txn_state : Pm.Pm_client.t * Pm.Pm_client.handle;
  (* Client attachments by CPU index; lazily populated as ADPs take
     their backends, so availability accounting folds over the table at
     query time rather than snapshotting it here. *)
  clients : (int, Pm.Pm_client.t) Hashtbl.t;
}

type t = {
  sys_sim : Sim.t;
  sys_node : Node.t;
  cfg : config;
  sys_tmf : Tmf.t;
  sys_adps : Adp.t array;
  sys_mat : Adp.t;
  sys_dp2s : Dp2.t array;
  sys_dp2_servers : Dp2.server array;
  sys_locks : Lockmgr.t;
  sys_data_vols : Diskio.Volume.t array;
  sys_audit_vols : Diskio.Volume.t array;
  sys_pm : pm_parts option;
  sys_routing : Txclient.routing;
  sys_obs : Obs.t option;
}

(* One client library attachment per CPU that needs PM access. *)
let make_pm_client ?obs cfg fabric pmm ~cpu =
  let fail_slow = armed cfg Fail_slow in
  let client_cfg =
    {
      Pm.Pm_client.default_config with
      mirrored_writes = cfg.pm_mirrored;
      write_penalty = cfg.pm_write_penalty;
      verified_reads = armed cfg Integrity;
      slo_budget = (if fail_slow then slo_budget else 0);
      hedged_reads = fail_slow;
      adaptive_backoff = fail_slow;
      mgmt_retry_budget = (if armed cfg Overload then retry_tokens else 0.);
    }
  in
  Pm.Pm_client.attach ~cpu ~fabric ~pmm:(Pm.Pmm.server pmm) ~config:client_cfg ?obs ()

(* PM regions must exist before the ADPs that log into them; region
   creation needs process context, so builders run inside a setup
   process at time zero and the rest of construction continues there. *)
let build_pm ?obs cfg sim node =
  let fabric = Node.fabric node in
  (* Devices: hardware NPMUs attach directly; PMP prototypes are hosted
     by a process on the extra CPU (the paper ran the PMP "on a 5th
     CPU"). *)
  let devices, dev_pair =
    match cfg.pm_device_kind with
    | Hardware_npmu ->
        let a = Pm.Npmu.create sim fabric ~name:"npmu-a" ~capacity:cfg.pm_capacity in
        let b = Pm.Npmu.create sim fabric ~name:"npmu-b" ~capacity:cfg.pm_capacity in
        ([ a; b ], (Pm.Pmm.device_of_npmu a, Pm.Pmm.device_of_npmu b))
    | Prototype_pmp ->
        let host_a = Node.cpu node cfg.worker_cpus in
        let host_b = Node.cpu node (cfg.worker_cpus + 1) in
        let a = Pm.Pmp.create host_a fabric ~name:"pmp-a" ~capacity:cfg.pm_capacity in
        let b = Pm.Pmp.create host_b fabric ~name:"pmp-b" ~capacity:cfg.pm_capacity in
        ([], (Pm.Pmm.device_of_pmp a, Pm.Pmm.device_of_pmp b))
  in
  let dev_a, dev_b = dev_pair in
  Pm.Pmm.format dev_a dev_b;
  let pmm =
    Pm.Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Node.cpu node 0)
      ~backup_cpu:(Node.cpu node 1) ~primary_dev:dev_a ~mirror_dev:dev_b ()
  in
  if armed cfg Integrity then
    Pm.Pmm.start_scrubber pmm ~cpu:(Node.cpu node 0) ~interval:scrub_pause ?obs ();
  (* The mirror-health monitor probes from the backup CPU: its endpoint
     is already admitted to the metadata windows, and it keeps probing
     through a primary takeover. *)
  if armed cfg Fail_slow then
    Pm.Pmm.start_monitor pmm ~cpu:(Node.cpu node 1) ?obs ();
  (pmm, devices)

let build ?obs sim cfg =
  if cfg.worker_cpus < 2 then invalid_arg "System.build: need at least two worker CPUs";
  (* Spans and probes timestamp against this simulation from here on. *)
  (match obs with Some o -> Obs.set_clock o (fun () -> Sim.now sim) | None -> ());
  let extra_cpus = match cfg.pm_device_kind with Prototype_pmp -> 2 | Hardware_npmu -> 0 in
  let node =
    Node.create sim ~fabric_config:cfg.fabric ?obs ~cpus:(cfg.worker_cpus + extra_cpus) ()
  in
  let fabric = Node.fabric node in
  let n_dp2 = cfg.files * cfg.partitions_per_file in
  (* Data volumes: battery-backed write caches and elevator scheduling,
     as the disk processes of the era ran them. *)
  let data_vols =
    Array.init n_dp2 (fun v ->
        Node.add_volume node
          ~name:(Printf.sprintf "$DATA%02d" v)
          ~cache:Diskio.Disk.default_cache ~scheduling:Diskio.Volume.Elevator ())
  in
  (* Audit volumes: the flush must reach the spindle — no cache.  These
     are 15 kRPM log disks (2004 enterprise class), faster than the data
     spindles. *)
  let audit_geometry =
    {
      Diskio.Disk.default_geometry with
      Diskio.Disk.seek_base = Time.us 600;
      seek_full = Time.ms 6;
      bytes_per_ns = 0.06;
    }
  in
  let audit_vols =
    match cfg.log_mode with
    | Pm_audit -> [||]
    | Disk_audit ->
        Array.init (cfg.adps_per_node + 1) (fun i ->
            Node.add_volume node ~name:(Printf.sprintf "$AUDIT%d" i) ~geometry:audit_geometry ())
  in
  let audit_mirrors =
    match cfg.log_mode with
    | Pm_audit -> [||]
    | Disk_audit ->
        Array.init (cfg.adps_per_node + 1) (fun i ->
            Node.add_volume node ~name:(Printf.sprintf "$AUDIT%dM" i) ~geometry:audit_geometry ())
  in
  let worker i = Node.cpu node (i mod cfg.worker_cpus) in
  let backup_of i = Node.cpu node ((i + 1) mod cfg.worker_cpus) in
  let pm_parts, backend_of =
    match cfg.log_mode with
    | Disk_audit ->
        (None, fun i -> Log_backend.disk ~mirror:audit_mirrors.(i) ?obs audit_vols.(i))
    | Pm_audit ->
        let pmm, devices = build_pm ?obs cfg sim node in
        List.iter (Pm.Npmu.instrument ?obs) devices;
        (match devices with
        | [ a; b ] ->
            (* Mirror-resync lag: bytes the two halves of the pair
               disagree by.  Zero while both halves ack every write. *)
            Obs.gauge obs "pm.mirror_lag_bytes" (fun () ->
                float_of_int (abs (Pm.Npmu.bytes_written a - Pm.Npmu.bytes_written b)))
        | _ -> ());
        (* Trail regions, one per data ADP plus the MAT, plus the
           transaction-state table. *)
        let clients = Hashtbl.create 8 in
        let client_for cpu_idx =
          match Hashtbl.find_opt clients cpu_idx with
          | Some c -> c
          | None ->
              let c = make_pm_client ?obs cfg fabric pmm ~cpu:(worker cpu_idx) in
              Hashtbl.replace clients cpu_idx c;
              c
        in
        let make_backend i =
          let client = client_for i in
          match
            Pm.Pm_client.create_region client
              ~name:(Printf.sprintf "audit-trail-%d" i)
              ~size:cfg.pm_region_bytes
          with
          | Ok handle -> Log_backend.pm ?obs client handle
          | Error e ->
              invalid_arg ("System.build: PM trail region: " ^ Pm.Pm_types.error_to_string e)
        in
        let txn_state =
          let client = client_for 0 in
          match Pm.Pm_client.create_region client ~name:"tmf-txn-state" ~size:(1 lsl 20) with
          | Ok handle -> (client, handle)
          | Error e ->
              invalid_arg ("System.build: txn-state region: " ^ Pm.Pm_types.error_to_string e)
        in
        (Some { pmm; devices; txn_state; clients }, make_backend)
  in
  let adps =
    Array.init cfg.adps_per_node (fun i ->
        Adp.start ~fabric
          ~name:(Printf.sprintf "$ADP%d" i)
          ~primary:(worker i) ~backup:(backup_of i) ~backend:(backend_of i)
          ?obs ())
  in
  let mat =
    Adp.start ~fabric ~name:"$MAT" ~primary:(worker 0) ~backup:(backup_of 0)
      ~backend:(backend_of cfg.adps_per_node) ?obs ()
  in
  let locks = Lockmgr.create sim ~timeout:Dp2.lock_timeout ?obs () in
  let adp_servers = Array.map Adp.server adps in
  let dp2s =
    Array.init n_dp2 (fun v ->
        let cpu_idx = v mod cfg.worker_cpus in
        let adp_index = cpu_idx mod cfg.adps_per_node in
        Dp2.start ~fabric
          ~name:(Printf.sprintf "$DP2-%02d" v)
          ~dp2_index:v ~adp_index ~primary:(worker cpu_idx) ~backup:(backup_of cpu_idx)
          ~volume:data_vols.(v) ~adp:adp_servers.(adp_index) ~locks ?obs ())
  in
  let dp2_servers = Array.map Dp2.server dp2s in
  let txn_state = Option.map (fun p -> p.txn_state) pm_parts in
  (* Outcome probe for in-doubt resolution without a PM table: scan the
     durable master trail for the transaction's last word. *)
  let outcome_probe txn =
    match Log_backend.recovery_read (Adp.backend mat) with
    | Error _ -> 0
    | Ok records ->
        List.fold_left
          (fun acc (_, record) ->
            match record with
            | Audit.Commit { txn = x } when x = txn -> 2
            | Audit.Abort { txn = x } when x = txn -> 3
            | Audit.Prepared { txn = x } when x = txn && acc = 0 -> 4
            | _ -> acc)
          0 records
  in
  let tmf =
    Tmf.start ~fabric ~name:"$TMF" ~primary:(Node.cpu node 0) ~backup:(Node.cpu node 1)
      ~adps:adp_servers ~dp2s:dp2_servers ~mat:(Adp.server mat) ?txn_state ~outcome_probe
      ~admission:(armed cfg Overload) ?obs ()
  in
  {
    sys_sim = sim;
    sys_node = node;
    cfg;
    sys_tmf = tmf;
    sys_adps = adps;
    sys_mat = mat;
    sys_dp2s = dp2s;
    sys_dp2_servers = dp2_servers;
    sys_locks = locks;
    sys_data_vols = data_vols;
    sys_audit_vols = audit_vols;
    sys_pm = pm_parts;
    sys_routing =
      Txclient.uniform_routing ~files:cfg.files ~partitions_per_file:cfg.partitions_per_file;
    sys_obs = obs;
  }

let sim t = t.sys_sim

let node t = t.sys_node

let config t = t.cfg

let tmf t = t.sys_tmf

let adps t = t.sys_adps

let mat t = t.sys_mat

let dp2s t = t.sys_dp2s

let dp2_servers t = t.sys_dp2_servers

let locks t = t.sys_locks

let data_volumes t = t.sys_data_vols

let pmm t = match t.sys_pm with Some p -> Some p.pmm | None -> None

let npmus t = match t.sys_pm with Some p -> p.devices | None -> []

let txn_state_region t = Option.map (fun p -> p.txn_state) t.sys_pm

let pm_clients t =
  match t.sys_pm with
  | None -> []
  | Some p -> Hashtbl.fold (fun _ c acc -> c :: acc) p.clients []

let degraded_pm_writes t =
  List.fold_left (fun acc c -> acc + Pm.Pm_client.degraded_writes c) 0 (pm_clients t)

let pm_write_retries t =
  List.fold_left (fun acc c -> acc + Pm.Pm_client.write_retries c) 0 (pm_clients t)

let pm_read_repairs t =
  List.fold_left (fun acc c -> acc + Pm.Pm_client.read_repairs c) 0 (pm_clients t)

let pm_verify_unrepaired t =
  List.fold_left (fun acc c -> acc + Pm.Pm_client.verify_unrepaired c) 0 (pm_clients t)

let pm_slow_suspects t =
  List.fold_left (fun acc c -> acc + Pm.Pm_client.slow_suspects c) 0 (pm_clients t)

let pm_hedged_reads t =
  List.fold_left (fun acc c -> acc + Pm.Pm_client.hedged_reads_fired c) 0 (pm_clients t)

let pm_hedge_wins t =
  List.fold_left (fun acc c -> acc + Pm.Pm_client.hedge_wins c) 0 (pm_clients t)

let pm_single_copy_writes t =
  List.fold_left (fun acc c -> acc + Pm.Pm_client.single_copy_writes c) 0 (pm_clients t)

(* Probe the epoch fence: a write stamped one epoch behind the volume
   must bounce off the NPMU's AVT with [Stale_epoch].  The probe uses a
   scratch endpoint that holds no write grant, so even a broken fence
   cannot corrupt data — it would surface as [Access_denied], which the
   check reports as a fencing failure. *)
let fence_check t =
  match t.sys_pm with
  | None -> Error "fence check requires PM mode"
  | Some p -> (
      let client =
        Hashtbl.fold (fun _ c acc -> match acc with Some _ -> acc | None -> Some c)
          p.clients None
      in
      match client with
      | None -> Error "fence check: no PM client attached"
      | Some client -> (
          match Pm.Pm_client.list_regions client with
          | Error e -> Error ("fence check: " ^ Pm.Pm_types.error_to_string e)
          | Ok [] -> Error "fence check: no regions to probe"
          | Ok (r :: _) -> (
              let fabric = Node.fabric t.sys_node in
              let probe =
                Servernet.Fabric.attach fabric ~name:"fence-probe"
                  ~store:(Servernet.Fabric.byte_store 64)
              in
              let stale = r.Pm.Pm_types.epoch - 1 in
              match
                Servernet.Fabric.rdma_write fabric ~epoch:stale ~src:probe
                  ~dst:r.Pm.Pm_types.primary_npmu ~addr:r.Pm.Pm_types.net_base
                  ~data:(Bytes.create 8)
              with
              | Error (Servernet.Fabric.Avt_error Servernet.Avt.Stale_epoch) -> Ok ()
              | Error Servernet.Fabric.Unreachable ->
                  (* The target device is dark (powered off or failed):
                     no write, stale or fresh, can land on it, so the
                     fencing invariant holds vacuously.  Reporting this
                     as a failure would make every probe that races a
                     power cycle a false alarm. *)
                  Ok ()
              | Ok () -> Error "fence check: stale-epoch write was accepted"
              | Error e ->
                  Error
                    ("fence check: stale-epoch write not fenced: "
                    ^ Servernet.Fabric.error_to_string e))))

let obs t = t.sys_obs

let session t ~cpu =
  let overload = armed t.cfg Overload in
  let retry_budget =
    if overload then Some (Retry_budget.create ~capacity:retry_tokens ()) else None
  in
  Txclient.create ~cpu:(Node.cpu t.sys_node cpu) ~tmf:(Tmf.server t.sys_tmf)
    ~dp2s:t.sys_dp2_servers ~routing:t.sys_routing
    ~deadline_budget:(if overload then deadline else 0) ~op_timeout:t.cfg.client_op_timeout
    ?retry_budget ~breakers:overload ?obs:t.sys_obs ()

let routing t = t.sys_routing

let total_audit_bytes t =
  Array.fold_left (fun acc adp -> acc + Log_backend.bytes_written (Adp.backend adp)) 0 t.sys_adps
  + Log_backend.bytes_written (Adp.backend t.sys_mat)

let checkpoint_message_bytes t =
  let bytes adp = Procpair.checkpoint_bytes (Adp.pair adp) in
  Array.fold_left (fun acc adp -> acc + bytes adp) 0 t.sys_adps + bytes t.sys_mat

let adp_shed_expired t =
  Array.fold_left (fun acc adp -> acc + Adp.shed_expired_count adp) 0 t.sys_adps
  + Adp.shed_expired_count t.sys_mat

let report ppf t =
  let tmf = t.sys_tmf in
  Format.fprintf ppf "transactions: begun=%d committed=%d aborted=%d active=%d@." (Tmf.begun tmf)
    (Tmf.committed tmf) (Tmf.aborted tmf)
    (List.length (Tmf.active_txns tmf));
  Format.fprintf ppf "commit latency: %a@."
    (fun ppf s -> Stat.pp_summary ppf s)
    (Tmf.commit_latency tmf);
  Array.iteri
    (fun i adp ->
      Format.fprintf ppf "ADP%d: appended=%d flush-reqs=%d writes=%d durable-asn=%d ckpt=%dB@." i
        (Adp.appended_records adp) (Adp.flush_requests adp) (Adp.flushes_performed adp)
        (Adp.durable_asn adp)
        (Procpair.checkpoint_bytes (Adp.pair adp)))
    t.sys_adps;
  Format.fprintf ppf "MAT: appended=%d writes=%d ckpt=%dB@."
    (Adp.appended_records t.sys_mat)
    (Adp.flushes_performed t.sys_mat)
    (Procpair.checkpoint_bytes (Adp.pair t.sys_mat));
  let dp2_inserts = Array.fold_left (fun acc d -> acc + Dp2.inserts d) 0 t.sys_dp2s in
  let dp2_rows = Array.fold_left (fun acc d -> acc + Dp2.table_size d) 0 t.sys_dp2s in
  let max_height = Array.fold_left (fun acc d -> max acc (Dp2.index_height d)) 1 t.sys_dp2s in
  Format.fprintf ppf "DP2s: inserts=%d rows=%d max-index-height=%d@." dp2_inserts dp2_rows
    max_height;
  Format.fprintf ppf "locks: conflicts=%d timeouts=%d waiting=%d@." (Lockmgr.conflicts t.sys_locks)
    (Lockmgr.timeouts t.sys_locks) (Lockmgr.waiting t.sys_locks);
  Array.iter
    (fun v ->
      if Diskio.Volume.completed_ops v > 0 then
        Format.fprintf ppf "volume %s: ops=%d bytes=%d busy=%a depth=%d@." (Diskio.Volume.name v)
          (Diskio.Volume.completed_ops v)
          (Diskio.Volume.completed_bytes v)
          Time.pp (Diskio.Volume.busy_time v)
          (Diskio.Volume.queue_depth v))
    t.sys_data_vols;
  Array.iter
    (fun v ->
      if Diskio.Volume.completed_ops v > 0 then
        Format.fprintf ppf "audit %s: ops=%d bytes=%d busy=%a@." (Diskio.Volume.name v)
          (Diskio.Volume.completed_ops v)
          (Diskio.Volume.completed_bytes v)
          Time.pp (Diskio.Volume.busy_time v))
    t.sys_audit_vols;
  let fs = Servernet.Fabric.stats (Node.fabric t.sys_node) in
  Format.fprintf ppf "fabric: writes=%d reads=%d wrote=%dB read=%dB retries=%d failures=%d@."
    fs.Servernet.Fabric.writes fs.Servernet.Fabric.reads fs.Servernet.Fabric.bytes_written
    fs.Servernet.Fabric.bytes_read fs.Servernet.Fabric.packet_retries fs.Servernet.Fabric.failures

(* Background audit archiving: trim each trail's durable prefix so the
   replayable window stays bounded, as a production archiver moving
   audit to tape would. *)
let start_trail_archiver t ?(interval = Time.sec 5) ?rounds () =
  let cpu = Node.cpu t.sys_node 0 in
  let archive_one adp =
    let durable = Adp.durable_asn adp in
    if durable > 0 then
      match
        Rpc.call_retry (Adp.server adp) ~from:cpu ~attempts:2 (Adp.Trim { through = durable })
      with
      | Ok _ | Error _ -> ()
  in
  let sweep () =
    Sim.sleep interval;
    Array.iter archive_one t.sys_adps;
    archive_one t.sys_mat
  in
  ignore
    (Cpu.spawn cpu ~name:"trail-archiver" (fun () ->
         match rounds with
         | Some n ->
             for _ = 1 to n do
               sweep ()
             done
         | None ->
             while true do
               sweep ()
             done))

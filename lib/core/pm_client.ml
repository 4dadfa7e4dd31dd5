open Simkit
open Nsk

type config = {
  mirrored_writes : bool;
  write_penalty : Time.span;
  mgmt_timeout : Time.span;
  mgmt_retries : int;
  mgmt_backoff : Time.span;
  verified_reads : bool;
  slo_budget : Time.span;
  health_alpha : float;
  hedged_reads : bool;
  hedge_min : Time.span;
  hedge_max : Time.span;
  adaptive_backoff : bool;
  mgmt_retry_budget : float;
      (** token-bucket capacity for management-path retries, refilled by
          successes; 0 disables the budget (retries bounded only by
          [mgmt_retries]) *)
}

let default_config =
  {
    mirrored_writes = true;
    write_penalty = 0;
    mgmt_timeout = Time.sec 2;
    mgmt_retries = 3;
    mgmt_backoff = Time.ms 100;
    verified_reads = false;
    slo_budget = 0;
    health_alpha = 0.3;
    hedged_reads = false;
    hedge_min = Time.us 50;
    hedge_max = Time.ms 5;
    adaptive_backoff = false;
    mgmt_retry_budget = 0.;
  }

(* Bounded retries of transient fabric errors ([Unreachable], [No_path],
   [Crc_failure]) per device on the data path before the attempt counts
   as a device failure, and the base of their backoff. *)
let data_retries = 2
let data_backoff = Time.us 100

(* Consecutive failures after which a device is presumed down and
   data-path retries are skipped until it answers again. *)
let fail_fast_after = 8

(* Ring size of the windowed p99. *)
let health_window = 32

(* Per-device latency health: an EWMA plus a windowed p99, both compared
   against the configured SLO budget.  Disabled (no samples recorded)
   while [slo_budget] is 0, so the default config costs nothing. *)
type health = {
  mutable ewma : float;  (** smoothed per-op latency, ns; 0 until first sample *)
  window : int array;  (** ring of recent per-op latencies, ns *)
  mutable w_len : int;
  mutable w_pos : int;
  mutable suspect : bool;  (** currently over budget *)
}

let health_create () =
  {
    ewma = 0.0;
    window = Array.make health_window 0;
    w_len = 0;
    w_pos = 0;
    suspect = false;
  }

let window_p99 hs =
  if hs.w_len = 0 then 0
  else begin
    let a = Array.sub hs.window 0 hs.w_len in
    Array.sort compare a;
    let idx =
      min (hs.w_len - 1)
        (max 0 (int_of_float (ceil (0.99 *. float_of_int hs.w_len)) - 1))
    in
    a.(idx)
  end

type t = {
  client_cpu : Cpu.t;
  fabric : Servernet.Fabric.t;
  pmm : Pmm.server;
  cfg : config;
  rng : Rng.t;
  mutable degraded : int;
  mutable retried_writes : int;
  mutable read_failovers : int;
  mutable mgmt_retried : int;
  mutable fenced : int;
  mutable read_repaired : int;
  mutable verify_divergent : int;
  mutable verify_unrepaired : int;
  (* Consecutive data-path failures per device of the mirror pair; past
     [fail_fast_after] the client stops burning retries on a device it
     has every reason to believe is down, until a success resets it. *)
  mutable primary_strikes : int;
  mutable mirror_strikes : int;
  mutable slow_suspects : int;  (** healthy->suspect transitions observed *)
  mutable hedged : int;  (** hedged reads fired *)
  mutable hedge_won : int;  (** hedges whose mirror copy answered first *)
  mutable single_copy : int;  (** writes skipped on a demoted mirror *)
  mutable mgmt_exhausted : int;  (** mgmt calls that ran out of retries *)
  retry_budget : Retry_budget.t option;
      (** management-path retry containment; [None] when unbudgeted *)
  ph : health;  (** primary device data-path latency *)
  mh : health;  (** mirror device data-path latency *)
  latency : Stat.t;
  obs : Obs.t option;
  write_probe : Probe.t option;
}

type handle = { t : t; mutable region : Pm_types.region_info }

let attach ~cpu ~fabric ~pmm ?(config = default_config) ?obs () =
  {
    client_cpu = cpu;
    fabric;
    pmm;
    cfg = config;
    rng = Rng.split (Sim.rng (Cpu.sim cpu));
    degraded = 0;
    retried_writes = 0;
    read_failovers = 0;
    mgmt_retried = 0;
    fenced = 0;
    read_repaired = 0;
    verify_divergent = 0;
    verify_unrepaired = 0;
    primary_strikes = 0;
    mirror_strikes = 0;
    slow_suspects = 0;
    hedged = 0;
    hedge_won = 0;
    single_copy = 0;
    mgmt_exhausted = 0;
    retry_budget =
      (if config.mgmt_retry_budget > 0. then
         Some (Retry_budget.create ~capacity:config.mgmt_retry_budget ())
       else None);
    ph = health_create ();
    mh = health_create ();
    latency =
      (* With an observability context every client aggregates into the
         one registry-owned stat; otherwise each keeps a private one. *)
      Obs.stat_or_private obs "pm.write_ns";
    obs;
    (* Aggregate across clients: depth = mirrored writes in flight. *)
    write_probe = Obs.probe obs "pm.client_writes";
  }

(* Record one data-path op's latency against a device's health and flag
   the healthy->suspect edge.  The suspect state clears itself once the
   EWMA and the windowed p99 both drop back under budget. *)
let health_note t hs dt =
  if t.cfg.slo_budget > 0 then begin
    let alpha = t.cfg.health_alpha in
    hs.ewma <-
      (if hs.ewma = 0.0 then float_of_int dt
       else (alpha *. float_of_int dt) +. ((1.0 -. alpha) *. hs.ewma));
    hs.window.(hs.w_pos) <- dt;
    hs.w_pos <- (hs.w_pos + 1) mod Array.length hs.window;
    if hs.w_len < Array.length hs.window then hs.w_len <- hs.w_len + 1;
    let budget = t.cfg.slo_budget in
    let breach = hs.ewma > float_of_int budget || window_p99 hs > budget in
    if breach && not hs.suspect then begin
      hs.suspect <- true;
      t.slow_suspects <- t.slow_suspects + 1;
      Obs.bump t.obs "pm.slow_suspect"
    end
    else if (not breach) && hs.suspect then hs.suspect <- false
  end

(* The hedge fires after a delay derived from the primary's observed
   latency quantiles (2x its windowed p99), clamped to the configured
   band — adaptive, not a fixed data timeout. *)
let hedge_delay t =
  let q = window_p99 t.ph in
  let base = if q > 0 then 2 * q else t.cfg.hedge_max in
  min (max base t.cfg.hedge_min) t.cfg.hedge_max

(* Adaptive data-path timeout: the retry backoff base tracks the worst
   observed device EWMA (capped), so a degraded path is retried on its
   own timescale instead of the healthy-case constant. *)
let data_backoff_base t =
  if not t.cfg.adaptive_backoff then data_backoff
  else
    let observed = int_of_float (Float.max t.ph.ewma t.mh.ewma) in
    min (max data_backoff observed) (data_backoff * 64)

(* Exponential backoff with full jitter: attempt [i] sleeps uniformly in
   [0, base * 2^i], capped at 2^6.  Jitter decorrelates the many clients
   that all saw the same takeover at the same instant. *)
let backoff_ceiling ~base ~attempt =
  let scale = 1 lsl min attempt 6 in
  max 1 (base * scale)

let backoff_span rng ~base ~attempt =
  Time.ns 1 + Rng.uniform_span rng (backoff_ceiling ~base ~attempt)

let backoff_sleep t ~base ~attempt = Sim.sleep (backoff_span t.rng ~base ~attempt)

let cpu t = t.client_cpu

let info h = h.region

(* Management RPC with jittered exponential backoff across PMM
   takeovers.  A takeover strands every outstanding call at once; backing
   off exponentially with jitter spreads the retry herd instead of having
   all clients hammer the promoted backup on the same 100 ms beat. *)
let mgmt_call t req =
  let rec go attempt =
    match Msgsys.call t.pmm ~from:t.client_cpu ~timeout:t.cfg.mgmt_timeout req with
    | Ok resp ->
        (* Successes refill the retry budget, so a healthy manager earns
           back the headroom a takeover spent. *)
        (match t.retry_budget with Some b -> Retry_budget.success b | None -> ());
        Ok resp
    | Error (Msgsys.Server_down | Msgsys.Timed_out) ->
        if attempt >= t.cfg.mgmt_retries then begin
          t.mgmt_exhausted <- t.mgmt_exhausted + 1;
          Obs.bump t.obs "pm.mgmt_retry_exhausted";
          Error Pm_types.Manager_down
        end
        else if
          match t.retry_budget with
          | Some b -> not (Retry_budget.try_spend b)
          | None -> false
        then begin
          (* Out of tokens: the client tier as a whole is failing faster
             than it succeeds — stop amplifying and surface the error. *)
          Obs.bump t.obs "pm.retry_budget_denied";
          Error Pm_types.Manager_down
        end
        else begin
          t.mgmt_retried <- t.mgmt_retried + 1;
          Obs.bump t.obs "pm.mgmt_retries";
          backoff_sleep t ~base:t.cfg.mgmt_backoff ~attempt;
          go (attempt + 1)
        end
  in
  go 0

(* Decode a management reply: [expect] accepts the one response the
   request calls for; a PMM error or a transport error passes through. *)
let decode expect = function
  | Ok (Pmm.R_error e) | Error e -> Error e
  | Ok resp -> (
      match expect resp with
      | Some v -> Ok v
      | None -> Error (Pm_types.Bad_request "unexpected PMM response"))

let region_result t = decode (function Pmm.R_region region -> Some { t; region } | _ -> None)

let unit_result = decode (function Pmm.R_ok -> Some () | _ -> None)

let create_region t ~name ~size =
  let client = Cpu.endpoint_id t.client_cpu in
  region_result t (mgmt_call t (Pmm.Create { rname = name; size; client }))

let open_region t ~name =
  let client = Cpu.endpoint_id t.client_cpu in
  region_result t (mgmt_call t (Pmm.Open { rname = name; client }))

let close_region t h =
  let client = Cpu.endpoint_id t.client_cpu in
  unit_result (mgmt_call t (Pmm.Close { rname = h.region.Pm_types.region_name; client }))

let delete_region t ~name = unit_result (mgmt_call t (Pmm.Delete { rname = name }))

let list_regions t =
  decode (function Pmm.R_regions rs -> Some rs | _ -> None) (mgmt_call t Pmm.List_regions)

let bounds_ok region ~off ~len =
  off >= 0 && len >= 0 && off + len <= region.Pm_types.length

let write ?span ?(pad = 0) t h ~off ~data =
  (* A write bounced with [Stale_epoch] means the volume was fenced under
     us (takeover or resync finished a new incarnation).  The grant is
     refreshable: re-open the region at the PMM — the fresh grant carries
     the new epoch — and retry, a bounded number of times. *)
  let rec attempt refreshes =
    let region = h.region in
    let len = Bytes.length data + pad in
    if not (bounds_ok region ~off ~len) then
      Error (Pm_types.Bad_request "write out of bounds")
    else begin
      let started = Sim.now (Cpu.sim t.client_cpu) in
      let sp = Obs.start t.obs ~track:"pm" ?parent:span "pm.write" in
      if not (Span.is_null sp) then begin
        Span.annotate sp ~key:"region" region.Pm_types.region_name;
        Span.annotate sp ~key:"len" (string_of_int len)
      end;
      let addr = region.Pm_types.net_base + off in
      let epoch = region.Pm_types.epoch in
      let src = Cpu.endpoint t.client_cpu in
      Prof.bump_pm_write ();
      Obs.enqueue t.write_probe;
      if t.cfg.write_penalty > 0 then Sim.sleep t.cfg.write_penalty;
      (* One device's worth of the mirrored write, with bounded retry of
         transient fabric errors (a rail flapping, a burst of CRC noise)
         before the attempt counts as a device failure.  Once a device has
         racked up [fail_fast_after] consecutive failures the retries are
         skipped — it is down, not noisy — so a long outage degrades every
         write once instead of stalling each one through a retry ladder. *)
      let write_device ~strikes ~note ~hs dst =
        let rec go attempt =
          let t0 = Sim.now (Cpu.sim t.client_cpu) in
          match
            Servernet.Fabric.rdma_write ~span:sp ~epoch ~pad t.fabric ~src ~dst ~addr ~data
          with
          | Ok () ->
              health_note t hs (Sim.now (Cpu.sim t.client_cpu) - t0);
              note 0;
              Ok ()
          | Error (Servernet.Fabric.Unreachable | Servernet.Fabric.No_path
                  | Servernet.Fabric.Crc_failure)
            when attempt < data_retries && strikes < fail_fast_after ->
              t.retried_writes <- t.retried_writes + 1;
              Obs.bump t.obs "pm.write_retries";
              backoff_sleep t ~base:(data_backoff_base t) ~attempt;
              go (attempt + 1)
          | Error e ->
              note (strikes + 1);
              Error e
        in
        go 0
      in
      let primary_result =
        write_device ~strikes:t.primary_strikes
          ~note:(fun n -> t.primary_strikes <- n)
          ~hs:t.ph region.Pm_types.primary_npmu
      in
      let mirror_result =
        if t.cfg.mirrored_writes && region.Pm_types.mirror_active then
          write_device ~strikes:t.mirror_strikes
            ~note:(fun n -> t.mirror_strikes <- n)
            ~hs:t.mh region.Pm_types.mirror_npmu
        else begin
          (* Demoted mirror: the PMM fenced the slow copy out, so the
             write persists single-copy under the degraded-durability
             contract and is counted as such, not as a failure. *)
          if t.cfg.mirrored_writes && not region.Pm_types.mirror_active then begin
            t.single_copy <- t.single_copy + 1;
            Obs.bump t.obs "pm.single_copy_writes"
          end;
          primary_result
        end
      in
      let is_fenced = function
        | Error (Servernet.Fabric.Avt_error Servernet.Avt.Stale_epoch) -> true
        | _ -> false
      in
      let outcome =
        (* A fence on either device outranks the degraded-write path: the
           write may have half-landed, but this client's whole grant is
           stale — acking would hide data the new incarnation won't see. *)
        if is_fenced primary_result || is_fenced mirror_result then Error Pm_types.Fenced
        else
          match (primary_result, mirror_result) with
          | Ok (), Ok () -> Ok ()
          | Ok (), Error _ | Error _, Ok () ->
              t.degraded <- t.degraded + 1;
              Obs.bump t.obs "pm.degraded_writes";
              Ok ()
          | Error (Servernet.Fabric.Avt_error Servernet.Avt.Access_denied), _
          | _, Error (Servernet.Fabric.Avt_error Servernet.Avt.Access_denied) ->
              Error Pm_types.Permission_denied
          | Error _, Error _ -> Error Pm_types.Device_failed
      in
      (match outcome with
      | Ok () -> Stat.add_span t.latency (Sim.now (Cpu.sim t.client_cpu) - started)
      | Error _ -> ());
      Obs.served t.write_probe (Sim.now (Cpu.sim t.client_cpu) - started);
      Obs.finish t.obs sp;
      match outcome with
      | Error Pm_types.Fenced ->
          t.fenced <- t.fenced + 1;
          Obs.bump t.obs "pm.fenced_writes";
          if refreshes <= 0 then Error Pm_types.Fenced
          else begin
            match open_region t ~name:region.Pm_types.region_name with
            | Ok fresh ->
                h.region <- fresh.region;
                attempt (refreshes - 1)
            | Error _ -> Error Pm_types.Fenced
          end
      | outcome -> outcome
    end
  in
  attempt 2

(* One timed read of one copy into [buf] at [pos], feeding the device's
   latency health. *)
let timed_read t region ~mirror ~addr ~len ~buf ~pos =
  let dst =
    if mirror then region.Pm_types.mirror_npmu else region.Pm_types.primary_npmu
  in
  let hs = if mirror then t.mh else t.ph in
  let t0 = Sim.now (Cpu.sim t.client_cpu) in
  let r =
    Servernet.Fabric.rdma_read_into t.fabric ~src:(Cpu.endpoint t.client_cpu) ~dst ~addr
      ~len ~buf ~pos
  in
  (match r with
  | Ok () -> health_note t hs (Sim.now (Cpu.sim t.client_cpu) - t0)
  | Error _ -> ());
  r

(* Hedged mirrored read: start the primary copy, and if it has not
   answered within the hedge delay fire the mirror too — first response
   wins.  Each copy reads into a private buffer and only the winner is
   copied into [buf]: the loser completes in its helper process after
   the caller has moved on, and must not land in the caller's memory. *)
let hedged_fetch ?(span = Span.null) t region ~addr ~len ~buf ~pos =
  let sim = Cpu.sim t.client_cpu in
  let mb = Mailbox.create () in
  let fetch ~mirror () =
    let own = Bytes.create len in
    Mailbox.send mb
      (mirror, Result.map (fun () -> own) (timed_read t region ~mirror ~addr ~len ~buf:own ~pos:0))
  in
  let won data =
    Bytes.blit data 0 buf pos len;
    Ok ()
  in
  ignore (Sim.spawn sim ~name:"pm-read-primary" (fetch ~mirror:false));
  let rec collect ~hedged ~outstanding =
    if outstanding = 0 then Error Pm_types.Device_failed
    else
      let mirror, r = Mailbox.recv mb in
      match r with
      | Ok data ->
          if mirror then
            if hedged then begin
              t.hedge_won <- t.hedge_won + 1;
              Obs.bump t.obs "pm.hedge_wins";
              Span.annotate span ~key:"hedge_won" "1"
            end
            else begin
              t.read_failovers <- t.read_failovers + 1;
              Obs.bump t.obs "pm.read_failovers";
              Span.annotate span ~key:"failover" "1"
            end;
          won data
      | Error (Servernet.Fabric.Avt_error Servernet.Avt.Access_denied) ->
          Error Pm_types.Permission_denied
      | Error _ -> collect ~hedged ~outstanding:(outstanding - 1)
  in
  match Mailbox.recv_timeout mb (hedge_delay t) with
  | Some (_, Ok data) -> won data
  | Some (_, Error (Servernet.Fabric.Avt_error Servernet.Avt.Access_denied)) ->
      Error Pm_types.Permission_denied
  | Some (_, Error _) ->
      (* The primary failed outright: classic failover, not a hedge. *)
      ignore (Sim.spawn sim ~name:"pm-read-failover" (fetch ~mirror:true));
      collect ~hedged:false ~outstanding:1
  | None ->
      t.hedged <- t.hedged + 1;
      Obs.bump t.obs "pm.hedged_reads";
      Span.annotate span ~key:"hedged" "1";
      ignore (Sim.spawn sim ~name:"pm-read-hedge" (fetch ~mirror:true));
      collect ~hedged:true ~outstanding:2

(* A negative [len] is left to the region bounds check, which answers
   [Bad_request]. *)
let check_dst ~len ~buf ~pos =
  if len > 0 && (pos < 0 || pos > Bytes.length buf - len) then
    invalid_arg "Pm_client: read destination out of range"

let read_plain ?(span = Span.null) t h ~off ~len ~buf ~pos =
  let region = h.region in
  if not (bounds_ok region ~off ~len) then Error (Pm_types.Bad_request "read out of bounds")
  else begin
    let addr = region.Pm_types.net_base + off in
    let mirror_usable = region.Pm_types.mirror_active in
    let hedge = t.cfg.hedged_reads && t.cfg.mirrored_writes && mirror_usable in
    (* Rounds of primary-then-mirror (or a hedged pair): a transient
       fabric error on both devices (rail flap mid-burst) earns a
       jittered backoff and another round, bounded by [data_retries].
       A demoted mirror is skipped entirely — its contents are stale. *)
    let rec round attempt =
      let result =
        if hedge then hedged_fetch ~span t region ~addr ~len ~buf ~pos
        else
          match timed_read t region ~mirror:false ~addr ~len ~buf ~pos with
          | Ok () -> Ok ()
          | Error (Servernet.Fabric.Avt_error Servernet.Avt.Access_denied) ->
              Error Pm_types.Permission_denied
          | Error _ when not mirror_usable -> Error Pm_types.Device_failed
          | Error _ -> (
              match timed_read t region ~mirror:true ~addr ~len ~buf ~pos with
              | Ok () ->
                  t.read_failovers <- t.read_failovers + 1;
                  Obs.bump t.obs "pm.read_failovers";
                  Span.annotate span ~key:"failover" "1";
                  Ok ()
              | Error (Servernet.Fabric.Avt_error Servernet.Avt.Access_denied) ->
                  Error Pm_types.Permission_denied
              | Error _ -> Error Pm_types.Device_failed)
      in
      match result with
      | Error Pm_types.Device_failed when attempt < data_retries ->
          backoff_sleep t ~base:(data_backoff_base t) ~attempt;
          round (attempt + 1)
      | result -> result
    in
    round 0
  end

let read_device_into t h ~mirror ~off ~len ~buf ~pos =
  check_dst ~len ~buf ~pos;
  let region = h.region in
  if not (bounds_ok region ~off ~len) then Error (Pm_types.Bad_request "read out of bounds")
  else
    let dst = if mirror then region.Pm_types.mirror_npmu else region.Pm_types.primary_npmu in
    match
      Servernet.Fabric.rdma_read_into t.fabric ~src:(Cpu.endpoint t.client_cpu) ~dst
        ~addr:(region.Pm_types.net_base + off) ~len ~buf ~pos
    with
    | Ok () -> Ok ()
    | Error (Servernet.Fabric.Avt_error Servernet.Avt.Access_denied) ->
        Error Pm_types.Permission_denied
    | Error _ -> Error Pm_types.Device_failed

(* Arbitrate and repair every chunk of a divergent range by the
   scrubber's own rule ({!Pmm.arbitrate}) over the PMM's durable
   chunk-checksum table: the copy that matches it, on a device that has
   not power-cycled since the chunk was marked clean, is written over the
   other (read-repair).  A chunk no copy qualifies for — never scanned
   clean, quarantined, rolled back by a power cycle, or both copies
   corrupt — is left alone and counted as unrepaired; the scrubber's
   strike machinery owns its fate. *)
let verify_repair_range t h ~addr ~len =
  let region = h.region in
  let src = Cpu.endpoint t.client_cpu in
  let read_dev dst ~addr ~len = Servernet.Fabric.rdma_read t.fabric ~src ~dst ~addr ~len in
  let unrepaired () =
    t.verify_unrepaired <- t.verify_unrepaired + 1;
    Obs.bump t.obs "pm.verify_unrepaired"
  in
  let repair ~dst ~chunk_off ~data =
    match
      Servernet.Fabric.rdma_write ~epoch:region.Pm_types.epoch t.fabric ~src ~dst
        ~addr:chunk_off ~data
    with
    | Ok () ->
        t.read_repaired <- t.read_repaired + 1;
        Obs.bump t.obs "pm.read_repairs"
    | Error _ -> unrepaired ()
  in
  let rec sweep pos =
    if pos < addr + len then
      match mgmt_call t (Pmm.Chunk_crc { addr = pos }) with
      | Ok (Pmm.R_chunk_crc { chunk_off; chunk_len; crc; steady; quarantined }) ->
          (if not quarantined then
             match
               ( read_dev region.Pm_types.primary_npmu ~addr:chunk_off ~len:chunk_len,
                 read_dev region.Pm_types.mirror_npmu ~addr:chunk_off ~len:chunk_len )
             with
             | Ok p, Ok m when not (Bytes.equal p m) -> (
                 match Pmm.arbitrate ~trusted:crc ~steady p m with
                 | Some `Primary -> repair ~dst:region.Pm_types.mirror_npmu ~chunk_off ~data:p
                 | Some `Mirror -> repair ~dst:region.Pm_types.primary_npmu ~chunk_off ~data:m
                 | None -> unrepaired ())
             | _ -> ());
          sweep (chunk_off + chunk_len)
      | Ok _ | Error _ ->
          (* The PMM cannot arbitrate right now (takeover in flight, or
             the range fell off the region map); the plain read below
             still serves data, just unverified. *)
          unrepaired ()
  in
  sweep addr

let read_verified_sp span t h ~off ~len ~buf ~pos =
  let region = h.region in
  if not (bounds_ok region ~off ~len) then Error (Pm_types.Bad_request "read out of bounds")
  else if not region.Pm_types.mirror_active then
    (* Demoted mirror: its contents are legitimately stale, so there is
       nothing meaningful to cross-check until re-admission resyncs it. *)
    read_plain ~span t h ~off ~len ~buf ~pos
  else begin
    let addr = region.Pm_types.net_base + off in
    let src = Cpu.endpoint t.client_cpu in
    (* The primary copy lands straight in [buf]; any outcome other than
       two agreeing copies re-reads it through the plain path. *)
    let p =
      Servernet.Fabric.rdma_read_into t.fabric ~src ~dst:region.Pm_types.primary_npmu ~addr
        ~len ~buf ~pos
    in
    let m =
      Servernet.Fabric.rdma_read t.fabric ~src ~dst:region.Pm_types.mirror_npmu ~addr ~len
    in
    match (p, m) with
    | Ok (), Ok dm when Servernet.Fabric.sub_equal buf pos dm 0 len -> Ok ()
    | Ok (), Ok _ ->
        t.verify_divergent <- t.verify_divergent + 1;
        Obs.bump t.obs "pm.verify_divergence";
        Span.annotate span ~key:"divergent" "1";
        verify_repair_range t h ~addr ~len;
        (* Serve the post-repair contents; where repair was impossible
           this degrades to the plain read's primary-first answer. *)
        read_plain ~span t h ~off ~len ~buf ~pos
    | _ ->
        (* One copy unreachable: nothing to cross-check, and the plain
           path already owns failover and retry. *)
        read_plain ~span t h ~off ~len ~buf ~pos
  end

let read_verified_into t h ~off ~len ~buf ~pos =
  check_dst ~len ~buf ~pos;
  read_verified_sp Span.null t h ~off ~len ~buf ~pos

let read_into ?span t h ~off ~len ~buf ~pos =
  check_dst ~len ~buf ~pos;
  let sp = Obs.start t.obs ~track:"pm" ?parent:span "pm.read" in
  if not (Span.is_null sp) then begin
    Span.annotate sp ~key:"region" h.region.Pm_types.region_name;
    Span.annotate sp ~key:"len" (string_of_int len)
  end;
  let r =
    if t.cfg.verified_reads then read_verified_sp sp t h ~off ~len ~buf ~pos
    else read_plain ~span:sp t h ~off ~len ~buf ~pos
  in
  (match r with Error _ -> Span.annotate sp ~key:"error" "1" | Ok () -> ());
  Obs.finish t.obs sp;
  r

(* The allocating reads: a fresh buffer handed to the [_into] form. *)
let alloc_read ~len read =
  let buf = Bytes.create (max 0 len) in
  Result.map (fun () -> buf) (read ~buf ~pos:0)

let read ?span t h ~off ~len = alloc_read ~len (read_into ?span t h ~off ~len)

let read_device t h ~mirror ~off ~len = alloc_read ~len (read_device_into t h ~mirror ~off ~len)

let degraded_writes t = t.degraded

let write_retries t = t.retried_writes

let read_failovers t = t.read_failovers

let read_repairs t = t.read_repaired

let verify_divergences t = t.verify_divergent

let verify_unrepaired t = t.verify_unrepaired

let verified_reads_enabled t = t.cfg.verified_reads

let fenced_writes t = t.fenced

let mgmt_retries_used t = t.mgmt_retried

let mgmt_retry_exhausted t = t.mgmt_exhausted

let slow_suspects t = t.slow_suspects

let hedged_reads_fired t = t.hedged

let hedge_wins t = t.hedge_won

let single_copy_writes t = t.single_copy

let latency_suspect t ~mirror = if mirror then t.mh.suspect else t.ph.suspect

let latency_ewma t ~mirror = if mirror then t.mh.ewma else t.ph.ewma

let write_latency t = t.latency

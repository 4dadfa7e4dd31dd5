open Simkit
open Nsk
module Pages = Servernet.Fabric.Pages

type device = {
  dev_name : string;
  dev_id : int;
  dev_avt : Servernet.Avt.t;
  dev_mem : Pages.t;
  dev_power_cycles : unit -> int;
  dev_alive : unit -> bool;
}

let device_of_npmu npmu =
  {
    dev_name = Npmu.name npmu;
    dev_id = Npmu.id npmu;
    dev_avt = Npmu.avt npmu;
    dev_mem = Npmu.mem npmu;
    dev_power_cycles = (fun () -> Npmu.power_cycles npmu);
    dev_alive = (fun () -> Npmu.is_powered npmu);
  }

let device_of_pmp pmp =
  {
    dev_name = Pmp.name pmp;
    dev_id = Pmp.id pmp;
    dev_avt = Pmp.avt pmp;
    dev_mem = Pmp.mem pmp;
    (* A PMP's power loss is terminal; "has it ever died" is the whole
       cycle history. *)
    dev_power_cycles = (fun () -> if Pmp.is_alive pmp then 0 else 1);
    dev_alive = (fun () -> Pmp.is_alive pmp);
  }

type request =
  | Create of { rname : string; size : int; client : int }
  | Open of { rname : string; client : int }
  | Close of { rname : string; client : int }
  | Delete of { rname : string }
  | List_regions
  | Resync of { from_primary : bool }
  | Chunk_crc of { addr : int }

type response =
  | R_region of Pm_types.region_info
  | R_regions of Pm_types.region_info list
  | R_ok
  | R_resynced of { bytes : int }
  | R_chunk_crc of {
      chunk_off : int;
      chunk_len : int;
      crc : int32 option;
      steady : bool * bool;
      quarantined : bool;
    }
  | R_error of Pm_types.error

type server = (request, response) Msgsys.server

(* Bytes at the front of each device for metadata; the PMM's
   instruction path per request; the wire size of an AVT-programming
   command. *)
let meta_reserve = 64 * 1024
let op_cpu_cost = Time.us 10
let mgmt_bytes = 128

(* Scrub compare granularity (and checksum-table key size), the settle
   before trusting a divergence, and the consecutive unresolvable passes
   that quarantine a chunk. *)
let scrub_chunk_bytes = 256 * 1024
let scrub_recheck = Time.us 50
let scrub_quarantine_after = 3

(* Size of the monitor's timed probe read, and its per-probe latency
   budget. *)
let probe_bytes = 64
let health_slo = Time.us 100

type health_config = {
  probe_interval : Time.span;
  health_alpha : float;
  demote_after : int;
  readmit_after : int;
}

let default_health_config =
  {
    probe_interval = Time.us 250;
    health_alpha = 0.5;
    demote_after = 2;
    readmit_after = 8;
  }


(* --- Metadata representation --- *)

type region = { rname : string; offset : int; length : int; openers : int list }

type meta = { mutable generation : int; mutable epoch : int; mutable regions : region list }

let magic = 0x504D4D31 (* "PMM1" *)

let encode_meta meta =
  let enc = Codec.Enc.create () in
  Codec.Enc.u32 enc (List.length meta.regions);
  let encode_region r =
    Codec.Enc.str enc r.rname;
    Codec.Enc.u32 enc r.offset;
    Codec.Enc.u32 enc r.length;
    Codec.Enc.u16 enc (List.length r.openers);
    List.iter (Codec.Enc.u16 enc) r.openers
  in
  List.iter encode_region meta.regions;
  Codec.Enc.u64 enc meta.generation;
  Codec.Enc.u64 enc meta.epoch;
  Codec.Enc.to_bytes enc

let decode_meta blob =
  let dec = Codec.Dec.of_bytes blob in
  let count = Codec.Dec.u32 dec in
  let decode_region () =
    let rname = Codec.Dec.str dec in
    let offset = Codec.Dec.u32 dec in
    let length = Codec.Dec.u32 dec in
    let nopen = Codec.Dec.u16 dec in
    let openers = List.init nopen (fun _ -> Codec.Dec.u16 dec) in
    { rname; offset; length; openers }
  in
  let regions = List.init count (fun _ -> decode_region ()) in
  let generation = Codec.Dec.u64 dec in
  let epoch = Codec.Dec.u64 dec in
  { generation; epoch; regions }

let meta ~generation ~epoch regions =
  {
    generation;
    epoch;
    regions =
      List.map (fun (rname, offset, length, openers) -> { rname; offset; length; openers }) regions;
  }

let slot_image meta = Codec.frame ~magic ~generation:meta.generation (encode_meta meta)

(* The region table repeats its generation inside the payload: a header
   whose generation disagrees is rejected. *)
let parse_slot =
  Codec.unframe ~magic (fun generation payload ->
      let meta = decode_meta payload in
      if meta.generation <> generation then None else Some meta)

(* The metadata reserve is two slots, and each slot holds both tables:
   the region table in its front [meta_reserve/8] bytes, the scrubber's
   chunk-checksum table in the rest.  A table is written whole, with a
   new generation, to slot [generation mod 2] of both devices, so a
   crash mid-persist always leaves the previous copy intact. *)
type 'a table = {
  base : int;  (** offset of the table inside each slot *)
  area : int;  (** the most bytes its image may take *)
  parse : bytes -> 'a option;
  generation_of : 'a -> int;
}

let slot_offset slot = slot * (meta_reserve / 2)

let region_table =
  { base = 0; area = meta_reserve / 8; parse = parse_slot; generation_of = (fun m -> m.generation) }

(* --- The manager --- *)

(* Scrubber state.  The chunk-checksum table maps the absolute device
   offset of a chunk (chunked per region, from the region base) to the
   CRC32 of the chunk's last known-good contents. *)
type scrub = {
  s_interval : Time.span;  (** pause between chunk scans *)
  s_cpu : Cpu.t;
  s_table : (int, int32) Hashtbl.t;
  s_clean_cycles : (int, int * int) Hashtbl.t;
      (** chunk offset -> (primary, mirror) power-cycle counts when the
          entry was last marked clean.  A copy that matches the table but
          whose device has power-cycled since may have {e rolled back} to
          the blessed contents — the match no longer proves integrity, so
          arbitration must not repair the peer from it.  Deliberately not
          persisted: after a manager restart the history is unknown, and
          an absent snapshot disables arbitration (strike, never repair)
          until the next clean scan re-records it. *)
  s_strikes : (int, int) Hashtbl.t;  (** consecutive unresolvable passes *)
  s_quar : (int, int) Hashtbl.t;  (** chunk offset -> chunk length *)
  mutable s_generation : int;
  mutable s_running : bool;
  mutable s_passes : int;
  mutable s_chunks : int;  (** chunks compared, cumulative *)
  mutable s_repairs : int;
  mutable s_quarantined : int;
  s_probe : Probe.t option;
  mutable s_prim_buf : Bytes.t;
  mutable s_mirr_buf : Bytes.t;
      (** the chunk buffers each copy is read into, reused chunk after
          chunk; only this state's one scrubber fiber touches them *)
}

(* Mirror-health monitor state: tiny timed RDMA probes of both devices,
   EWMA-smoothed, driving slow-mirror demotion and re-admission. *)
type monitor = {
  m_cfg : health_config;
  m_cpu : Cpu.t;
  mutable m_running : bool;
  mutable m_probes : int;
  mutable m_prim_ewma : float;
  mutable m_mirr_ewma : float;
  mutable m_mirr_breaches : int;  (** consecutive over-budget mirror probes *)
  mutable m_mirr_healthy : int;  (** consecutive in-budget mirror probes *)
}

type t = {
  fabric : Servernet.Fabric.t;
  pmm_name : string;
  prim_dev : device;
  mirr_dev : device;
  srv : server;
  pair : (meta, Bytes.t option, Bytes.t) Procpair.t;
      (** the primary serves the live table; the backup keeps the last
          checkpointed image *)
  mutable prim_ok : bool;
  mutable mirr_ok : bool;
  mutable mgmt_initiators : int list;  (** the PMM pair's own endpoints *)
  mutable recovery_time : Time.span option;
  mutable scrub : scrub option;
  mutable mirror_active : bool;
      (** false while a persistently slow mirror is demoted: clients
          write single-copy under the degraded-durability contract *)
  mutable demotions : int;
  mutable readmissions : int;
  mutable monitor : monitor option;
}

let format prim mirr =
  let meta = { generation = 1; epoch = 1; regions = [] } in
  let image = slot_image meta in
  let write_device dev =
    Pages.write dev.dev_mem ~off:(slot_offset 0) ~data:image;
    Pages.write dev.dev_mem ~off:(slot_offset 1) ~data:image;
    (* Leave the metadata window open for management until a PMM claims
       the volume and narrows access to its own CPUs. *)
    (match
       Servernet.Avt.map dev.dev_avt ~net_base:0 ~length:meta_reserve ~phys_base:0
         ~access:(Servernet.Avt.read_write Servernet.Avt.Any_initiator)
     with
    | Ok () | Error _ -> ());
    Servernet.Avt.set_epoch dev.dev_avt meta.epoch
  in
  write_device prim;
  write_device mirr

let server t = t.srv

let degraded t = not (t.prim_ok && t.mirr_ok)

let last_recovery_time t = t.recovery_time

let pair t = t.pair

(* Program (or reprogram) the AVT window of a region on one device.  The
   manager's own CPUs stay on the list: they need the data path for
   mirror resynchronization. *)
let program_window t dev region =
  let access =
    Servernet.Avt.read_write (Servernet.Avt.Initiators (t.mgmt_initiators @ region.openers))
  in
  match
    Servernet.Avt.map dev.dev_avt ~net_base:region.offset ~length:region.length
      ~phys_base:region.offset ~access
  with
  | Ok () -> ()
  | Error _ -> ignore (Servernet.Avt.set_access dev.dev_avt ~net_base:region.offset access)

let unmap_window dev region = ignore (Servernet.Avt.unmap dev.dev_avt ~net_base:region.offset)

(* The management path to a device: a small command exchange on the
   fabric.  We model its wire time without moving payload. *)
let mgmt_delay t = Sim.sleep (Servernet.Fabric.transfer_time t.fabric ~bytes:mgmt_bytes)

let current_cpu t = Procpair.primary_cpu t.pair

let src_endpoint t = Cpu.endpoint (current_cpu t)

(* The newest epoch either device enforces, and arming both with one. *)
let armed_epoch t =
  max (Servernet.Avt.epoch t.prim_dev.dev_avt) (Servernet.Avt.epoch t.mirr_dev.dev_avt)

let arm t epoch =
  Servernet.Avt.set_epoch t.prim_dev.dev_avt epoch;
  Servernet.Avt.set_epoch t.mirr_dev.dev_avt epoch

(* Write a table image to its slot on the primary, then the mirror.
   [None], with nothing written, when the image overflows the table's
   area; otherwise whether each device took it.  [src] is asked afresh
   for each transfer: a takeover can move the manager between the two. *)
let write_table t ~src ~epoch table ~generation image =
  if Bytes.length image > table.area then None
  else begin
    let addr = slot_offset (generation mod 2) + table.base in
    let write dev =
      Result.is_ok
        (Servernet.Fabric.rdma_write ~epoch t.fabric ~src:(src ()) ~dst:dev.dev_id ~addr
           ~data:image)
    in
    let p = write t.prim_dev in
    let m = write t.mirr_dev in
    Some (p, m)
  end

(* Read a table from both slots of both devices and keep the newest copy
   that parses (the first one read on a tie).  Each read runs to the end
   of the slot: a frame carries its own length. *)
let read_table t ~src table =
  let read dev slot =
    match
      Servernet.Fabric.rdma_read t.fabric ~src:(src ()) ~dst:dev.dev_id
        ~addr:(slot_offset slot + table.base)
        ~len:((meta_reserve / 2) - table.base)
    with
    | Ok data -> table.parse data
    | Error _ -> None
  in
  List.fold_left
    (fun best c ->
      match (best, c) with
      | Some b, Some c when table.generation_of c > table.generation_of b -> Some c
      | None, c -> c
      | best, _ -> best)
    None
    [ read t.prim_dev 0; read t.prim_dev 1; read t.mirr_dev 0; read t.mirr_dev 1 ]

let table_full () =
  Pm_types.Bad_request (Printf.sprintf "region table limited to %d bytes" region_table.area)

(* Persist the region table (new generation, alternating slot).  Metadata
   writes carry the table's own epoch, so a deposed primary that lost a
   takeover race is fenced off the volume like any other stale writer.
   An over-long table is refused before any write, leaving the device
   health flags as they were. *)
let persist t meta =
  meta.generation <- meta.generation + 1;
  match
    write_table t ~src:(fun () -> src_endpoint t) ~epoch:meta.epoch region_table
      ~generation:meta.generation (slot_image meta)
  with
  | None -> Error (table_full ())
  | Some (p, m) ->
      t.prim_ok <- p;
      t.mirr_ok <- m;
      if p || m then Ok () else Error Pm_types.Device_failed

let checkpoint_meta t meta =
  let blob = encode_meta meta in
  Procpair.checkpoint t.pair ~bytes:(Bytes.length blob) blob

(* Fence the volume: advance the epoch past anything either device has
   seen, persist it durably, then arm both AVTs.  The persist happens
   {e before} the AVTs move so the metadata write itself is never fenced;
   from the set_epoch on, every write descriptor stamped with an older
   grant bounces with [Stale_epoch]. *)
let bump_epoch t meta =
  meta.epoch <- max (meta.epoch + 1) (armed_epoch t + 1);
  ignore (persist t meta);
  arm t meta.epoch;
  checkpoint_meta t meta

(* Narrow the metadata windows to this PMM's CPUs. *)
let claim_metadata_windows t ~primary_cpu ~backup_cpu =
  let who =
    Servernet.Avt.Initiators [ Cpu.endpoint_id primary_cpu; Cpu.endpoint_id backup_cpu ]
  in
  let claim dev =
    ignore (Servernet.Avt.set_access dev.dev_avt ~net_base:0 (Servernet.Avt.read_write who))
  in
  claim t.prim_dev;
  claim t.mirr_dev

(* Cold-boot recovery: adopt the newest CRC-valid region table. *)
let recover t =
  let started = Sim.now (Cpu.sim (current_cpu t)) in
  let meta =
    match read_table t ~src:(fun () -> src_endpoint t) region_table with
    | Some m -> m
    | None -> { generation = 1; epoch = 1; regions = [] }
  in
  (* Re-assert data windows (idempotent on devices that kept their AVT). *)
  List.iter (program_window t t.prim_dev) meta.regions;
  List.iter (program_window t t.mirr_dev) meta.regions;
  t.recovery_time <- Some (Sim.now (Cpu.sim (current_cpu t)) - started);
  meta

(* --- Request handling (primary only) --- *)

let find_region meta rname = List.find_opt (fun r -> String.equal r.rname rname) meta.regions

let data_capacity t =
  let size dev = Pages.size dev.dev_mem in
  min (size t.prim_dev) (size t.mirr_dev) - meta_reserve

(* First-fit allocation in [meta_reserve, capacity). *)
let allocate t meta size =
  let limit = meta_reserve + data_capacity t in
  let sorted = List.sort (fun a b -> compare a.offset b.offset) meta.regions in
  let rec fit cursor = function
    | [] -> if cursor + size <= limit then Some cursor else None
    | r :: rest -> if cursor + size <= r.offset then Some cursor else fit (r.offset + r.length) rest
  in
  fit meta_reserve sorted

let region_info t meta r =
  {
    Pm_types.region_name = r.rname;
    net_base = r.offset;
    length = r.length;
    primary_npmu = t.prim_dev.dev_id;
    mirror_npmu = t.mirr_dev.dev_id;
    epoch = meta.epoch;
    mirror_active = t.mirror_active;
  }

let epoch t = match Procpair.live t.pair with Some m -> m.epoch | None -> 0

(* Every allocated extent as [(offset, length)], in table order, and in
   address order. *)
let extents meta = List.map (fun r -> (r.offset, r.length)) meta.regions

let sorted_extents meta = List.sort compare (extents meta)

(* Walk each extent in turn in pieces of at most [step] bytes (an
   extent's last piece may be short), calling [f addr len] on each until
   one answers [Error].  Scrub chunks and 64 KiB RDMA slices are both cut
   here. *)
let walk ~step extents f =
  let rec go addr len rest =
    if len > 0 then
      let n = min step len in
      match f addr n with Ok () -> go (addr + n) (len - n) rest | Error _ as e -> e
    else match rest with [] -> Ok () | (off, len) :: rest -> go off len rest
  in
  go 0 0 extents

let slice_bytes = 64 * 1024

(* Copy every durable byte from one device of the pair onto the other:
   the metadata reserve plus every allocated extent, in 64 KiB RDMA
   transfers through the manager's CPU.  Shared by the Resync management
   request and the health monitor's re-admission path.  On success the
   rebuilt device gets its AVT windows back, a demoted mirror is
   re-admitted, and the volume is fenced so clients re-open against the
   fresh pair. *)
let do_resync t meta ~from_primary =
  let src_dev, dst_dev =
    if from_primary then (t.prim_dev, t.mirr_dev) else (t.mirr_dev, t.prim_dev)
  in
  (* A power cycle entirely inside one chunk transfer is invisible to
     the RDMA completion (the NIC only checks liveness at initiation),
     so snapshot the devices' cycle counters and compare after the
     copy: any blip means the rebuilt image cannot be trusted. *)
  let cycles () = src_dev.dev_power_cycles () + dst_dev.dev_power_cycles () in
  let cycles_before = cycles () in
  (* One staging buffer for the whole copy: each slice is read into it
     and written out of it before the next read starts. *)
  let staging = Bytes.create slice_bytes in
  let copied = ref 0 in
  let copy addr n =
    match
      Servernet.Fabric.rdma_read_into t.fabric ~src:(src_endpoint t) ~dst:src_dev.dev_id ~addr
        ~len:n ~buf:staging ~pos:0
    with
    | Error _ as e -> e
    | Ok () -> (
        let data = if n = slice_bytes then staging else Bytes.sub staging 0 n in
        match
          Servernet.Fabric.rdma_write t.fabric ~src:(src_endpoint t) ~dst:dst_dev.dev_id ~addr
            ~data
        with
        | Error _ as e -> e
        | Ok () ->
            copied := !copied + n;
            Ok ())
  in
  let result =
    match walk ~step:slice_bytes ((0, meta_reserve) :: extents meta) copy with
    | Error e -> Error (Servernet.Fabric.error_to_string e)
    | Ok () when cycles () <> cycles_before -> Error "device power-cycled during copy"
    | Ok () -> Ok ()
  in
  match result with
  | Ok () ->
      (* The rebuilt device also needs the AVT windows. *)
      List.iter (program_window t dst_dev) meta.regions;
      t.prim_ok <- true;
      t.mirr_ok <- true;
      (* A fresh copy also re-admits a demoted (persistently slow)
         mirror: full-durability mirrored writes resume at the fence. *)
      if not t.mirror_active then begin
        t.mirror_active <- true;
        t.readmissions <- t.readmissions + 1
      end;
      (* A rebuilt mirror is a new incarnation of the volume: fence
         grants issued while it was degraded so clients re-open and
         resume mirrored writes against the fresh pair. *)
      bump_epoch t meta;
      Ok !copied
  | Error e ->
      (* The destination holds a half-built image: the volume stays
         degraded until a clean resync completes. *)
      if from_primary then t.mirr_ok <- false else t.prim_ok <- false;
      Error e

(* Demote a persistently slow mirror: clients stop writing to (and
   reading from) it under the explicit degraded-durability contract.
   The epoch bump fences every outstanding grant, so clients re-open,
   see [mirror_active = false] in the refreshed region info, and switch
   to single-copy writes.  Re-admission is a resync. *)
let demote_mirror t =
  match Procpair.live t.pair with
  | None -> false
  | Some meta ->
      if t.mirror_active then begin
        t.mirror_active <- false;
        t.demotions <- t.demotions + 1;
        bump_epoch t meta;
        true
      end
      else false

(* Whether each copy of the chunk at [addr] can still be trusted to hold
   what the scrubber last blessed: its device has not power-cycled since
   the chunk was marked clean.  Neither can without a mark on record. *)
let steady t st addr =
  match Hashtbl.find_opt st.s_clean_cycles addr with
  | Some (p, m) -> (t.prim_dev.dev_power_cycles () = p, t.mirr_dev.dev_power_cycles () = m)
  | None -> (false, false)

(* A table match only arbitrates if the matching device has not
   power-cycled since the entry was recorded: a cycle can roll the chunk
   back to exactly the blessed contents, and repairing the peer from the
   rollback would destroy the only copy of writes acked since the last
   clean scan. *)
let arbitrate ~trusted ~steady:(prim_steady, mirr_steady) p m =
  match trusted with
  | Some crc when prim_steady && Int32.equal crc (Crc32.bytes p) -> Some `Primary
  | Some crc when mirr_steady && Int32.equal crc (Crc32.bytes m) -> Some `Mirror
  | _ -> None

(* What a request does: answer at once, or change the region table —
   the new region list, the window change it needs on each device, and
   the answer once the change is durable. *)
type action =
  | Answer of response
  | Mutate of { regions : region list; window : device -> unit; reply : unit -> response }

let plan t meta req =
  let replace region region' = List.map (fun r -> if r == region then region' else r) meta.regions in
  (* Map [region] on both devices once [regions] is durable. *)
  let remap regions region reply =
    Mutate { regions; window = (fun dev -> program_window t dev region); reply }
  in
  match req with
  | Create { rname; size; client } -> (
      if size <= 0 then Answer (R_error (Pm_types.Bad_request "size must be positive"))
      else if String.length rname > region_table.area then Answer (R_error (table_full ()))
      else if find_region meta rname <> None then Answer (R_error Pm_types.Region_exists)
      else
        match allocate t meta size with
        | None -> Answer (R_error Pm_types.Out_of_space)
        | Some offset ->
            let region = { rname; offset; length = size; openers = [ client ] } in
            remap (region :: meta.regions) region (fun () -> R_region (region_info t meta region)))
  | Open { rname; client } -> (
      match find_region meta rname with
      | None -> Answer (R_error Pm_types.No_such_region)
      | Some region when List.mem client region.openers ->
          Answer (R_region (region_info t meta region))
      | Some region ->
          let region' = { region with openers = client :: region.openers } in
          remap (replace region region') region' (fun () -> R_region (region_info t meta region')))
  | Close { rname; client } -> (
      match find_region meta rname with
      | None -> Answer (R_error Pm_types.No_such_region)
      | Some region when not (List.mem client region.openers) -> Answer R_ok
      | Some region ->
          let region' = { region with openers = List.filter (fun c -> c <> client) region.openers } in
          remap (replace region region') region' (fun () -> R_ok))
  | Delete { rname } -> (
      match find_region meta rname with
      | None -> Answer (R_error Pm_types.No_such_region)
      | Some region when region.openers <> [] -> Answer (R_error Pm_types.Region_busy)
      | Some region ->
          Mutate
            {
              regions = List.filter (fun r -> r != region) meta.regions;
              window = (fun dev -> unmap_window dev region);
              reply = (fun () -> R_ok);
            })
  | List_regions ->
      Answer
        (R_regions
           (List.map (region_info t meta)
              (List.sort (fun a b -> compare a.offset b.offset) meta.regions)))
  | Resync { from_primary } ->
      Answer
        (match do_resync t meta ~from_primary with
        | Ok bytes -> R_resynced { bytes }
        | Error e -> R_error (Pm_types.Bad_request ("resync: " ^ e)))
  | Chunk_crc { addr } ->
      (* The chunk holding [addr], cut exactly as the scrubber walks it. *)
      let holds off len = if addr >= off && addr < off + len then Error (off, len) else Ok () in
      Answer
        (match walk ~step:scrub_chunk_bytes (extents meta) holds with
        | Ok () -> R_error Pm_types.No_such_region
        | Error (chunk_off, chunk_len) ->
            let crc, steady, quarantined =
              match t.scrub with
              | Some st ->
                  ( Hashtbl.find_opt st.s_table chunk_off,
                    steady t st chunk_off,
                    Hashtbl.mem st.s_quar chunk_off )
              | None -> (None, (false, false), false)
            in
            R_chunk_crc { chunk_off; chunk_len; crc; steady; quarantined })

(* The one path every region-table change takes: install the new
   regions, persist, then set each device's window and answer; when the
   table cannot be persisted, put the old regions back. *)
let apply_mutation t meta ~regions ~window ~reply =
  let saved = meta.regions in
  meta.regions <- regions;
  match persist t meta with
  | Ok () ->
      checkpoint_meta t meta;
      window t.prim_dev;
      window t.mirr_dev;
      mgmt_delay t;
      reply ()
  | Error e ->
      (* Roll the generation back: nothing durable changed. *)
      meta.generation <- meta.generation - 1;
      meta.regions <- saved;
      R_error e

let handle_request t meta req =
  match plan t meta req with
  | Answer r -> r
  | Mutate { regions; window; reply } -> apply_mutation t meta ~regions ~window ~reply

let adopt t = function
  | Some blob ->
      (* Takeover: the checkpoint stream already built our state. *)
      decode_meta blob
  | None ->
      (* Boot/cold-boot: adopt the durable table and realign with
         whatever epoch the devices already enforce (they may be ahead
         if a previous incarnation's epoch persist was lost). *)
      let meta = recover t in
      meta.epoch <- max meta.epoch (armed_epoch t);
      arm t meta.epoch;
      meta

let serve t meta =
  (* A promotion onto the checkpointed table fences the volume: the
     deposed primary and every client granted under it must re-open
     before writing.  The fence runs here, once the table is adopted, so
     the scrubber and monitor already work against it while the new
     epoch persists. *)
  if Option.is_some (Procpair.shadow t.pair) then bump_epoch t meta;
  while true do
    let req, respond = Msgsys.next_request t.srv in
    Cpu.execute (current_cpu t) op_cpu_cost;
    respond (handle_request t meta req)
  done

let start ~fabric ~name ~primary_cpu ~backup_cpu ~primary_dev ~mirror_dev () =
  let srv = Msgsys.create_server fabric ~cpu:primary_cpu ~name in
  let pair =
    Procpair.create ~fabric ~name ~primary:primary_cpu ~backup:backup_cpu ~port:srv ~shadow:None
      ~apply:(fun _ blob -> Some blob)
      ()
  in
  let t =
    {
      fabric;
      pmm_name = name;
      prim_dev = primary_dev;
      mirr_dev = mirror_dev;
      srv;
      pair;
      prim_ok = true;
      mirr_ok = true;
      mgmt_initiators = [ Cpu.endpoint_id primary_cpu; Cpu.endpoint_id backup_cpu ];
      recovery_time = None;
      scrub = None;
      mirror_active = true;
      demotions = 0;
      readmissions = 0;
      monitor = None;
    }
  in
  claim_metadata_windows t ~primary_cpu ~backup_cpu;
  Procpair.start pair ~adopt:(adopt t) (serve t);
  t

(* --- Background scrubber --- *)

let scrub_magic = 0x53435242 (* "SCRB" *)

let scrub_image ~generation ~chunk_bytes entries quarantined =
  let enc = Codec.Enc.create () in
  Codec.Enc.u32 enc chunk_bytes;
  Codec.Enc.u32 enc (List.length entries);
  List.iter
    (fun (addr, crc) ->
      Codec.Enc.u32 enc addr;
      Codec.Enc.u32 enc (Int32.to_int crc land 0xFFFFFFFF))
    entries;
  Codec.Enc.u32 enc (List.length quarantined);
  List.iter
    (fun (addr, len) ->
      Codec.Enc.u32 enc addr;
      Codec.Enc.u32 enc len)
    quarantined;
  Codec.frame ~magic:scrub_magic ~generation (Codec.Enc.to_bytes enc)

(* Returns (generation, chunk_bytes, entries, quarantined). *)
let parse_scrub_slot =
  Codec.unframe ~magic:scrub_magic (fun generation payload ->
      let pd = Codec.Dec.of_bytes payload in
      let chunk_bytes = Codec.Dec.u32 pd in
      let n = Codec.Dec.u32 pd in
      let entries =
        List.init n (fun _ ->
            let addr = Codec.Dec.u32 pd in
            let c = Codec.Dec.u32 pd in
            (addr, Int32.of_int c))
      in
      let nq = Codec.Dec.u32 pd in
      let quar =
        List.init nq (fun _ ->
            let addr = Codec.Dec.u32 pd in
            let len = Codec.Dec.u32 pd in
            (addr, len))
      in
      Some (generation, chunk_bytes, entries, quar))

let scrub_table =
  {
    base = meta_reserve / 8;
    area = (meta_reserve / 2) - (meta_reserve / 8);
    parse = parse_scrub_slot;
    generation_of = (fun (g, _, _, _) -> g);
  }

let scrub_epoch t = match Procpair.live t.pair with Some m -> m.epoch | None -> armed_epoch t

(* Persist the checksum table (new generation, alternating slot).
   Written {e after} a pass's repairs: a table older than the data is
   merely conservative (the stale chunk strikes toward quarantine
   instead of auto-repairing), a table newer than the data could bless a
   write that never landed. *)
let persist_scrub t st =
  let generation = st.s_generation + 1 in
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let image =
    scrub_image ~generation ~chunk_bytes:scrub_chunk_bytes (sorted st.s_table) (sorted st.s_quar)
  in
  match
    write_table t ~src:(fun () -> Cpu.endpoint st.s_cpu) ~epoch:(scrub_epoch t) scrub_table
      ~generation image
  with
  | Some (p, m) when p || m -> st.s_generation <- generation
  | _ -> ()

let load_scrub t st =
  match read_table t ~src:(fun () -> Cpu.endpoint st.s_cpu) scrub_table with
  | Some (generation, chunk_bytes, entries, quar) when chunk_bytes = scrub_chunk_bytes ->
      st.s_generation <- generation;
      List.iter (fun (addr, crc) -> Hashtbl.replace st.s_table addr crc) entries;
      List.iter (fun (addr, len) -> Hashtbl.replace st.s_quar addr len) quar
  | Some (generation, _, _, _) ->
      (* Geometry changed: the stored table is useless, but keep the
         generation monotone so the next persist supersedes it. *)
      st.s_generation <- generation
  | None -> ()

(* Read one chunk in 64 KiB RDMA slices, each straight into [buf], which
   is exactly the chunk's length.  [None] when the device is unreachable. *)
let scrub_read_chunk t st dev buf ~addr =
  let read a n =
    Servernet.Fabric.rdma_read_into t.fabric ~src:(Cpu.endpoint st.s_cpu) ~dst:dev.dev_id
      ~addr:a ~len:n ~buf ~pos:(a - addr)
  in
  match walk ~step:slice_bytes [ (addr, Bytes.length buf) ] read with
  | Ok () -> Some buf
  | Error _ -> None

(* Both copies of a chunk, primary first, into the scrubber's own
   buffers; they are reallocated only when the chunk length changes, at
   a region tail shorter than a chunk. *)
let scrub_read_pair t st ~addr ~len =
  if Bytes.length st.s_prim_buf <> len then begin
    st.s_prim_buf <- Bytes.create len;
    st.s_mirr_buf <- Bytes.create len
  end;
  let p = scrub_read_chunk t st t.prim_dev st.s_prim_buf ~addr in
  let m = scrub_read_chunk t st t.mirr_dev st.s_mirr_buf ~addr in
  (p, m)

let scrub_strike st ~addr ~len =
  let n = (match Hashtbl.find_opt st.s_strikes addr with Some n -> n | None -> 0) + 1 in
  if n >= scrub_quarantine_after then begin
    Hashtbl.replace st.s_quar addr len;
    Hashtbl.remove st.s_table addr;
    Hashtbl.remove st.s_clean_cycles addr;
    Hashtbl.remove st.s_strikes addr;
    st.s_quarantined <- st.s_quarantined + 1
  end
  else Hashtbl.replace st.s_strikes addr n

(* Record a chunk whose copies compared equal.  The entry only feeds
   future arbitration when both devices are reachable at mark time: a
   chunk read can straddle a power-off — the first copy snapshotted just
   before the device went dark, the second just after — and blessing
   that straddled state would later let the dark device's (unchanged)
   copy win an arbitration against acked single-copy writes the survivor
   absorbed during the outage.  Strikes still reset either way: the
   copies did agree. *)
let scrub_mark_clean t st ~addr crc =
  if t.prim_dev.dev_alive () && t.mirr_dev.dev_alive () then begin
    Hashtbl.replace st.s_table addr crc;
    Hashtbl.replace st.s_clean_cycles addr
      (t.prim_dev.dev_power_cycles (), t.mirr_dev.dev_power_cycles ())
  end;
  Hashtbl.remove st.s_strikes addr

let scrub_repair t st ~dst_dev ~addr ~data ~len =
  match
    Servernet.Fabric.rdma_write ~epoch:(scrub_epoch t) t.fabric ~src:(Cpu.endpoint st.s_cpu)
      ~dst:dst_dev.dev_id ~addr ~data
  with
  | Ok () ->
      scrub_mark_clean t st ~addr (Crc32.bytes data);
      st.s_repairs <- st.s_repairs + 1
  | Error _ -> scrub_strike st ~addr ~len

(* Compare the copies and bless the chunk when they agree.  No
   suspension inside, so it is one [Prof] section. *)
let scrub_compare t st ~addr p m =
  let sect = Prof.section_begin () in
  let same = Bytes.equal p m in
  if same then scrub_mark_clean t st ~addr (Crc32.bytes p);
  Prof.section_end sect "pmm";
  same

let scrub_arbitrate t st ~addr ~len p m =
  match arbitrate ~trusted:(Hashtbl.find_opt st.s_table addr) ~steady:(steady t st addr) p m with
  | Some `Primary -> scrub_repair t st ~dst_dev:t.mirr_dev ~addr ~data:p ~len
  | Some `Mirror -> scrub_repair t st ~dst_dev:t.prim_dev ~addr ~data:m ~len
  | None -> scrub_strike st ~addr ~len

(* Scan one chunk: compare the copies, and on divergence let the durable
   checksum table arbitrate which copy is truth.  A transient divergence
   (a mirrored write in flight between the two reads) is filtered by a
   settle-and-recheck; a chunk where neither copy matches the table —
   legitimate writes landed since the last clean scan, plus corruption —
   cannot be arbitrated and strikes toward quarantine. *)
let scrub_chunk t st ~addr ~len =
  match scrub_read_pair t st ~addr ~len with
  | Some p, Some m ->
      st.s_chunks <- st.s_chunks + 1;
      if not (scrub_compare t st ~addr p m) then begin
        Sim.sleep scrub_recheck;
        match scrub_read_pair t st ~addr ~len with
        | Some p, Some m ->
            if not (scrub_compare t st ~addr p m) then scrub_arbitrate t st ~addr ~len p m
        | _ -> ()
      end
  | _ ->
      (* One copy unreachable: nothing to compare against.  The scrubber
         resumes the chunk when the device returns. *)
      ()

let scrub_pass t st =
  match Procpair.live t.pair with
  | None -> ()
  | Some meta ->
      let scan addr len =
        if not st.s_running then Error ()
        else begin
          if not (Hashtbl.mem st.s_quar addr) then begin
            let started = Sim.now (Cpu.sim st.s_cpu) in
            Obs.enqueue st.s_probe;
            scrub_chunk t st ~addr ~len;
            Obs.served st.s_probe (Sim.now (Cpu.sim st.s_cpu) - started)
          end;
          Sim.sleep st.s_interval;
          Ok ()
        end
      in
      ignore (walk ~step:scrub_chunk_bytes (sorted_extents meta) scan);
      st.s_passes <- st.s_passes + 1;
      persist_scrub t st

let start_scrubber t ~cpu ?(interval = Time.us 100) ?obs () =
  (match t.scrub with
  | Some _ -> invalid_arg "Pmm.start_scrubber: already running"
  | None -> ());
  let st =
    {
      s_interval = interval;
      s_cpu = cpu;
      s_table = Hashtbl.create 64;
      s_clean_cycles = Hashtbl.create 64;
      s_strikes = Hashtbl.create 8;
      s_quar = Hashtbl.create 8;
      s_generation = 0;
      s_running = true;
      s_passes = 0;
      s_chunks = 0;
      s_repairs = 0;
      s_quarantined = 0;
      s_probe = Obs.probe obs "pmm.scrub";
      s_prim_buf = Bytes.empty;
      s_mirr_buf = Bytes.empty;
    }
  in
  t.scrub <- Some st;
  Obs.gauge obs "pmm.scrub.regions" (fun () -> float_of_int st.s_chunks);
  Obs.gauge obs "pmm.scrub.repaired" (fun () -> float_of_int st.s_repairs);
  Obs.gauge obs "pmm.scrub.quarantined" (fun () -> float_of_int st.s_quarantined);
  Obs.gauge obs "pmm.scrub.passes" (fun () -> float_of_int st.s_passes);
  ignore
    (Cpu.spawn cpu ~name:(t.pmm_name ^ "-scrubber") (fun () ->
         (* Wait for the serve loop to adopt metadata before the first
            pass (and before loading the durable table: the epoch realign
            happens there too). *)
         while st.s_running && Procpair.live t.pair = None do
           Sim.sleep (Time.ms 1)
         done;
         if st.s_running then load_scrub t st;
         while st.s_running do
           scrub_pass t st;
           Sim.sleep st.s_interval
         done))

let stop_scrubber t = match t.scrub with Some st -> st.s_running <- false | None -> ()

let scrub_chunks_scanned t = match t.scrub with Some st -> st.s_chunks | None -> 0

let scrub_repairs t = match t.scrub with Some st -> st.s_repairs | None -> 0

let scrub_quarantined t = match t.scrub with Some st -> st.s_quarantined | None -> 0

let scrub_table_entries t =
  match t.scrub with Some st -> Hashtbl.length st.s_table | None -> 0

let scrub_quarantined_chunks t =
  match t.scrub with
  | Some st -> List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.s_quar [])
  | None -> []

(* Maintenance-path full-content audit: compare every allocated extent
   across the pair page by page, in scrub-chunk geometry, skipping
   quarantined chunks.  Untouched pages compare equal unread.  Drills
   call this after recovery to prove no divergence survived unnoticed. *)
let divergent_chunks t =
  match Procpair.live t.pair with
  | None -> []
  | Some meta ->
      let sect = Prof.section_begin () in
      let quarantined addr =
        match t.scrub with Some st -> Hashtbl.mem st.s_quar addr | None -> false
      in
      let diverged = ref [] in
      let audit addr len =
        let same = Pages.equal t.prim_dev.dev_mem t.mirr_dev.dev_mem ~off:addr ~len in
        if not (same || quarantined addr) then diverged := (addr, len) :: !diverged;
        Ok ()
      in
      ignore (walk ~step:scrub_chunk_bytes (sorted_extents meta) audit);
      Prof.section_end sect "pmm";
      List.rev !diverged

(* --- Mirror-health monitor --- *)

(* Time one tiny RDMA read of the device's metadata window.  [None] when
   the device did not answer at all (a fail-stop, handled elsewhere —
   the monitor only tracks fail-slow). *)
let monitor_probe t m dev =
  let sim = Cpu.sim m.m_cpu in
  let t0 = Sim.now sim in
  match
    Servernet.Fabric.rdma_read t.fabric ~src:(Cpu.endpoint m.m_cpu) ~dst:dev.dev_id ~addr:0
      ~len:probe_bytes
  with
  | Ok _ -> Some (Sim.now sim - t0)
  | Error _ -> None

let monitor_ewma m prev dt =
  if prev = 0.0 then float_of_int dt
  else (m.m_cfg.health_alpha *. float_of_int dt) +. ((1.0 -. m.m_cfg.health_alpha) *. prev)

(* One monitoring round: probe both devices, update the smoothed view,
   and act on the mirror's trend — demote after [demote_after]
   consecutive over-budget probes, re-admit (via a full resync) after
   [readmit_after] consecutive in-budget probes while demoted. *)
let monitor_round t m =
  (match monitor_probe t m t.prim_dev with
  | Some dt -> m.m_prim_ewma <- monitor_ewma m m.m_prim_ewma dt
  | None -> ());
  match monitor_probe t m t.mirr_dev with
  | None -> ()
  | Some dt ->
      m.m_probes <- m.m_probes + 1;
      m.m_mirr_ewma <- monitor_ewma m m.m_mirr_ewma dt;
      let budget = float_of_int health_slo in
      if m.m_mirr_ewma > budget then begin
        m.m_mirr_breaches <- m.m_mirr_breaches + 1;
        m.m_mirr_healthy <- 0
      end
      else begin
        m.m_mirr_healthy <- m.m_mirr_healthy + 1;
        m.m_mirr_breaches <- 0
      end;
      if t.mirror_active then begin
        if m.m_mirr_breaches >= m.m_cfg.demote_after then ignore (demote_mirror t)
      end
      else if m.m_mirr_healthy >= m.m_cfg.readmit_after then
        match Procpair.live t.pair with
        | None -> ()
        | Some meta ->
            (* A failed resync leaves the mirror demoted; the healthy
               streak keeps growing and the next round retries. *)
            (match do_resync t meta ~from_primary:true with Ok _ -> () | Error _ -> ())

let start_monitor t ~cpu ?(config = default_health_config) ?obs () =
  (match t.monitor with
  | Some _ -> invalid_arg "Pmm.start_monitor: already running"
  | None -> ());
  let m =
    {
      m_cfg = config;
      m_cpu = cpu;
      m_running = true;
      m_probes = 0;
      m_prim_ewma = 0.0;
      m_mirr_ewma = 0.0;
      m_mirr_breaches = 0;
      m_mirr_healthy = 0;
    }
  in
  t.monitor <- Some m;
  Obs.gauge obs "pmm.mirror_health" (fun () -> if t.mirror_active then 1.0 else 0.0);
  Obs.gauge obs "pmm.mirror_ewma_ns" (fun () -> m.m_mirr_ewma);
  Obs.gauge obs "pmm.primary_ewma_ns" (fun () -> m.m_prim_ewma);
  Obs.gauge obs "pmm.demotions" (fun () -> float_of_int t.demotions);
  Obs.gauge obs "pmm.readmissions" (fun () -> float_of_int t.readmissions);
  ignore
    (Cpu.spawn cpu ~name:(t.pmm_name ^ "-monitor") (fun () ->
         (* Wait for the serve loop to adopt metadata: probes read the
            metadata window, and demotion needs a live table to fence. *)
         while m.m_running && Procpair.live t.pair = None do
           Sim.sleep (Time.ms 1)
         done;
         while m.m_running do
           monitor_round t m;
           Sim.sleep m.m_cfg.probe_interval
         done))

let stop_monitor t = match t.monitor with Some m -> m.m_running <- false | None -> ()

let mirror_active t = t.mirror_active

let demotions t = t.demotions

let readmissions t = t.readmissions

let monitor_probes t = match t.monitor with Some m -> m.m_probes | None -> 0

let monitor_ewma_ns t ~mirror =
  match t.monitor with
  | Some m -> if mirror then m.m_mirr_ewma else m.m_prim_ewma
  | None -> 0.0

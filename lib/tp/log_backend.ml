open Pm

let header_size = 64

let ring_magic = 0x41445230 (* "ADR0" *)

type pm_state = {
  client : Pm_client.t;
  handle : Pm_client.handle;
  data_start : int;
  data_limit : int;
  mutable write_off : int;
  mutable wrapped : bool;
}

type kind =
  | Disk of {
      vol : Diskio.Volume.t;
      mirror : Diskio.Volume.t option;
      mutable shadow : (Audit.asn * Audit.record) list;  (** newest-first *)
    }
  | Pm of pm_state

type t = {
  kind : kind;
  mutable bytes : int;
  mutable ops : int;
  obs : Simkit.Obs.t option;
  write_stat : Simkit.Stat.t option;
  now : unit -> Simkit.Time.t;
}

let disk ?mirror ?obs vol =
  {
    kind = Disk { vol; mirror; shadow = [] };
    bytes = 0;
    ops = 0;
    obs;
    write_stat = Simkit.Obs.stat obs "log.write_ns";
    now = (fun () -> Simkit.Sim.now (Diskio.Volume.sim vol));
  }

let pm ?obs client handle =
  let info = Pm_client.info handle in
  let length = info.Pm_types.length in
  if length < 4096 then invalid_arg "Log_backend.pm: region too small";
  {
    kind =
      Pm { client; handle; data_start = header_size; data_limit = length; write_off = header_size; wrapped = false };
    bytes = 0;
    ops = 0;
    obs;
    write_stat = Simkit.Obs.stat obs "log.write_ns";
    now = (fun () -> Simkit.Sim.now (Nsk.Cpu.sim (Pm_client.cpu client)));
  }

let synchronous t = match t.kind with Disk _ -> false | Pm _ -> true

let framed_size record = 8 + Audit.wire_size record

(* Frame a record with its ASN for the PM ring, up to the payload: the
   caller sends [Audit.payload_padding record] zero bytes after it as a
   length, so the frame is built at its ~60-byte head, not its full
   [framed_size]. *)
let encode_framed asn record =
  let enc = Codec.Enc.create ~size:(framed_size record - Audit.payload_padding record) () in
  Codec.Enc.u64 enc asn;
  Audit.encode_head enc record;
  Codec.Enc.to_bytes enc

(* The header is itself a torn-write target (it is rewritten on every
   append), so it is a 13-byte sealed block: recovery that finds it
   invalid falls back to scanning the whole data area instead of
   trusting a garbled frontier. *)
let ring_header_bytes = 13

let pm_header p =
  Codec.seal ~magic:ring_magic ~size:ring_header_bytes (fun enc ->
      Codec.Enc.u32 enc p.write_off;
      Codec.Enc.u8 enc (if p.wrapped then 1 else 0))

(* [Some frontier] when the header is intact, [None] when torn/decayed. *)
let parse_pm_header = Codec.unseal ~magic:ring_magic ~size:ring_header_bytes Codec.Dec.u32

let write_records ?parent t records =
  let t0 = t.now () in
  let sp = Simkit.Obs.start t.obs ~track:"log" ?parent "log.write" in
  if not (Simkit.Span.is_null sp) then begin
    Simkit.Span.annotate sp ~key:"records" (string_of_int (List.length records));
    Simkit.Span.annotate sp ~key:"backend" (match t.kind with Disk _ -> "disk" | Pm _ -> "pm")
  end;
  let result =
    match t.kind with
    | Disk d ->
        let len =
          List.fold_left (fun acc (_, r) -> acc + framed_size r) 0 records
        in
        t.bytes <- t.bytes + len;
        t.ops <- t.ops + 1;
        let append_mirrored () =
          match Diskio.Volume.append ~parent:sp d.vol ~len with
          | Error Diskio.Volume.Volume_down -> Error "audit volume down"
          | Ok () -> (
              (* Serial write-both: the mirror starts only after the
                 primary completes, so no torn record can exist on both. *)
              match d.mirror with
              | None -> Ok ()
              | Some m -> (
                  match Diskio.Volume.append ~parent:sp m ~len with
                  | Ok () -> Ok ()
                  | Error Diskio.Volume.Volume_down ->
                      (* Degraded but durable on the survivor. *)
                      Ok ()))
        in
        (match append_mirrored () with
        | Ok () ->
            d.shadow <- List.rev_append records d.shadow;
            Ok ()
        | Error e -> Error e)
    | Pm p ->
        let write_one (asn, record) =
          let data = encode_framed asn record in
          let pad = Audit.payload_padding record in
          let len = Bytes.length data + pad in
          if p.write_off + len > p.data_limit then begin
            (* Ring wrap: restart at the front of the data area.  A real
               trail would have archived the tail long before. *)
            p.write_off <- p.data_start;
            p.wrapped <- true
          end;
          match Pm_client.write ~span:sp ~pad p.client p.handle ~off:p.write_off ~data with
          | Ok () ->
              p.write_off <- p.write_off + len;
              t.bytes <- t.bytes + len;
              Ok ()
          | Error e -> Error (Pm_types.error_to_string e)
        in
        let rec write_all = function
          | [] -> Ok ()
          | r :: rest -> ( match write_one r with Ok () -> write_all rest | Error e -> Error e)
        in
        (match write_all records with
        | Error e -> Error e
        | Ok () -> (
            t.ops <- t.ops + 1;
            (* Persist the ring header so recovery knows the write frontier. *)
            match Pm_client.write ~span:sp p.client p.handle ~off:0 ~data:(pm_header p) with
            | Ok () -> Ok ()
            | Error e -> Error (Pm_types.error_to_string e)))
  in
  Simkit.Obs.note t.write_stat (t.now () - t0);
  Simkit.Obs.finish t.obs sp;
  result

let trim t ~through =
  match t.kind with
  | Disk d ->
      let keep, drop = List.partition (fun (asn, _) -> asn > through) d.shadow in
      d.shadow <- keep;
      List.length drop
  | Pm p ->
      (* The ring reclaims itself by wrapping; trimming just notes the
         archive point (a real system would also persist it). *)
      ignore p;
      0

let bytes_written t = t.bytes

let writes t = t.ops

(* Parse the frames of [buf.[pos, filled)], a window onto a trail that
   ends at [stop] (window offsets; past [filled] while the trail goes
   on), pushing [(asn, record)]s onto [acc].  Returns [acc], the offset
   where parsing stopped, and whether the frame there is bad rather than
   cut off by the window's end.  A frame's head is its 8-byte ASN, the
   magic, the body length at +10, the body and a 4-byte CRC. *)
let parse_frames buf ~pos ~filled ~stop acc =
  let rec go pos acc =
    let avail = filled - pos in
    if pos >= stop || (filled < stop && (avail < 12 || avail < 16 + Bytes.get_uint16_le buf (pos + 10)))
    then (acc, pos, false)
    else
      match
        let asn = Codec.Dec.u64 (Codec.Dec.of_sub buf ~pos ~len:avail) in
        (asn, Audit.decode ~stop buf ~pos:(pos + 8))
      with
      | asn, Some (record, next) -> go next ((asn, record) :: acc)
      | _, None | (exception Codec.Dec.Truncated) -> (acc, pos, true)
  in
  go pos acc

let recovery_read t =
  match t.kind with
  | Disk d ->
      (* Stream the trail back from the audit volume. *)
      let total = t.bytes in
      let chunk = 256 * 1024 in
      let rec read_off off =
        if off >= total then Ok ()
        else
          let len = min chunk (total - off) in
          match Diskio.Volume.read d.vol ~block:(off / 512) ~len with
          | Ok () -> read_off (off + len)
          | Error Diskio.Volume.Volume_down -> Error "audit volume down"
      in
      (match read_off 0 with
      | Error e -> Error e
      | Ok () -> Ok (List.rev d.shadow))
  | Pm p -> (
      (* RDMA the ring header, then only the valid bytes behind the write
         frontier -- fine-grained state means no full-region scans.
         Recovery reads take the verified path when the client enables
         it: a decayed region is cross-checked against the mirror and
         read-repaired here, instead of silently truncating the replay
         at the first corrupt frame. *)
      let region_read_into =
        if Pm_client.verified_reads_enabled p.client then Pm_client.read_verified_into
        else fun c h ~off ~len ~buf ~pos -> Pm_client.read_into c h ~off ~len ~buf ~pos
      in
      let hdr = Bytes.create header_size in
      match region_read_into p.client p.handle ~off:0 ~len:header_size ~buf:hdr ~pos:0 with
      | Error e -> Error (Pm_types.error_to_string e)
      | Ok () ->
          let info = Pm_client.info p.handle in
          let routed_limit =
            (* A torn or decayed header cannot be trusted for the
               frontier: scan the whole data area and let the per-frame
               CRCs find the end of the valid prefix. *)
            match parse_pm_header hdr with
            | Some frontier -> min frontier info.Pm_types.length
            | None -> info.Pm_types.length
          in
          (* The routed header can also be STALE: appends that landed
             while this device was dark advanced only the mirror's
             frontier, and once the device powers back on its own
             header parses clean at the old offset.  Read the mirror's
             header too and scan out to the further of the two — the
             tail past the routed frontier exists only on the mirror. *)
          let mirror_limit =
            match
              Pm_client.read_device p.client p.handle ~mirror:true ~off:0
                ~len:header_size
            with
            | Error _ -> 0
            | Ok mhdr -> (
                match parse_pm_header mhdr with
                | Some frontier -> min frontier info.Pm_types.length
                | None -> 0)
          in
          let limit = max routed_limit mirror_limit in
          if limit <= header_size then Ok []
          else begin
            let chunk = 64 * 1024 in
            (* Each chunk lands in one reused window behind the head of a
               frame the previous chunk cut off ([keep] bytes); [base] is
               the trail offset of the window's first byte, [next] that
               of the next frame to parse.  A frame's payload padding is
               skipped by length, so [next] may lie chunks ahead. *)
            let win = ref (Bytes.create (min (2 * chunk) (limit - header_size))) in
            let base = ref header_size and next = ref header_size in
            let records = ref [] and bad = ref None in
            let rec fetch off =
              if off >= limit then Ok ()
              else
                (* Past the routed frontier lies the mirror-only tail. *)
                let tail = off >= routed_limit in
                let len = min chunk ((if tail then limit else routed_limit) - off) in
                let keep = if !bad = None then max 0 (off - !next) else 0 in
                let w = if Bytes.length !win >= keep + len then !win else Bytes.create (keep + len) in
                Bytes.blit !win (off - keep - !base) w 0 keep;
                win := w;
                base := off - keep;
                match
                  if tail then
                    Pm_client.read_device_into p.client p.handle ~mirror:true ~off ~len ~buf:w
                      ~pos:keep
                  else region_read_into p.client p.handle ~off ~len ~buf:w ~pos:keep
                with
                | Error e -> Error (Pm_types.error_to_string e)
                | Ok () ->
                    if !bad = None then begin
                      let acc, at, failed =
                        parse_frames w ~pos:(!next - !base) ~filled:(keep + len) ~stop:(limit - !base)
                          !records
                      in
                      records := acc;
                      next := !base + at;
                      if failed then bad := Some !next
                    end;
                    fetch (off + len)
            in
            match fetch header_size with
            | Error e -> Error e
            | Ok () -> (
                match !bad with
                | Some bad when Pm_client.verified_reads_enabled p.client -> (
                    (* A frame that fails its CRC mid-trail may be a store
                       torn on this copy only: every record was written to
                       both mirrors before the commit acked, so the other
                       copy still holds it intact.  Re-fetch the rest of
                       the area from the mirror and keep parsing; if the
                       mirror fails at the same spot it is a genuine torn
                       tail and the replay truncates there. *)
                    let rest = Bytes.create (limit - bad) in
                    match
                      Pm_client.read_device_into p.client p.handle ~mirror:true ~off:bad
                        ~len:(limit - bad) ~buf:rest ~pos:0
                    with
                    | Ok () ->
                        let acc, _, _ =
                          parse_frames rest ~pos:0 ~filled:(limit - bad) ~stop:(limit - bad) !records
                        in
                        Ok (List.rev acc)
                    | Error _ -> Ok (List.rev !records))
                | _ -> Ok (List.rev !records))
          end)

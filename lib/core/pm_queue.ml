type error = Pm_types.error

let meta_magic = 0x504D5155 (* "PMQU" *)

let block_magic = 0x51424C4B (* "QBLK" *)

let meta_off = 0

let producer_off = 64

let consumer_off = 128

let data_off = 192

let block_bytes = 64

type t = { client : Pm_client.t; handle : Pm_client.handle; data_len : int }

(* --- control blocks: a single u64 logical position, sealed --- *)

let write_block t ~off pos =
  Pm_client.write t.client t.handle ~off
    ~data:(Codec.seal ~magic:block_magic ~size:block_bytes (fun enc -> Codec.Enc.u64 enc pos))

let read_block t ~off =
  match Pm_client.read t.client t.handle ~off ~len:block_bytes with
  | Error e -> Error e
  | Ok buf -> (
      match Codec.unseal ~magic:block_magic ~size:block_bytes Codec.Dec.u64 buf with
      | Some pos -> Ok pos
      | None -> Error (Pm_types.Bad_request "corrupt queue control block"))

(* --- the ring as a contiguous logical byte stream --- *)

let phys t pos = data_off + (pos mod t.data_len)

(* Write [data] at logical position [pos], splitting at the ring edge. *)
let write_stream t ~pos data =
  let len = Bytes.length data in
  let off = phys t pos in
  let first = min len (data_off + t.data_len - off) in
  match Pm_client.write t.client t.handle ~off ~data:(Bytes.sub data 0 first) with
  | Error e -> Error e
  | Ok () ->
      if first = len then Ok ()
      else
        Pm_client.write t.client t.handle ~off:data_off
          ~data:(Bytes.sub data first (len - first))

let read_stream t ~pos ~len =
  let off = phys t pos in
  let first = min len (data_off + t.data_len - off) in
  match Pm_client.read t.client t.handle ~off ~len:first with
  | Error e -> Error e
  | Ok a ->
      if first = len then Ok a
      else (
        match Pm_client.read t.client t.handle ~off:data_off ~len:(len - first) with
        | Error e -> Error e
        | Ok b ->
            let out = Bytes.create len in
            Bytes.blit a 0 out 0 first;
            Bytes.blit b 0 out first (len - first);
            Ok out)

(* --- construction --- *)

let create client handle =
  let region_len = (Pm_client.info handle).Pm_types.length in
  if region_len < data_off + 256 then invalid_arg "Pm_queue.create: region too small";
  let data_len = region_len - data_off in
  let t = { client; handle; data_len } in
  let meta = Codec.seal ~magic:meta_magic ~size:block_bytes (fun enc -> Codec.Enc.u32 enc data_len) in
  match Pm_client.write client handle ~off:meta_off ~data:meta with
  | Error e -> Error e
  | Ok () -> (
      match write_block t ~off:producer_off 0 with
      | Error e -> Error e
      | Ok () -> (
          match write_block t ~off:consumer_off 0 with Error e -> Error e | Ok () -> Ok t))

let attach client handle =
  match Pm_client.read client handle ~off:meta_off ~len:block_bytes with
  | Error e -> Error e
  | Ok buf -> (
      match Codec.unseal ~magic:meta_magic ~size:block_bytes Codec.Dec.u32 buf with
      | Some data_len -> Ok { client; handle; data_len }
      | None -> Error (Pm_types.Bad_request "no queue in this region"))

(* --- operations --- *)

let frame_overhead = 8 (* u32 length + u32 crc *)

let enqueue t data =
  let len = Bytes.length data in
  let need = frame_overhead + len in
  if need > t.data_len then Error Pm_types.Out_of_space
  else
    match read_block t ~off:producer_off with
    | Error e -> Error e
    | Ok tail -> (
        match read_block t ~off:consumer_off with
        | Error e -> Error e
        | Ok head ->
            if tail - head + need > t.data_len then Error Pm_types.Out_of_space
            else begin
              let enc = Codec.Enc.create () in
              Codec.Enc.u32 enc len;
              Codec.Enc.raw enc data;
              Codec.Enc.u32 enc (Int32.to_int (Crc32.bytes data) land 0xFFFFFFFF);
              match write_stream t ~pos:tail (Codec.Enc.to_bytes enc) with
              | Error e -> Error e
              | Ok () ->
                  (* The producer-block flip is the commit point. *)
                  write_block t ~off:producer_off (tail + need)
            end)

let read_head t ~consume =
  match read_block t ~off:consumer_off with
  | Error e -> Error e
  | Ok head -> (
      match read_block t ~off:producer_off with
      | Error e -> Error e
      | Ok tail ->
          if head = tail then Ok None
          else
            match read_stream t ~pos:head ~len:4 with
            | Error e -> Error e
            | Ok hdr -> (
                let len = Codec.Dec.u32 (Codec.Dec.of_bytes hdr) in
                (* A length running past the tail is a damaged record:
                   reject it before reading (or allocating) that much. *)
                if head + frame_overhead + len > tail then
                  Error (Pm_types.Bad_request "corrupt queue record")
                else
                  match read_stream t ~pos:(head + 4) ~len:(len + 4) with
                  | Error e -> Error e
                  | Ok body ->
                      let data = Bytes.sub body 0 len in
                      let cdec = Codec.Dec.of_sub body ~pos:len ~len:4 in
                      let crc = Codec.Dec.u32 cdec in
                      if Int32.to_int (Crc32.bytes data) land 0xFFFFFFFF <> crc then
                        Error (Pm_types.Bad_request "corrupt queue record")
                      else if not consume then Ok (Some data)
                      else (
                        match write_block t ~off:consumer_off (head + frame_overhead + len) with
                        | Error e -> Error e
                        | Ok () -> Ok (Some data))))

let dequeue t = read_head t ~consume:true

let peek t = read_head t ~consume:false

let length t =
  match read_block t ~off:consumer_off with
  | Error e -> Error e
  | Ok head -> (
      match read_block t ~off:producer_off with
      | Error e -> Error e
      | Ok tail ->
          (* Walk the frames between head and tail. *)
          let rec count pos acc =
            if pos >= tail then Ok acc
            else
              match read_stream t ~pos ~len:4 with
              | Error e -> Error e
              | Ok hdr ->
                  let len = Codec.Dec.u32 (Codec.Dec.of_bytes hdr) in
                  count (pos + frame_overhead + len) (acc + 1)
          in
          count head 0)

let capacity_bytes t = t.data_len

type error = Pm_types.error

let log_magic = 0x504D4B56 (* "PMKV" *)

let log_header_bytes = 64

(* Locators pack a 34-bit offset and 24-bit length; the tombstone is 0
   (no real value can live at offset 0, the log header's home). *)
let tombstone = 0

let pack ~off ~len =
  if len >= 1 lsl 24 then invalid_arg "Pm_kv: value too large";
  (off lsl 24) lor len

let unpack v = (v lsr 24, v land 0xFFFFFF)

type t = {
  client : Pm_client.t;
  log : Pm_client.handle;
  index : Pm_index.t;
  mutable alloc : int;  (** next free byte in the value log *)
}

let decode_log_header = Codec.unseal ~magic:log_magic ~size:log_header_bytes Codec.Dec.u64

let write_log_header t =
  Pm_client.write t.client t.log ~off:0
    ~data:(Codec.seal ~magic:log_magic ~size:log_header_bytes (fun enc -> Codec.Enc.u64 enc t.alloc))

let create client ~index ~log =
  match Pm_index.create client index () with
  | Error e -> Error e
  | Ok ix -> (
      let t = { client; log; index = ix; alloc = log_header_bytes } in
      match write_log_header t with Ok () -> Ok t | Error e -> Error e)

let open_existing client ~index ~log =
  match Pm_index.open_existing client index with
  | Error e -> Error e
  | Ok ix -> (
      match Pm_client.read client log ~off:0 ~len:log_header_bytes with
      | Error e -> Error e
      | Ok buf -> (
          match decode_log_header buf with
          | Some alloc -> Ok { client; log; index = ix; alloc }
          | None -> Error (Pm_types.Bad_request "no value log in this region")))

let put t ~key value =
  let len = Bytes.length value in
  let log_len = (Pm_client.info t.log).Pm_types.length in
  if t.alloc + len > log_len then Error Pm_types.Out_of_space
  else begin
    let off = t.alloc in
    (* Value first, then the allocation frontier, then the index commit:
       a crash leaves at worst an orphaned value. *)
    let write_value =
      if len = 0 then Ok () else Pm_client.write t.client t.log ~off ~data:value
    in
    match write_value with
    | Error e -> Error e
    | Ok () -> (
        t.alloc <- off + len;
        match write_log_header t with
        | Error e -> Error e
        | Ok () -> Pm_index.insert t.index ~key ~value:(pack ~off ~len))
  end

let get t ~key =
  match Pm_index.find t.index ~key with
  | Error e -> Error e
  | Ok None -> Ok None
  | Ok (Some locator) ->
      if locator = tombstone then Ok None
      else
        let off, len = unpack locator in
        if len = 0 then Ok (Some Bytes.empty)
        else (
          match Pm_client.read t.client t.log ~off ~len with
          | Ok v -> Ok (Some v)
          | Error e -> Error e)

let delete t ~key =
  match Pm_index.find t.index ~key with
  | Error e -> Error e
  | Ok None -> Ok ()
  | Ok (Some locator) ->
      if locator = tombstone then Ok ()
      else Pm_index.insert t.index ~key ~value:tombstone

let mem t ~key = match get t ~key with Ok v -> Ok (v <> None) | Error e -> Error e

let fold_range t ~lo ~hi ~init ~f =
  match Pm_index.range t.index ~lo ~hi with
  | Error e -> Error e
  | Ok bindings ->
      let rec go acc = function
        | [] -> Ok acc
        | (key, locator) :: rest ->
            if locator = tombstone then go acc rest
            else
              let off, len = unpack locator in
              if len = 0 then go (f acc key Bytes.empty) rest
              else (
                match Pm_client.read t.client t.log ~off ~len with
                | Error e -> Error e
                | Ok v -> go (f acc key v) rest)
      in
      go init bindings

let entries t = Pm_index.cardinal t.index

let log_bytes_used t = t.alloc

let refresh t =
  match Pm_index.refresh t.index with
  | Error e -> Error e
  | Ok () -> (
      match Pm_client.read t.client t.log ~off:0 ~len:log_header_bytes with
      | Error e -> Error e
      | Ok buf -> (
          match decode_log_header buf with
          | Some alloc ->
              t.alloc <- alloc;
              Ok ()
          | None -> Error (Pm_types.Bad_request "no value log in this region")))

module Enc = struct
  type t = Buffer.t

  let create ?(size = 256) () = Buffer.create size

  let u8 t v = Buffer.add_char t (Char.chr (v land 0xFF))

  let u16 t v =
    u8 t v;
    u8 t (v lsr 8)

  let u32 t v =
    u16 t v;
    u16 t (v lsr 16)

  let u64 t v =
    u32 t v;
    u32 t (v lsr 32)

  let str t s =
    let n = String.length s in
    if n > 0xFFFF then invalid_arg "Codec.Enc.str: too long";
    u16 t n;
    Buffer.add_string t s

  let blob t b =
    u32 t (Bytes.length b);
    Buffer.add_bytes t b

  let raw t b = Buffer.add_bytes t b

  let zeros = String.make 4096 '\000'

  let rec pad t n =
    if n > 0 then begin
      let k = min n (String.length zeros) in
      Buffer.add_substring t zeros 0 k;
      pad t (n - k)
    end

  let length t = Buffer.length t

  let to_bytes t = Buffer.to_bytes t
end

module Dec = struct
  type t = { buf : Bytes.t; limit : int; mutable cursor : int }

  exception Truncated

  let of_sub buf ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length buf then raise Truncated;
    { buf; limit = pos + len; cursor = pos }

  let of_bytes buf = of_sub buf ~pos:0 ~len:(Bytes.length buf)

  let need t n = if t.cursor + n > t.limit then raise Truncated

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.get t.buf t.cursor) in
    t.cursor <- t.cursor + 1;
    v

  let u16 t =
    let lo = u8 t in
    let hi = u8 t in
    lo lor (hi lsl 8)

  let u32 t =
    let lo = u16 t in
    let hi = u16 t in
    lo lor (hi lsl 16)

  let u64 t =
    let lo = u32 t in
    let hi = u32 t in
    lo lor (hi lsl 32)

  let str t =
    let n = u16 t in
    need t n;
    let s = Bytes.sub_string t.buf t.cursor n in
    t.cursor <- t.cursor + n;
    s

  let blob t =
    let n = u32 t in
    need t n;
    let b = Bytes.sub t.buf t.cursor n in
    t.cursor <- t.cursor + n;
    b

  let remaining t = t.limit - t.cursor

  let pos t = t.cursor
end

let seal ~magic ~size fields =
  let enc = Enc.create ~size () in
  Enc.u32 enc magic;
  fields enc;
  let body = Enc.length enc in
  if body > size - 4 then invalid_arg "Codec.seal: fields overflow the block";
  Enc.pad enc (size - body);
  let out = Enc.to_bytes enc in
  Bytes.set_int32_le out (size - 4) (Crc32.sub out ~pos:0 ~len:(size - 4));
  out

let unseal ~magic ~size decode buf =
  if
    Bytes.length buf < size
    || not (Int32.equal (Bytes.get_int32_le buf (size - 4)) (Crc32.sub buf ~pos:0 ~len:(size - 4)))
  then None
  else
    try
      let dec = Dec.of_sub buf ~pos:0 ~len:(size - 4) in
      if Dec.u32 dec <> magic then None else Some (decode dec)
    with Dec.Truncated -> None

let frame_header_bytes = 4 + 8 + 4 + 4

let frame_crc_at = 16

let frame ~magic ~generation payload =
  let len = Bytes.length payload in
  let enc = Enc.create ~size:(frame_header_bytes + len) () in
  Enc.u32 enc magic;
  Enc.u64 enc generation;
  Enc.u32 enc len;
  Enc.u32 enc 0;
  Enc.raw enc payload;
  let out = Enc.to_bytes enc in
  Bytes.set_int32_le out frame_crc_at (Crc32.bytes out);
  out

let unframe ~magic decode buf =
  try
    let dec = Dec.of_bytes buf in
    if Dec.u32 dec <> magic then None
    else
      let generation = Dec.u64 dec in
      let len = Dec.u32 dec in
      if len > Bytes.length buf - frame_header_bytes then None
      else
        let image = Bytes.sub buf 0 (frame_header_bytes + len) in
        let crc = Bytes.get_int32_le image frame_crc_at in
        Bytes.set_int32_le image frame_crc_at 0l;
        if not (Int32.equal crc (Crc32.bytes image)) then None
        else decode generation (Bytes.sub image frame_header_bytes len)
  with Dec.Truncated -> None

(* Reflected CRC-32, slicing-by-8 on native ints: no boxed [Int32] in the
   loop.  [tables] holds eight 256-entry tables end to end: slice 0 is the
   classic byte table, and slice [k] advances a byte's contribution past
   [k] further zero bytes, so one step folds eight input bytes. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

let sub buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Crc32.sub: out of range";
  let t = tables in
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let p = !i in
    (* Two 32-bit little-endian words from 16-bit loads; the running CRC
       folds into the first. *)
    let lo = !crc lxor (Bytes.get_uint16_le buf p lor (Bytes.get_uint16_le buf (p + 2) lsl 16)) in
    let hi = Bytes.get_uint16_le buf (p + 4) lor (Bytes.get_uint16_le buf (p + 6) lsl 16) in
    crc :=
      Array.unsafe_get t (0x700 lor (lo land 0xFF))
      lxor Array.unsafe_get t (0x600 lor ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x500 lor ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (0x400 lor (lo lsr 24))
      lxor Array.unsafe_get t (0x300 lor (hi land 0xFF))
      lxor Array.unsafe_get t (0x200 lor ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x100 lor ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := p + 8
  done;
  for j = stop8 to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get buf j) in
    crc := Array.unsafe_get t ((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let bytes buf = sub buf ~pos:0 ~len:(Bytes.length buf)

let string s = bytes (Bytes.unsafe_of_string s)

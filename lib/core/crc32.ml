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

let zero_block = 4096

(* Feeding zero bytes maps the register linearly over GF(2), so running
   it past a whole zero block is a fixed 32x32 bit matrix.  [zero_skip]
   holds that map as four 256-entry tables, one per register byte, built
   from the images of the 32 basis vectors. *)
let zero_skip =
  let image bit =
    let c = ref (1 lsl bit) in
    for _ = 1 to zero_block do
      c := tables.(!c land 0xFF) lxor (!c lsr 8)
    done;
    !c
  in
  let basis = Array.init 32 image in
  Array.init (4 * 256) (fun i ->
      let k = i lsr 8 and b = i land 0xFF in
      let v = ref 0 in
      for j = 0 to 7 do
        if b land (1 lsl j) <> 0 then v := !v lxor basis.((8 * k) + j)
      done;
      !v)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* [buf.[p, p + zero_block)] is all zero bytes: four words per test, so
   a block's first non-zero group ends it. *)
let block_is_zero buf p =
  let i = ref p and stop = p + zero_block in
  while
    !i < stop
    && Int64.logor
         (Int64.logor (get64u buf !i) (get64u buf (!i + 8)))
         (Int64.logor (get64u buf (!i + 16)) (get64u buf (!i + 24)))
       = 0L
  do
    i := !i + 32
  done;
  !i >= stop

(* Fold [buf.[p, stop)] into [crc], eight bytes per step; [stop - p] is a
   multiple of 8. *)
let slice8 buf crc p stop =
  let t = tables in
  let crc = ref crc and i = ref p in
  while !i < stop do
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
  !crc

(* The register [c] advanced past a whole zero block: four lookups. *)
let skip_zero_block c =
  let z = zero_skip in
  Array.unsafe_get z (c land 0xFF)
  lxor Array.unsafe_get z (0x100 lor ((c lsr 8) land 0xFF))
  lxor Array.unsafe_get z (0x200 lor ((c lsr 16) land 0xFF))
  lxor Array.unsafe_get z (0x300 lor (c lsr 24))

(* One byte folded into the register [c]. *)
let step c byte = Array.unsafe_get tables ((c lxor byte) land 0xFF) lxor (c lsr 8)

let sub buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Crc32.sub: out of range";
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  (* Whole blocks from [pos]: an all-zero one costs four lookups. *)
  while !i <= pos + len - zero_block do
    let p = !i in
    crc := if block_is_zero buf p then skip_zero_block !crc else slice8 buf !crc p (p + zero_block);
    i := p + zero_block
  done;
  let stop8 = !i + ((pos + len - !i) land lnot 7) in
  crc := slice8 buf !crc !i stop8;
  for j = stop8 to pos + len - 1 do
    crc := step !crc (Char.code (Bytes.unsafe_get buf j))
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let zeros len =
  if len < 0 then invalid_arg "Crc32.zeros: negative length";
  let crc = ref 0xFFFFFFFF in
  for _ = 1 to len / zero_block do
    crc := skip_zero_block !crc
  done;
  for _ = 1 to len mod zero_block do
    crc := step !crc 0
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let bytes buf = sub buf ~pos:0 ~len:(Bytes.length buf)

let string s = bytes (Bytes.unsafe_of_string s)

(* Table-driven, reflected, on native ints: no boxed [Int32] in the loop. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let sub buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Crc32.sub: out of range";
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get buf i) in
    crc := Array.unsafe_get table ((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let bytes buf = sub buf ~pos:0 ~len:(Bytes.length buf)

let string s = bytes (Bytes.unsafe_of_string s)

type t = int
type span = int

let zero = 0

let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = x * 1_000_000_000

let round_to_int f = int_of_float (Float.round f)

let us_f x = round_to_int (x *. 1e3)
let sec_f x = round_to_int (x *. 1e9)

let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_sec t = float_of_int t /. 1e9

let pp ppf t =
  let a = abs t in
  if a < 1_000 then Format.fprintf ppf "%dns" t
  else if a < 1_000_000 then Format.fprintf ppf "%.2fus" (to_us t)
  else if a < 1_000_000_000 then Format.fprintf ppf "%.2fms" (to_ms t)
  else Format.fprintf ppf "%.3fs" (to_sec t)

let to_string t = Format.asprintf "%a" pp t

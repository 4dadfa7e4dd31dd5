type t = { mutable state : int64 }

let create seed = { state = seed }

let golden = 0x9E3779B97F4A7C15L

let int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = create (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let nonneg = Int64.to_int (int64 t) land max_int in
  nonneg mod bound

let unit_float t =
  (* 53 high bits give a uniform double in [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits /. 9007199254740992.0

let float t bound = unit_float t *. bound

let bool t p = unit_float t < p

let exponential t ~mean =
  let u = unit_float t in
  -.mean *. log1p (-.u)

let uniform_span t s = if s <= 0 then 0 else int t s


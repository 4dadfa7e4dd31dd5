type t = {
  stat_name : string;
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
  mutable samples : float array;
  mutable sorted : bool;
}

type summary = {
  n : int;
  mean : float;
  stdev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let create ?(name = "") () =
  {
    stat_name = name;
    n = 0;
    mean = 0.0;
    m2 = 0.0;
    min = infinity;
    max = neg_infinity;
    total = 0.0;
    samples = [||];
    sorted = true;
  }

let add (t : t) x =
  let cap = Array.length t.samples in
  if t.n = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let na = Array.make ncap 0.0 in
    Array.blit t.samples 0 na 0 t.n;
    t.samples <- na
  end;
  t.samples.(t.n) <- x;
  t.n <- t.n + 1;
  t.sorted <- false;
  t.total <- t.total +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let add_span t span = add t (float_of_int span)

let count (t : t) = t.n

let mean (t : t) = t.mean

let total (t : t) = t.total

let ensure_sorted (t : t) =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.n in
    Array.sort compare live;
    Array.blit live 0 t.samples 0 t.n;
    t.sorted <- true
  end

let percentile (t : t) p =
  if t.n = 0 then Float.nan
  else begin
  ensure_sorted t;
  let rank = int_of_float (Float.round (p *. float_of_int (t.n - 1))) in
  t.samples.(rank)
  end

let stdev (t : t) = if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))

let samples_from (t : t) from =
  let from = max 0 (min from t.n) in
  Array.sub t.samples from (t.n - from)

let summary (t : t) =
  if t.n = 0 then
    { n = 0; mean = 0.; stdev = 0.; min = 0.; max = 0.; p50 = 0.; p90 = 0.; p99 = 0. }
  else
    {
      n = t.n;
      mean = t.mean;
      stdev = stdev t;
      min = t.min;
      max = t.max;
      p50 = percentile t 0.50;
      p90 = percentile t 0.90;
      p99 = percentile t 0.99;
    }

let pp_summary ppf t =
  let s = summary t in
  Format.fprintf ppf "%s: n=%d mean=%a p50=%a p90=%a p99=%a max=%a" t.stat_name s.n Time.pp
    (int_of_float s.mean) Time.pp (int_of_float s.p50) Time.pp (int_of_float s.p90) Time.pp
    (int_of_float s.p99) Time.pp (int_of_float s.max)

module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t x = t.v <- t.v + x
  let get t = t.v
end

type t = {
  mutable clock : (unit -> Time.t) option;
  mutable depth : int;
  mutable max_depth : int;
  mutable enqueued : int;
  mutable dequeued : int;
  mutable busy : Time.span;
  mutable integral : float;  (** accumulated depth x time, ns-items *)
  mutable last_change : Time.t;
}

let create ?clock () =
  {
    clock;
    depth = 0;
    max_depth = 0;
    enqueued = 0;
    dequeued = 0;
    busy = 0;
    integral = 0.0;
    last_change = Time.zero;
  }

let set_clock t clock =
  t.clock <- Some clock;
  (* Restart the depth integral at the clock's current reading, so a
     clock attached mid-run does not retroactively charge the pre-clock
     era at the current depth. *)
  t.last_change <- clock ()

let now t = match t.clock with Some f -> f () | None -> t.last_change

let advance t =
  let n = now t in
  if n > t.last_change then begin
    t.integral <- t.integral +. (float_of_int t.depth *. float_of_int (n - t.last_change));
    t.last_change <- n
  end

let enqueue t =
  if Level.on () then begin
    advance t;
    t.depth <- t.depth + 1;
    t.enqueued <- t.enqueued + 1;
    if t.depth > t.max_depth then t.max_depth <- t.depth
  end

let dequeue t =
  if Level.on () then begin
    advance t;
    if t.depth > 0 then t.depth <- t.depth - 1;
    t.dequeued <- t.dequeued + 1
  end

let busy_span t span =
  if span > 0 && Level.on () then t.busy <- t.busy + span

let depth t = t.depth

let max_depth t = t.max_depth

let enqueued t = t.enqueued

let dequeued t = t.dequeued

let busy_total t = t.busy

let depth_integral ?at t =
  let n = match at with Some n -> n | None -> now t in
  if n > t.last_change then
    t.integral +. (float_of_int t.depth *. float_of_int (n - t.last_change))
  else t.integral

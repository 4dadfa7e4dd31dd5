type t = { mutable remaining : int; door : unit Ivar.t }

let create n =
  if n < 0 then invalid_arg "Gate.create: negative count";
  let t = { remaining = n; door = Ivar.create () } in
  if n = 0 then Ivar.fill t.door ();
  t

let arrive t =
  if t.remaining <= 0 then invalid_arg "Gate.arrive: gate already open";
  t.remaining <- t.remaining - 1;
  if t.remaining = 0 then Ivar.fill t.door ()

let is_open t = Ivar.is_filled t.door

let await t = Ivar.read t.door


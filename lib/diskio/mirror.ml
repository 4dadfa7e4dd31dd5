type t = { prim : Volume.t; mirr : Volume.t }

let create ~primary ~mirror = { prim = primary; mirr = mirror }

let write t ~block ~len =
  let a = Volume.submit t.prim ~kind:`Write ~block ~len in
  let b = Volume.submit t.mirr ~kind:`Write ~block ~len in
  let ra = Simkit.Ivar.read a in
  let rb = Simkit.Ivar.read b in
  match (ra, rb) with
  | Ok (), _ | _, Ok () -> Ok ()
  | Error e, Error _ -> Error e

let read t ~block ~len =
  match Volume.read t.prim ~block ~len with
  | Ok () -> Ok ()
  | Error _ -> Volume.read t.mirr ~block ~len

let degraded t = Volume.is_up t.prim <> Volume.is_up t.mirr

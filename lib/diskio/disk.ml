open Simkit

type geometry = {
  capacity_bytes : int;
  block_bytes : int;
  seek_base : Time.span;
  seek_full : Time.span;
  rotation_period : Time.span;
  bytes_per_ns : float;
  sequential_settle : Time.span;
}

let default_geometry =
  {
    capacity_bytes = 36 * 1024 * 1024 * 1024;
    block_bytes = 512;
    seek_base = Time.ms 1;
    seek_full = Time.ms 10;
    rotation_period = Time.ms 6 (* 10 kRPM *);
    bytes_per_ns = 0.04 (* 40 MB/s *);
    sequential_settle = Time.us 300;
  }

type cache_config = { cache_bytes : int; destage_bytes_per_ns : float }

let default_cache = { cache_bytes = 8 * 1024 * 1024; destage_bytes_per_ns = 0.03 }

(* Completion time of a write the cache absorbs. *)
let cache_latency = Time.us 150

type t = {
  sim : Sim.t;
  geom : geometry;
  cache : cache_config option;
  rng : Rng.t;
  mutable head_block : int;
  mutable cache_used : int;
  mutable last_destage : Time.t;
  mutable slow_factor : float;  (** fail-slow service multiplier, >= 1.0 *)
  mutable slow_jitter : Time.span;  (** max extra seeded delay per request *)
}

let create sim ?(geometry = default_geometry) ?cache () =
  {
    sim;
    geom = geometry;
    cache;
    rng = Rng.split (Sim.rng sim);
    head_block = 0;
    cache_used = 0;
    last_destage = Time.zero;
    slow_factor = 1.0;
    slow_jitter = 0;
  }

let blocks_of t len = max 1 ((len + t.geom.block_bytes - 1) / t.geom.block_bytes)

let total_blocks t = t.geom.capacity_bytes / t.geom.block_bytes

let transfer_time t len = int_of_float (float_of_int len /. t.geom.bytes_per_ns)

type parts = {
  seek : Time.span;
  rotation : Time.span;
  transfer : Time.span;
  cache_hit : bool;
}

let parts_total p = p.seek + p.rotation + p.transfer

(* Positioning plus media time with the head starting at [t.head_block].
   A sequential read streams (settle only); a sequential *write* still
   waits for the platter to come around to the target sector — the
   classic one-rotation floor of synchronous log appends. *)
let mechanical_parts t ~kind ~block ~len =
  let sequential = block = t.head_block in
  let seek, rotation =
    if sequential then
      match kind with
      | `Read -> (t.geom.sequential_settle, 0)
      | `Write ->
          (t.geom.sequential_settle, Rng.uniform_span t.rng t.geom.rotation_period)
    else
      let distance = abs (block - t.head_block) in
      let frac = float_of_int distance /. float_of_int (total_blocks t) in
      let seek =
        t.geom.seek_base
        + int_of_float (frac *. float_of_int (t.geom.seek_full - t.geom.seek_base))
      in
      (seek, Rng.uniform_span t.rng t.geom.rotation_period)
  in
  { seek; rotation; transfer = transfer_time t len; cache_hit = false }

(* Account for background destaging that happened since the last call. *)
let drain_cache t cfg =
  let now = Sim.now t.sim in
  let elapsed = now - t.last_destage in
  t.last_destage <- now;
  let drained = int_of_float (float_of_int elapsed *. cfg.destage_bytes_per_ns) in
  t.cache_used <- max 0 (t.cache_used - drained)

(* Gray-failure injection: a degraded drive (retry storms, thermal
   recalibration) stretches every component of the service time and adds
   seeded jitter onto the transfer leg.  Healthy disks (factor 1.0, no
   jitter) never sample the RNG for this. *)
let slow_parts t p =
  if t.slow_factor <= 1.0 && t.slow_jitter = 0 then p
  else
    let scale x = int_of_float (float_of_int x *. t.slow_factor) in
    let jitter = if t.slow_jitter > 0 then Rng.uniform_span t.rng t.slow_jitter else 0 in
    {
      seek = scale p.seek;
      rotation = scale p.rotation;
      transfer = scale p.transfer + jitter;
      cache_hit = p.cache_hit;
    }

let service_parts t ~kind ~block ~len =
  let advance () = t.head_block <- block + blocks_of t len in
  let parts =
    match (kind, t.cache) with
    | `Read, _ | `Write, None ->
        let p = mechanical_parts t ~kind ~block ~len in
        advance ();
        p
    | `Write, Some cfg ->
        drain_cache t cfg;
        if t.cache_used + len <= cfg.cache_bytes then begin
          t.cache_used <- t.cache_used + len;
          { seek = 0; rotation = 0; transfer = cache_latency; cache_hit = true }
        end
        else begin
          (* Cache full: the write waits for media like an uncached one. *)
          let p = mechanical_parts t ~kind ~block ~len in
          advance ();
          p
        end
  in
  slow_parts t parts

let service t ~kind ~block ~len = parts_total (service_parts t ~kind ~block ~len)

let cache_used t = t.cache_used

let degrade t ~factor ?(jitter = 0) () =
  if factor < 1.0 then invalid_arg "Disk.degrade: factor >= 1.0";
  if jitter < 0 then invalid_arg "Disk.degrade: negative jitter";
  t.slow_factor <- factor;
  t.slow_jitter <- jitter

let restore_speed t =
  t.slow_factor <- 1.0;
  t.slow_jitter <- 0

let slow_factor t = t.slow_factor

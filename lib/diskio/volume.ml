open Simkit

type error = Volume_down

type request = {
  kind : [ `Read | `Write ];
  block : int;
  len : int;
  done_ : (unit, error) result Ivar.t;
  req_span : Span.span;
}

type scheduling = Fifo | Elevator

type t = {
  sim : Sim.t;
  vol_name : string;
  disk : Disk.t;
  queue : request Mailbox.t;
  scheduling : scheduling;
  mutable pending : request list;  (** elevator's reorder buffer *)
  mutable sweep_up : bool;
  mutable head_hint : int;
  mutable up : bool;
  mutable append_block : int;
  mutable ops : int;
  mutable bytes : int;
  mutable busy : Time.span;
  mutable obs : Obs.t option;
  mutable svc_stat : Stat.t option;
  mutable rot_stat : Stat.t option;
  mutable probe : Probe.t option;
  mutable ops_counter : Stat.Counter.t option;
  mutable hit_counter : Stat.Counter.t option;
}

let finish_span t sp =
  match t.obs with Some o -> Span.finish (Obs.spans o) sp | None -> ()

(* Pick the next request: FIFO order, or the SCAN sweep for elevators. *)
let next_request t =
  match t.scheduling with
  | Fifo -> (
      match t.pending with
      | req :: rest ->
          t.pending <- rest;
          Some req
      | [] -> None)
  | Elevator -> (
      match t.pending with
      | [] -> None
      | pending ->
          let ahead, behind =
            List.partition
              (fun r -> if t.sweep_up then r.block >= t.head_hint else r.block <= t.head_hint)
              pending
          in
          let better a b =
            let da = abs (a.block - t.head_hint) and db = abs (b.block - t.head_hint) in
            if da < db then a else b
          in
          let pick_from group =
            match group with [] -> None | r :: rest -> Some (List.fold_left better r rest)
          in
          let chosen =
            match pick_from ahead with
            | Some r -> Some r
            | None ->
                (* End of sweep: reverse direction. *)
                t.sweep_up <- not t.sweep_up;
                pick_from behind
          in
          (match chosen with
          | Some r -> t.pending <- List.filter (fun x -> x != r) pending
          | None -> ());
          chosen)

let server t () =
  while true do
    (* Drain everything queued, then schedule from the reorder buffer. *)
    (match Mailbox.try_recv t.queue with
    | Some req ->
        t.pending <- t.pending @ [ req ]
    | None ->
        if t.pending = [] then begin
          let req = Mailbox.recv t.queue in
          t.pending <- [ req ]
        end);
    let rec drain () =
      match Mailbox.try_recv t.queue with
      | Some req ->
          t.pending <- t.pending @ [ req ];
          drain ()
      | None -> ()
    in
    drain ();
    match next_request t with
    | None -> ()
    | Some req ->
        if not t.up then begin
          finish_span t req.req_span;
          (match t.probe with Some p -> Probe.dequeue p | None -> ());
          Ivar.fill req.done_ (Error Volume_down)
        end
        else begin
          let sect = Prof.section_begin () in
          let parts =
            Disk.service_parts t.disk ~kind:req.kind ~block:req.block ~len:req.len
          in
          let dt = Disk.parts_total parts in
          let counters = Level.counters_on () in
          (match t.svc_stat with
          | Some st when counters -> Stat.add_span st dt
          | _ -> ());
          (match t.ops_counter with
          | Some c when counters -> Stat.Counter.incr c
          | _ -> ());
          if parts.Disk.cache_hit then
            (match t.hit_counter with
            | Some c when counters -> Stat.Counter.incr c
            | _ -> ());
          if req.kind = `Write && parts.Disk.rotation > 0 then begin
            (match t.rot_stat with
            | Some st when counters -> Stat.add_span st parts.Disk.rotation
            | _ -> ());
            if not (Span.is_null req.req_span) then
              Span.annotate req.req_span ~key:"rotation_ns"
                (string_of_int parts.Disk.rotation)
          end;
          if parts.Disk.cache_hit && not (Span.is_null req.req_span) then
            Span.annotate req.req_span ~key:"cache" "hit";
          t.head_hint <- req.block;
          (* End before the service sleep: the suspension would invalidate
             the sample. *)
          Prof.section_end sect "diskio";
          Sim.sleep dt;
          t.busy <- t.busy + dt;
          (match t.probe with
          | Some p ->
              Probe.busy_span p dt;
              Probe.dequeue p
          | None -> ());
          finish_span t req.req_span;
          if t.up then begin
            t.ops <- t.ops + 1;
            t.bytes <- t.bytes + req.len;
            Ivar.fill req.done_ (Ok ())
          end
          else Ivar.fill req.done_ (Error Volume_down)
        end
  done

let create sim ~name ?geometry ?cache ?(scheduling = Fifo) () =
  let t =
    {
      sim;
      vol_name = name;
      disk = Disk.create sim ?geometry ?cache ();
      queue = Mailbox.create ~name ();
      scheduling;
      pending = [];
      sweep_up = true;
      head_hint = 0;
      up = true;
      append_block = 0;
      ops = 0;
      bytes = 0;
      busy = 0;
      obs = None;
      svc_stat = None;
      rot_stat = None;
      probe = None;
      ops_counter = None;
      hit_counter = None;
    }
  in
  let (_ : Sim.pid) = Sim.spawn sim ~name:("vol:" ^ name) (server t) in
  t

let name t = t.vol_name

let sim t = t.sim

let set_obs t obs =
  t.obs <- Some obs;
  let m = Obs.metrics obs in
  t.svc_stat <- Some (Metrics.stat m "disk.service_ns");
  t.rot_stat <- Some (Metrics.stat m "disk.rotational_miss_ns");
  (* Per-volume queue/utilization probe, plus fleet-wide write-cache hit
     accounting shared across every volume. *)
  let p = Metrics.probe m ("vol." ^ t.vol_name) in
  Probe.set_clock p (fun () -> Sim.now t.sim);
  t.probe <- Some p;
  let ops = Metrics.counter m "disk.ops" in
  let hits = Metrics.counter m "disk.cache_hits" in
  t.ops_counter <- Some ops;
  t.hit_counter <- Some hits;
  if Metrics.find m "disk.cache_hit_ratio" = None then
    Metrics.register_gauge m "disk.cache_hit_ratio" (fun () ->
        let n = Stat.Counter.get ops in
        if n = 0 then 0.0 else float_of_int (Stat.Counter.get hits) /. float_of_int n)

let submit ?parent t ~kind ~block ~len =
  let req_span =
    match t.obs with
    (* The track string is concatenated eagerly, so the whole span
       construction sits behind the global level check. *)
    | Some o when Obs.spans_on () ->
        let sp =
          Span.start (Obs.spans o) ~track:("vol:" ^ t.vol_name) ?parent
            (match kind with `Read -> "disk.read" | `Write -> "disk.write")
        in
        if not (Span.is_null sp) then begin
          Span.annotate sp ~key:"block" (string_of_int block);
          Span.annotate sp ~key:"len" (string_of_int len)
        end;
        sp
    | _ -> Span.null
  in
  let done_ = Ivar.create () in
  if not t.up then begin
    finish_span t req_span;
    Ivar.fill done_ (Error Volume_down)
  end
  else begin
    (match t.probe with Some p -> Probe.enqueue p | None -> ());
    Mailbox.send t.queue
      { kind; block; len; done_; req_span }
  end;
  done_

let write ?parent t ~block ~len = Ivar.read (submit ?parent t ~kind:`Write ~block ~len)

let read ?parent t ~block ~len = Ivar.read (submit ?parent t ~kind:`Read ~block ~len)

let append ?parent t ~len =
  let block = t.append_block in
  let blocks = max 1 ((len + 511) / 512) in
  t.append_block <- t.append_block + blocks;
  write ?parent t ~block ~len

let set_up t up = t.up <- up

let is_up t = t.up

let degrade t ~factor ?jitter () = Disk.degrade t.disk ~factor ?jitter ()

let restore_speed t = Disk.restore_speed t.disk

let slow_factor t = Disk.slow_factor t.disk

let queue_depth t = Mailbox.length t.queue + List.length t.pending

let completed_ops t = t.ops

let completed_bytes t = t.bytes

let busy_time t = t.busy

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
  track : string;  (** the server process's name, and its span track *)
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
  obs : Obs.t option;
  svc_stat : Stat.t option;
  rot_stat : Stat.t option;
  probe : Probe.t option;
  ops_counter : Stat.Counter.t option;
  hit_counter : Stat.Counter.t option;
}

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
          Obs.finish t.obs req.req_span;
          Obs.dequeue t.probe;
          Ivar.fill req.done_ (Error Volume_down)
        end
        else begin
          let sect = Prof.section_begin () in
          let parts =
            Disk.service_parts t.disk ~kind:req.kind ~block:req.block ~len:req.len
          in
          let dt = Disk.parts_total parts in
          Obs.note t.svc_stat dt;
          Obs.incr t.ops_counter;
          if parts.Disk.cache_hit then Obs.incr t.hit_counter;
          if req.kind = `Write && parts.Disk.rotation > 0 then begin
            Obs.note t.rot_stat parts.Disk.rotation;
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
          Obs.served t.probe dt;
          Obs.finish t.obs req.req_span;
          if t.up then begin
            t.ops <- t.ops + 1;
            t.bytes <- t.bytes + req.len;
            Ivar.fill req.done_ (Ok ())
          end
          else Ivar.fill req.done_ (Error Volume_down)
        end
  done

let create sim ~name ?geometry ?cache ?(scheduling = Fifo) ?obs () =
  let track = "vol:" ^ name in
  let ops_counter = Obs.counter obs "disk.ops" in
  let hit_counter = Obs.counter obs "disk.cache_hits" in
  (* Fleet-wide write-cache hit accounting, shared across every volume. *)
  Obs.ratio obs "disk.cache_hit_ratio" ~num:hit_counter ~den:ops_counter;
  let t =
    {
      sim;
      vol_name = name;
      track;
      disk = Disk.create sim ?geometry ?cache ();
      queue = Mailbox.create ();
      scheduling;
      pending = [];
      sweep_up = true;
      head_hint = 0;
      up = true;
      append_block = 0;
      ops = 0;
      bytes = 0;
      busy = 0;
      obs;
      svc_stat = Obs.stat obs "disk.service_ns";
      rot_stat = Obs.stat obs "disk.rotational_miss_ns";
      probe = Obs.probe obs ("vol." ^ name);
      ops_counter;
      hit_counter;
    }
  in
  let (_ : Sim.pid) = Sim.spawn sim ~name:track (server t) in
  t

let name t = t.vol_name

let sim t = t.sim

let submit ?parent t ~kind ~block ~len =
  let req_span =
    Obs.start t.obs ~track:t.track ?parent
      (match kind with `Read -> "disk.read" | `Write -> "disk.write")
  in
  if not (Span.is_null req_span) then begin
    Span.annotate req_span ~key:"block" (string_of_int block);
    Span.annotate req_span ~key:"len" (string_of_int len)
  end;
  let done_ = Ivar.create () in
  if not t.up then begin
    Obs.finish t.obs req_span;
    Ivar.fill done_ (Error Volume_down)
  end
  else begin
    Obs.enqueue t.probe;
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

let degrade t ~factor ?jitter () = Disk.degrade t.disk ~factor ?jitter ()

let restore_speed t = Disk.restore_speed t.disk

let slow_factor t = Disk.slow_factor t.disk

let queue_depth t = Mailbox.length t.queue + List.length t.pending

let completed_ops t = t.ops

let completed_bytes t = t.bytes

let busy_time t = t.busy

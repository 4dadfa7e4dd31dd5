type t = { obs_metrics : Metrics.t; obs_spans : Span.t; mutable clock : unit -> Time.t }

let create () =
  { obs_metrics = Metrics.create (); obs_spans = Span.create (); clock = (fun () -> Time.zero) }

let metrics t = t.obs_metrics

let spans t = t.obs_spans

let set_clock t clock =
  t.clock <- clock;
  Span.set_clock t.obs_spans clock

(* Spans *)

let start o ~track ?parent name =
  match o with None -> Span.null | Some t -> Span.start t.obs_spans ~track ?parent name

let root o ~track name =
  match o with None -> Span.null | Some t -> Span.root t.obs_spans ~track name

let finish o sp = match o with None -> () | Some t -> Span.finish t.obs_spans sp

(* Registration: all of it behind the context check *)

let stat o path = match o with None -> None | Some t -> Some (Metrics.stat t.obs_metrics path)

let stat_or_private o ?(name = "") path =
  match o with None -> Stat.create ~name () | Some t -> Metrics.stat t.obs_metrics path

let counter o path =
  match o with None -> None | Some t -> Some (Metrics.counter t.obs_metrics path)

let probe o path =
  match o with
  | None -> None
  | Some t -> Some (Metrics.probe t.obs_metrics ~clock:t.clock path)

let gauge o path fn =
  match o with None -> () | Some t -> Metrics.register_gauge t.obs_metrics path fn

let ratio o path ~num ~den =
  match (o, num, den) with
  | Some t, Some num, Some den ->
      Metrics.register_gauge t.obs_metrics path (fun () ->
          let n = Stat.Counter.get den in
          if n = 0 then 0.0 else float_of_int (Stat.Counter.get num) /. float_of_int n)
  | _ -> ()

(* Updates: all of them behind the level check *)

let note st dt = match st with Some s when Level.on () -> Stat.add_span s dt | _ -> ()

let incr c = match c with Some c when Level.on () -> Stat.Counter.incr c | _ -> ()

let add c n = match c with Some c when Level.on () -> Stat.Counter.add c n | _ -> ()

let bump o path =
  match o with
  | Some t when Level.on () -> Stat.Counter.incr (Metrics.counter t.obs_metrics path)
  | _ -> ()

let enqueue p = match p with Some p -> Probe.enqueue p | None -> ()

let dequeue p = match p with Some p -> Probe.dequeue p | None -> ()

let busy p dt = match p with Some p -> Probe.busy_span p dt | None -> ()

let served p dt =
  match p with
  | Some p ->
      Probe.busy_span p dt;
      Probe.dequeue p
  | None -> ()

(* Global telemetry level, re-exported so users configure observability
   through one module. *)

type level = Level.t = Off | Spans

let set_level = Level.set

let level = Level.get

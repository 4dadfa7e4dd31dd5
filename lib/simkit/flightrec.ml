(* Failure flight recorder: a bounded ring of the most recent finished
   spans plus a ring of fault marks (injections, detections, gate
   trips), dumpable as one JSON document when a drill fails.  The point
   is the black box: always-on while armed, cheap, and holding exactly
   the window of history that explains what the system was doing when
   things went wrong. *)

type mark = { m_time : Time.t; m_label : string }

type t = {
  span_cap : int;
  mark_cap : int;
  spans : Span.record array option ref;  (* lazily allocated ring *)
  mutable span_next : int;  (* next write slot *)
  mutable span_n : int;  (* total spans ever observed *)
  marks : mark option array;
  mutable mark_next : int;
  mutable mark_n : int;
}

let create ?(spans = 2048) ?(marks = 256) () =
  if spans <= 0 || marks <= 0 then invalid_arg "Flightrec.create: caps must be positive";
  {
    span_cap = spans;
    mark_cap = marks;
    spans = ref None;
    span_next = 0;
    span_n = 0;
    marks = Array.make marks None;
    mark_next = 0;
    mark_n = 0;
  }

let observe t (r : Span.record) =
  let ring =
    match !(t.spans) with
    | Some a -> a
    | None ->
        (* First record seeds the ring; the array holds copies of this
           record until overwritten, masked out by [span_n] on dump. *)
        let a = Array.make t.span_cap r in
        t.spans := Some a;
        a
  in
  ring.(t.span_next) <- r;
  t.span_next <- (t.span_next + 1) mod t.span_cap;
  t.span_n <- t.span_n + 1

let mark t ~time label =
  t.marks.(t.mark_next) <- Some { m_time = time; m_label = label };
  t.mark_next <- (t.mark_next + 1) mod t.mark_cap;
  t.mark_n <- t.mark_n + 1

let attach t spans = Span.subscribe spans (observe t)

let span_count t = t.span_n

let mark_count t = t.mark_n

(* Ring contents oldest-first. *)
let recent_spans t =
  match !(t.spans) with
  | None -> []
  | Some a ->
      let kept = min t.span_n t.span_cap in
      let first = (t.span_next - kept + t.span_cap * 2) mod t.span_cap in
      List.init kept (fun i -> a.((first + i) mod t.span_cap))

let recent_marks t =
  let kept = min t.mark_n t.mark_cap in
  let first = (t.mark_next - kept + t.mark_cap * 2) mod t.mark_cap in
  List.filter_map (fun i -> t.marks.((first + i) mod t.mark_cap)) (List.init kept Fun.id)
  |> List.map (fun m -> (m.m_time, m.m_label))

let record_json (r : Span.record) =
  Json.Obj
    ([
       ("id", Json.Int r.Span.r_id);
       ("track", Json.String r.Span.r_track);
       ("name", Json.String r.Span.r_name);
       ("start_ns", Json.Int r.Span.r_start);
       ("end_ns", Json.Int r.Span.r_end);
     ]
    @ (match r.Span.r_parent with Some p -> [ ("parent", Json.Int p) ] | None -> [])
    @ (if r.Span.r_trace >= 0 then [ ("trace", Json.Int r.Span.r_trace) ] else [])
    @
    if r.Span.r_args = [] then []
    else
      [
        ( "args",
          Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) r.Span.r_args) );
      ])

let to_json t =
  Json.Obj
    [
      ("spans_seen", Json.Int t.span_n);
      ("marks_seen", Json.Int t.mark_n);
      ( "marks",
        Json.List
          (List.map
             (fun (time, label) ->
               Json.Obj
                 [ ("time_ns", Json.Int time); ("label", Json.String label) ])
             (recent_marks t)) );
      ("spans", Json.List (List.map record_json (recent_spans t)));
    ]

(* Critical-path attribution over span DAGs.

   Streaming consumer of finished spans: records accumulate per trace
   until the trace's root arrives (the root span of a transaction is the
   last of its trace to finish), then the whole DAG is walked backwards
   from the ack and every nanosecond of the root's interval is attributed
   to exactly one span — the deepest one covering it — split into queue
   and service time.  The tiling is exact by construction, so a trace's
   hop durations sum to its measured ack latency. *)

type hop = {
  h_name : string;  (* "track:name" *)
  h_count : int;
  h_queue : int;
  h_service : int;
}

type ex_hop = { xh_name : string; xh_queue : int; xh_service : int }

type exemplar = {
  ex_trace : int;
  ex_root : string;
  ex_ack : int;
  ex_hops : ex_hop list;  (* ranked, heaviest first *)
  ex_records : Span.record list;  (* the full DAG, walk-reachable links included *)
}

type agg = { mutable a_count : int; mutable a_queue : int; mutable a_service : int }

type bucket = { b_seq : int; mutable b_recs : Span.record list; mutable b_n : int }

(* The slowest transactions keep full DAGs; records buffered for
   unfinalized traces are capped; the link-resolution window holds the
   most recent finished spans. *)
let ex_cap = 32
let max_pending = 100_000
let recent_cap = 8192

type t = {
  pending : (int, bucket) Hashtbl.t;  (* trace id -> unfinalized records *)
  mutable pending_n : int;
  mutable seq : int;
  (* Sliding window of every finished span by id, traced or not, so the
     walk can resolve "link" edges that point outside the trace (the
     group-commit flush a waiter piggybacked on) — plus a parent index
     over the same window so the flush's own children (volume writes)
     keep their attribution. *)
  recent : (int, Span.record) Hashtbl.t;
  recent_kids : (int, int list ref) Hashtbl.t;
  recent_q : int Queue.t;
  aggs : (string, agg) Hashtbl.t;
  lat : Stat.t;
  mutable n_txns : int;
  mutable n_evicted : int;
  mutable exs : exemplar list;  (* slowest first, length <= ex_cap *)
}

let create () =
  {
    pending = Hashtbl.create 64;
    pending_n = 0;
    seq = 0;
    recent = Hashtbl.create 1024;
    recent_kids = Hashtbl.create 1024;
    recent_q = Queue.create ();
    aggs = Hashtbl.create 64;
    lat = Stat.create ~name:"critpath.ack_ns" ();
    n_txns = 0;
    n_evicted = 0;
    exs = [];
  }

let queue_of (r : Span.record) =
  List.fold_left
    (fun acc (k, v) ->
      if k = "queue_ns" then
        acc + (match int_of_string_opt v with Some n -> n | None -> 0)
      else acc)
    0 r.Span.r_args

let link_ids (r : Span.record) =
  List.filter_map
    (fun (k, v) -> if k = "link" then int_of_string_opt v else None)
    r.Span.r_args

let remember t (r : Span.record) =
  Hashtbl.replace t.recent r.Span.r_id r;
  (match r.Span.r_parent with
  | Some p -> (
      match Hashtbl.find_opt t.recent_kids p with
      | Some l -> l := r.Span.r_id :: !l
      | None -> Hashtbl.replace t.recent_kids p (ref [ r.Span.r_id ]))
  | None -> ());
  Queue.push r.Span.r_id t.recent_q;
  while Queue.length t.recent_q > recent_cap do
    let old = Queue.pop t.recent_q in
    (match Hashtbl.find_opt t.recent old with
    | Some o -> (
        match o.Span.r_parent with
        | Some p -> (
            match Hashtbl.find_opt t.recent_kids p with
            | Some l ->
                l := List.filter (fun i -> i <> old) !l;
                if !l = [] then Hashtbl.remove t.recent_kids p
            | None -> ())
        | None -> ())
    | None -> ());
    Hashtbl.remove t.recent old
  done

let evict_oldest t =
  let victim =
    Hashtbl.fold
      (fun trace b acc ->
        match acc with
        | Some (_, best) when best.b_seq <= b.b_seq -> acc
        | _ -> Some (trace, b))
      t.pending None
  in
  match victim with
  | None -> ()
  | Some (trace, b) ->
      Hashtbl.remove t.pending trace;
      t.pending_n <- t.pending_n - b.b_n;
      t.n_evicted <- t.n_evicted + 1

let hop_key (r : Span.record) = r.Span.r_track ^ ":" ^ r.Span.r_name

(* Walk the trace backwards from the root's ack.  [go r lo hi] owns the
   interval [lo, hi]: children and resolved links claim their (clipped)
   sub-intervals latest-end-first, everything left over is [r]'s own time,
   split queue/service against the queue prefix [r_start, r_start + q].
   A node is consumed at most once; when a diamond or link cycle would
   revisit one, the overlap stays with the current owner — the tiling
   never loses or double-counts a nanosecond. *)
let walk ~children ~resolve (root : Span.record) =
  let visited = Hashtbl.create 64 in
  let steps = ref [] in
  let extern = ref [] in
  let rec go (r : Span.record) lo hi =
    if hi > lo && not (Hashtbl.mem visited r.Span.r_id) then begin
      Hashtbl.add visited r.Span.r_id ();
      let kids =
        children r.Span.r_id
        @ List.filter_map
            (fun lid ->
              match resolve lid with
              | Some (k, is_ext) ->
                  if is_ext then extern := (k : Span.record) :: !extern;
                  Some k
              | None -> None)
            (link_ids r)
      in
      let kids =
        List.filter
          (fun (k : Span.record) ->
            min hi k.Span.r_end > max lo k.Span.r_start
            && not (Hashtbl.mem visited k.Span.r_id))
          kids
        |> List.sort (fun (a : Span.record) (b : Span.record) ->
               compare b.Span.r_end a.Span.r_end)
      in
      let self = ref [] in
      let cursor = ref hi in
      List.iter
        (fun (k : Span.record) ->
          if not (Hashtbl.mem visited k.Span.r_id) then begin
            let k_hi = min !cursor k.Span.r_end in
            let k_lo = max lo k.Span.r_start in
            if k_hi > k_lo then begin
              if k_hi < !cursor then self := (k_hi, !cursor) :: !self;
              go k k_lo k_hi;
              cursor := k_lo
            end
          end)
        kids;
      if !cursor > lo then self := (lo, !cursor) :: !self;
      let qz_end = r.Span.r_start + queue_of r in
      let q = ref 0 and s = ref 0 in
      List.iter
        (fun (a, b) ->
          let qa = max a r.Span.r_start and qb = min b qz_end in
          let overlap = max 0 (qb - qa) in
          q := !q + overlap;
          s := !s + (b - a) - overlap)
        !self;
      if !q > 0 || !s > 0 then steps := (r, !q, !s) :: !steps
    end
  in
  go root root.Span.r_start root.Span.r_end;
  (List.rev !steps, !extern)

let finalize t (root : Span.record) recs =
  let all = root :: recs in
  let by_id = Hashtbl.create 64 in
  let kids = Hashtbl.create 64 in
  List.iter
    (fun (r : Span.record) ->
      Hashtbl.replace by_id r.Span.r_id r;
      match r.Span.r_parent with
      | Some p -> (
          match Hashtbl.find_opt kids p with
          | Some l -> l := r :: !l
          | None -> Hashtbl.replace kids p (ref [ r ]))
      | None -> ())
    all;
  let children id =
    let in_trace =
      match Hashtbl.find_opt kids id with Some l -> !l | None -> []
    in
    if Hashtbl.mem by_id id then in_trace
    else
      (* A walk-reachable external node (a linked flush): pull its
         children from the sliding window instead. *)
      match Hashtbl.find_opt t.recent_kids id with
      | Some l -> List.filter_map (Hashtbl.find_opt t.recent) !l
      | None -> in_trace
  in
  let resolve lid =
    match Hashtbl.find_opt by_id lid with
    | Some r -> Some (r, false)
    | None -> (
        match Hashtbl.find_opt t.recent lid with
        | Some r -> Some (r, true)
        | None -> None)
  in
  let steps, extern = walk ~children ~resolve root in
  let ack = root.Span.r_end - root.Span.r_start in
  t.n_txns <- t.n_txns + 1;
  Stat.add t.lat (float_of_int ack);
  List.iter
    (fun ((r : Span.record), q, s) ->
      let key = hop_key r in
      let a =
        match Hashtbl.find_opt t.aggs key with
        | Some a -> a
        | None ->
            let a = { a_count = 0; a_queue = 0; a_service = 0 } in
            Hashtbl.replace t.aggs key a;
            a
      in
      a.a_count <- a.a_count + 1;
      a.a_queue <- a.a_queue + q;
      a.a_service <- a.a_service + s)
    steps;
  (* Reservoir of the slowest traces, full DAG kept for export. *)
  let full = List.length t.exs >= ex_cap in
  let floor =
    match List.rev t.exs with last :: _ when full -> last.ex_ack | _ -> min_int
  in
  if (not full) || ack > floor then begin
    let ex_hops =
      List.map (fun (r, q, s) -> { xh_name = hop_key r; xh_queue = q; xh_service = s }) steps
      |> List.sort (fun a b ->
             compare (b.xh_queue + b.xh_service) (a.xh_queue + a.xh_service))
    in
    let ex =
      {
        ex_trace = root.Span.r_trace;
        ex_root = hop_key root;
        ex_ack = ack;
        ex_hops;
        ex_records = all @ extern;
      }
    in
    let merged =
      List.sort (fun a b -> compare b.ex_ack a.ex_ack) (ex :: t.exs)
    in
    t.exs <-
      (if List.length merged > ex_cap then
         List.filteri (fun i _ -> i < ex_cap) merged
       else merged)
  end

let observe t (r : Span.record) =
  remember t r;
  if r.Span.r_trace >= 0 then
    match r.Span.r_parent with
    | None -> (
        match Hashtbl.find_opt t.pending r.Span.r_trace with
        | Some b ->
            Hashtbl.remove t.pending r.Span.r_trace;
            t.pending_n <- t.pending_n - b.b_n;
            finalize t r b.b_recs
        | None -> finalize t r [])
    | Some _ ->
        let b =
          match Hashtbl.find_opt t.pending r.Span.r_trace with
          | Some b -> b
          | None ->
              let b = { b_seq = t.seq; b_recs = []; b_n = 0 } in
              t.seq <- t.seq + 1;
              Hashtbl.replace t.pending r.Span.r_trace b;
              b
        in
        b.b_recs <- r :: b.b_recs;
        b.b_n <- b.b_n + 1;
        t.pending_n <- t.pending_n + 1;
        while t.pending_n > max_pending do
          evict_oldest t
        done

let attach t spans = Span.subscribe spans (observe t)

let txns t = t.n_txns

let evicted t = t.n_evicted

let hops t =
  Hashtbl.fold
    (fun name a acc ->
      { h_name = name; h_count = a.a_count; h_queue = a.a_queue; h_service = a.a_service }
      :: acc)
    t.aggs []
  |> List.sort (fun a b ->
         compare (b.h_queue + b.h_service) (a.h_queue + a.h_service))

let exemplars t = t.exs

let hop_json h =
  Json.Obj
    [
      ("hop", Json.String h.h_name);
      ("count", Json.Int h.h_count);
      ("queue_ns", Json.Int h.h_queue);
      ("service_ns", Json.Int h.h_service);
      ("total_ns", Json.Int (h.h_queue + h.h_service));
    ]

let exemplar_json ex =
  let hop_sum =
    List.fold_left (fun acc xh -> acc + xh.xh_queue + xh.xh_service) 0 ex.ex_hops
  in
  Json.Obj
    [
      ("trace", Json.Int ex.ex_trace);
      ("root", Json.String ex.ex_root);
      ("ack_ns", Json.Int ex.ex_ack);
      ("hop_sum_ns", Json.Int hop_sum);
      ("spans", Json.Int (List.length ex.ex_records));
      ( "hops",
        Json.List
          (List.map
             (fun xh ->
               Json.Obj
                 [
                   ("hop", Json.String xh.xh_name);
                   ("queue_ns", Json.Int xh.xh_queue);
                   ("service_ns", Json.Int xh.xh_service);
                 ])
             ex.ex_hops) );
    ]

let to_json t =
  let s = Stat.summary t.lat in
  Json.Obj
    [
      ("txns", Json.Int t.n_txns);
      ("evicted_traces", Json.Int t.n_evicted);
      ( "ack_latency",
        Json.Obj
          [
            ("count", Json.Int s.Stat.n);
            ("mean_ns", Json.Float s.Stat.mean);
            ("p50_ns", Json.Float s.Stat.p50);
            ("p99_ns", Json.Float s.Stat.p99);
            ("max_ns", Json.Float s.Stat.max);
          ] );
      ("hops", Json.List (List.map hop_json (hops t)));
      ("exemplars", Json.List (List.map exemplar_json t.exs));
    ]

let pp fmt t =
  let s = Stat.summary t.lat in
  Format.fprintf fmt "critical path over %d txns (ack p50 %.1f us, p99 %.1f us)@."
    t.n_txns (s.Stat.p50 /. 1e3) (s.Stat.p99 /. 1e3);
  let total =
    List.fold_left (fun acc h -> acc + h.h_queue + h.h_service) 0 (hops t)
  in
  Format.fprintf fmt "  %-28s %8s %12s %12s %7s@." "hop" "count" "queue_us"
    "service_us" "share";
  List.iter
    (fun h ->
      Format.fprintf fmt "  %-28s %8d %12.1f %12.1f %6.1f%%@." h.h_name h.h_count
        (float_of_int h.h_queue /. 1e3)
        (float_of_int h.h_service /. 1e3)
        (100.0 *. float_of_int (h.h_queue + h.h_service) /. float_of_int (max 1 total)))
    (hops t);
  match t.exs with
  | [] -> ()
  | ex :: _ ->
      Format.fprintf fmt "  slowest txn: trace %d, ack %.1f us, top hop %s@."
        ex.ex_trace
        (float_of_int ex.ex_ack /. 1e3)
        (match ex.ex_hops with xh :: _ -> xh.xh_name | [] -> "-")

type sample = { s_time : Time.t; s_dt : Time.span; s_values : (string * float) list }

type attribution = {
  at_resource : string;
  at_utilization : float;
  at_qlen : float;
  at_busy : Time.span;
  at_busy_share : float;
}

type t = {
  sim : Sim.t;
  metrics : Metrics.t;
  ts_interval : Time.span;
  capacity : int;
  ring : sample Queue.t;
  mutable n_evicted : int;
  mutable running : bool;
  mutable started : bool;
  mutable started_at : Time.t;
  mutable last_time : Time.t;
  mutable ts_marks : (Time.t * string) list;  (** newest first *)
  (* Cumulative readings at the previous sample, keyed by
     [path ^ "#" ^ facet], so deltas turn counters into rates and probe
     totals into per-interval utilization. *)
  last : (string, float) Hashtbl.t;
}

let create ?(capacity = 4096) ~sim ~metrics ~interval () =
  if interval <= 0 then invalid_arg "Timeseries.create: interval must be positive";
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity must be positive";
  {
    sim;
    metrics;
    ts_interval = interval;
    capacity;
    ring = Queue.create ();
    n_evicted = 0;
    running = false;
    started = false;
    started_at = Time.zero;
    last_time = Time.zero;
    ts_marks = [];
    last = Hashtbl.create 128;
  }

let interval t = t.ts_interval

let evicted t = t.n_evicted

let sample_count t = Queue.length t.ring

let samples t = List.of_seq (Queue.to_seq t.ring)

let mark t ~time label = t.ts_marks <- (time, label) :: t.ts_marks

let marks t = List.sort compare (List.rev t.ts_marks)

let delta t key current =
  let prev = match Hashtbl.find_opt t.last key with Some v -> v | None -> 0.0 in
  Hashtbl.replace t.last key current;
  current -. prev

(* Columns derived from one instrument for one interval of length [dt_s]
   seconds.  Cumulative sources (counters, stat totals, probe busy and
   depth integrals) are differenced against the previous sample, so each
   row describes the interval, not the run so far. *)
let columns_of t ~dt_s ~dt_ns (path, instrument) =
  match instrument with
  | Metrics.Gauge fn -> [ (path, fn ()) ]
  | Metrics.Counter c ->
      let d = delta t (path ^ "#count") (float_of_int (Stat.Counter.get c)) in
      [ (path ^ ".delta", d); (path ^ ".rate", d /. dt_s) ]
  | Metrics.Stat s ->
      let n = Stat.count s in
      let prev_n =
        match Hashtbl.find_opt t.last (path ^ "#n") with
        | Some v -> int_of_float v
        | None -> 0
      in
      let dn = delta t (path ^ "#n") (float_of_int n) in
      let dtotal = delta t (path ^ "#total") (Stat.total s) in
      let mean = if dn > 0.0 then dtotal /. dn else 0.0 in
      let p50, p99 =
        if n > prev_n then begin
          let slice = Stat.samples_from s prev_n in
          Array.sort compare slice;
          let pick p =
            let rank =
              int_of_float (Float.round (p *. float_of_int (Array.length slice - 1)))
            in
            slice.(rank)
          in
          (pick 0.50, pick 0.99)
        end
        else (0.0, 0.0)
      in
      [
        (path ^ ".n", dn);
        (path ^ ".mean", mean);
        (path ^ ".p50", p50);
        (path ^ ".p99", p99);
      ]
  | Metrics.Probe p ->
      let busy = delta t (path ^ "#busy") (float_of_int (Probe.busy_total p)) in
      let integral = delta t (path ^ "#integral") (Probe.depth_integral ~at:(Sim.now t.sim) p) in
      let deq = delta t (path ^ "#deq") (float_of_int (Probe.dequeued p)) in
      [
        (path ^ ".util", busy /. dt_ns);
        (path ^ ".qlen", integral /. dt_ns);
        (path ^ ".depth", float_of_int (Probe.depth p));
        (path ^ ".rate", deq /. dt_s);
      ]

let take_sample t =
  if not (Level.on ()) then ()
  else
  let now = Sim.now t.sim in
  if now > t.last_time then begin
    let dt = now - t.last_time in
    let dt_ns = float_of_int dt in
    let dt_s = dt_ns /. 1e9 in
    let values =
      List.concat_map (columns_of t ~dt_s ~dt_ns) (Metrics.instruments t.metrics)
      |> List.sort compare
    in
    if Queue.length t.ring >= t.capacity then begin
      ignore (Queue.pop t.ring);
      t.n_evicted <- t.n_evicted + 1
    end;
    Queue.push { s_time = now; s_dt = dt; s_values = values } t.ring;
    t.last_time <- now
  end


let rec tick t () =
  if t.running then begin
    take_sample t;
    Sim.at t.sim ~after:t.ts_interval (tick t)
  end

let start t =
  if not t.started then begin
    t.started <- true;
    t.running <- true;
    t.started_at <- Sim.now t.sim;
    t.last_time <- t.started_at;
    (* Baseline every cumulative reading so the first interval's deltas
       measure the sampled window, not everything since time zero. *)
    List.iter
      (fun col -> ignore (columns_of t ~dt_s:1.0 ~dt_ns:1.0 col))
      (Metrics.instruments t.metrics);
    Sim.at t.sim ~after:t.ts_interval (tick t)
  end

let stop t =
  if t.running then begin
    t.running <- false;
    (* One final sample so runs shorter than an interval still produce a
       row, and the tail of longer runs is not silently dropped. *)
    take_sample t
  end

let paths t =
  let seen = Hashtbl.create 64 in
  Queue.iter
    (fun s -> List.iter (fun (k, _) -> Hashtbl.replace seen k ()) s.s_values)
    t.ring;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

(* --- attribution --- *)

(* Where the time went: every probe's busy time and depth integral over
   the sampled window [started_at, last sample], as utilization and mean
   queue length.  Ranked by utilization (queue length breaks ties): the
   resource the run spent the most wall-clock actually serving is the
   bottleneck candidate. *)
let attribution t =
  (* Window = the retained rows' combined span, so utilization stays
     exact even after ring eviction drops the oldest rows. *)
  let window = Queue.fold (fun acc s -> acc + s.s_dt) 0 t.ring in
  if window <= 0 then []
  else begin
    let w = float_of_int window in
    let entries =
      List.filter_map
        (fun (path, instrument) ->
          match instrument with
          | Metrics.Probe _ ->
              (* Reconstructed from sampled per-interval rates rather
                 than raw probe totals: with a bounded ring the evicted
                 head is lost either way, and summing rate x dt over the
                 retained rows stays consistent with what the exported
                 series shows. *)
              let busy = ref 0.0 and integral = ref 0.0 in
              Queue.iter
                (fun s ->
                  let dt = float_of_int s.s_dt in
                  (match List.assoc_opt (path ^ ".util") s.s_values with
                  | Some u -> busy := !busy +. (u *. dt)
                  | None -> ());
                  match List.assoc_opt (path ^ ".qlen") s.s_values with
                  | Some q -> integral := !integral +. (q *. dt)
                  | None -> ())
                t.ring;
              Some (path, !busy, !integral)
          | _ -> None)
        (Metrics.instruments t.metrics)
    in
    let total_busy = List.fold_left (fun acc (_, b, _) -> acc +. b) 0.0 entries in
    let ranked =
      List.map
        (fun (path, busy, integral) ->
          {
            at_resource = path;
            at_utilization = busy /. w;
            at_qlen = integral /. w;
            at_busy = int_of_float busy;
            at_busy_share = (if total_busy > 0.0 then busy /. total_busy else 0.0);
          })
        entries
    in
    List.sort
      (fun a b ->
        match compare b.at_utilization a.at_utilization with
        | 0 -> (
            match compare b.at_qlen a.at_qlen with
            | 0 -> compare a.at_resource b.at_resource
            | c -> c)
        | c -> c)
      ranked
  end

(* --- export --- *)

let csv_escape s =
  if
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  then begin
    let b = Buffer.create (String.length s + 8) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

let float_cell v =
  if Float.is_nan v || Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_csv t =
  let cols = paths t in
  let b = Buffer.create 4096 in
  List.iter
    (fun (tm, label) ->
      Buffer.add_string b (Printf.sprintf "# mark,%d,%s\n" tm (csv_escape label)))
    (marks t);
  Buffer.add_string b "time_ns,dt_ns";
  List.iter
    (fun c ->
      Buffer.add_char b ',';
      Buffer.add_string b (csv_escape c))
    cols;
  Buffer.add_char b '\n';
  Queue.iter
    (fun s ->
      Buffer.add_string b (string_of_int s.s_time);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int s.s_dt);
      List.iter
        (fun c ->
          Buffer.add_char b ',';
          match List.assoc_opt c s.s_values with
          | Some v -> Buffer.add_string b (float_cell v)
          | None -> ())
        cols;
      Buffer.add_char b '\n')
    t.ring;
  Buffer.contents b

let json t =
  Json.Obj
    [
      ("interval_ns", Json.Int t.ts_interval);
      ("evicted", Json.Int t.n_evicted);
      ("columns", Json.List (List.map (fun c -> Json.String c) (paths t)));
      ( "marks",
        Json.List
          (List.map
             (fun (tm, label) ->
               Json.Obj [ ("t_ns", Json.Int tm); ("label", Json.String label) ])
             (marks t)) );
      ( "samples",
        Json.List
          (List.of_seq
             (Seq.map
                (fun s ->
                  Json.Obj
                    [
                      ("t_ns", Json.Int s.s_time);
                      ("dt_ns", Json.Int s.s_dt);
                      ( "values",
                        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.s_values)
                      );
                    ])
                (Queue.to_seq t.ring))) );
    ]

let attribution_json t =
  Json.List
    (List.map
       (fun a ->
         Json.Obj
           [
             ("resource", Json.String a.at_resource);
             ("utilization", Json.Float a.at_utilization);
             ("mean_qlen", Json.Float a.at_qlen);
             ("busy_ns", Json.Int a.at_busy);
             ("busy_share", Json.Float a.at_busy_share);
           ])
       (attribution t))

let pp_attribution ppf t =
  let ranked = attribution t in
  Format.fprintf ppf "%4s %-28s %7s %7s %12s %7s@." "rank" "resource" "util%" "qlen"
    "busy(ms)" "share%";
  List.iteri
    (fun i a ->
      Format.fprintf ppf "%4d %-28s %7.1f %7.2f %12.1f %7.1f@." (i + 1) a.at_resource
        (a.at_utilization *. 100.) a.at_qlen
        (float_of_int a.at_busy /. 1e6)
        (a.at_busy_share *. 100.))
    ranked

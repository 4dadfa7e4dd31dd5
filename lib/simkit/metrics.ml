type instrument =
  | Stat of Stat.t
  | Counter of Stat.Counter.t
  | Gauge of (unit -> float)
  | Probe of Probe.t

type t = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let kind_name = function
  | Stat _ -> "stat"
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Probe _ -> "probe"

let register t path instrument = Hashtbl.replace t.tbl path instrument

let register_gauge t path fn = register t path (Gauge fn)

let wrong_kind path found want =
  invalid_arg
    (Printf.sprintf "Metrics.%s: %s is already registered as a %s" want path
       (kind_name found))

let stat t path =
  match Hashtbl.find_opt t.tbl path with
  | Some (Stat s) -> s
  | Some other -> wrong_kind path other "stat"
  | None ->
      let s = Stat.create ~name:path () in
      register t path (Stat s);
      s

let counter t path =
  match Hashtbl.find_opt t.tbl path with
  | Some (Counter c) -> c
  | Some other -> wrong_kind path other "counter"
  | None ->
      let c = Stat.Counter.create () in
      register t path (Counter c);
      c

let probe t ?clock path =
  match Hashtbl.find_opt t.tbl path with
  | Some (Probe p) -> p
  | Some other -> wrong_kind path other "probe"
  | None ->
      let p = Probe.create ?clock () in
      register t path (Probe p);
      p

let find t path = Hashtbl.find_opt t.tbl path

let instruments t =
  Hashtbl.fold (fun path i acc -> (path, i) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let paths t = List.map fst (instruments t)

let pp_table ppf t =
  Format.fprintf ppf "%-36s %-9s %12s %12s %12s %8s@." "instrument" "kind" "value"
    "mean" "p99" "n";
  List.iter
    (fun (path, i) ->
      match i with
      | Stat s ->
          let sm = Stat.summary s in
          Format.fprintf ppf "%-36s %-9s %12.0f %12.1f %12.1f %8d@." path "stat" sm.Stat.max
            sm.Stat.mean sm.Stat.p99 sm.Stat.n
      | Counter c ->
          Format.fprintf ppf "%-36s %-9s %12d %12s %12s %8s@." path "counter"
            (Stat.Counter.get c) "-" "-" "-"
      | Gauge fn ->
          Format.fprintf ppf "%-36s %-9s %12.0f %12s %12s %8s@." path "gauge" (fn ()) "-" "-"
            "-"
      | Probe p ->
          (* value = current depth, mean = cumulative busy (ms), n = completions *)
          Format.fprintf ppf "%-36s %-9s %12d %12.1f %12s %8d@." path "probe" (Probe.depth p)
            (float_of_int (Probe.busy_total p) /. 1e6)
            "-" (Probe.dequeued p))
    (instruments t)

let to_json t =
  let entry (path, i) =
    let body =
      match i with
      | Stat s ->
          let sm = Stat.summary s in
          [
            ("kind", Json.String "stat");
            ("n", Json.Int sm.Stat.n);
            ("total", Json.Float (Stat.total s));
            ("mean", Json.Float sm.Stat.mean);
            ("stdev", Json.Float sm.Stat.stdev);
            ("min", Json.Float sm.Stat.min);
            ("max", Json.Float sm.Stat.max);
            ("p50", Json.Float sm.Stat.p50);
            ("p90", Json.Float sm.Stat.p90);
            ("p99", Json.Float sm.Stat.p99);
          ]
      | Counter c -> [ ("kind", Json.String "counter"); ("value", Json.Int (Stat.Counter.get c)) ]
      | Gauge fn -> [ ("kind", Json.String "gauge"); ("value", Json.Float (fn ())) ]
      | Probe p ->
          [
            ("kind", Json.String "probe");
            ("depth", Json.Int (Probe.depth p));
            ("max_depth", Json.Int (Probe.max_depth p));
            ("enqueued", Json.Int (Probe.enqueued p));
            ("dequeued", Json.Int (Probe.dequeued p));
            ("busy_ns", Json.Int (Probe.busy_total p));
          ]
    in
    (path, Json.Obj body)
  in
  Json.Obj (List.map entry (instruments t))

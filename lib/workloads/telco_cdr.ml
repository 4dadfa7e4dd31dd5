open Simkit

type arrival = Closed | Open_poisson of float

type params = {
  switches : int;
  cdrs_per_switch : int;
  cdr_bytes : int;
  cdrs_per_txn : int;
  fraud_readers : int;
  arrival : arrival;
}

let default_params =
  {
    switches = 4;
    cdrs_per_switch = 1000;
    cdr_bytes = 256;
    cdrs_per_txn = 2;
    fraud_readers = 1;
    arrival = Closed;
  }

type result = {
  elapsed : Time.span;
  cdrs_inserted : int;
  cdrs_per_sec : float;
  txn_response : Stat.summary;
  lookups : int;
  lookup_hits : int;
  failed_txns : int;
}

(* One insert transaction of [n] CDRs starting at [start_seq].  One
   that cannot begin across a takeover or fails to commit is counted in
   [failed]. *)
let one_txn system params ~session ~key_base ~start_seq ~n ~rt ~inserted ~failed =
  let sim = Tp.System.sim system in
  let files = (Tp.System.config system).Tp.System.files in
  let t0 = Sim.now sim in
  match Tp.Load.begin_txn session ~retries:Tp.Drill.default_params.begin_retries with
  | None -> incr failed
  | Some txn -> (
      for i = 0 to n - 1 do
        let key = key_base + start_seq + i in
        Tp.Txclient.insert_async session txn ~file:((start_seq + i) mod files) ~key
          ~len:params.cdr_bytes ()
      done;
      match Tp.Txclient.commit session txn with
      | Ok () ->
          inserted := !inserted + n;
          Stat.add_span rt (Sim.now sim - t0)
      | Error _ -> incr failed)

(* One switch: a closed-loop stream of small insert transactions. *)
let switch system params ~rt ~inserted ~failed index =
  let cfg = Tp.System.config system in
  let session = Tp.System.session system ~cpu:(index mod cfg.Tp.System.worker_cpus) in
  let key_base = (index + 1) * 10_000_000 in
  let seq = ref 0 in
  while !seq < params.cdrs_per_switch do
    let n = min params.cdrs_per_txn (params.cdrs_per_switch - !seq) in
    one_txn system params ~session ~key_base ~start_seq:!seq ~n ~rt ~inserted ~failed;
    seq := !seq + n
  done

(* Open-loop switch: transactions arrive at Poisson intervals regardless
   of completion; each runs in its own worker so arrivals queue behind a
   saturated system instead of throttling it. *)
let open_switch system params ~rate_cdrs ~rt ~inserted ~failed index =
  let cfg = Tp.System.config system in
  let cpu_idx = index mod cfg.Tp.System.worker_cpus in
  let node = Tp.System.node system in
  let key_base = (index + 1) * 10_000_000 in
  let rng = Rng.create (Int64.of_int (0x0931 + index)) in
  let per_switch_txn_rate = rate_cdrs /. float_of_int params.switches /. float_of_int params.cdrs_per_txn in
  let mean_gap_ns = 1e9 /. per_switch_txn_rate in
  let total_txns = (params.cdrs_per_switch + params.cdrs_per_txn - 1) / params.cdrs_per_txn in
  let gate = Gate.create total_txns in
  let seq = ref 0 in
  for _ = 1 to total_txns do
    Sim.sleep (int_of_float (Rng.exponential rng ~mean:mean_gap_ns));
    let start_seq = !seq in
    let n = min params.cdrs_per_txn (params.cdrs_per_switch - start_seq) in
    seq := start_seq + n;
    (* Each switch keeps its own session per in-flight txn to avoid
       sharing issue-path state across workers. *)
    let session = Tp.System.session system ~cpu:cpu_idx in
    ignore
      (Nsk.Cpu.spawn (Nsk.Node.cpu node cpu_idx) ~name:"cdr-txn" (fun () ->
           one_txn system params ~session ~key_base ~start_seq ~n ~rt ~inserted ~failed;
           Gate.arrive gate))
  done;
  Gate.await gate

(* A fraud-detection reader probing recent CDRs: point lookups mixed
   with B-tree range scans over a window of one switch's stream. *)
let reader system params ~stop ~lookups ~hits index =
  let cfg = Tp.System.config system in
  let session = Tp.System.session system ~cpu:(index mod cfg.Tp.System.worker_cpus) in
  let files = cfg.Tp.System.files in
  let rng = Rng.create (Int64.of_int (0xF4A + index)) in
  while not !stop do
    Sim.sleep (Time.ms 5);
    let switch_idx = Rng.int rng params.switches in
    let base = (switch_idx + 1) * 10_000_000 in
    let key = base + Rng.int rng (max 1 params.cdrs_per_switch) in
    if Rng.bool rng 0.25 then begin
      (* Window scan: e.g. all calls of a subscriber range. *)
      match Tp.Txclient.scan session ~file:(key mod files) ~lo:key ~hi:(key + 40) () with
      | Ok rows ->
          incr lookups;
          if rows <> [] then incr hits
      | Error _ -> ()
    end
    else
      match Tp.Txclient.lookup session ~file:(key mod files) ~key with
      | Ok (Some _) ->
          incr lookups;
          incr hits
      | Ok None -> incr lookups
      | Error _ -> ()
  done

let run system params =
  let sim = Tp.System.sim system in
  let rt = Stat.create ~name:"cdr-txn-rt" () in
  let inserted = ref 0 in
  let failed = ref 0 in
  let lookups = ref 0 in
  let hits = ref 0 in
  let stop = ref false in
  let started = Sim.now sim in
  let join =
    Tp.Load.clients [| system |] ~name:"switch" params.switches
      (match params.arrival with
      | Closed -> switch system params ~rt ~inserted ~failed
      | Open_poisson rate -> open_switch system params ~rate_cdrs:rate ~rt ~inserted ~failed)
  in
  (* The fraud readers run until [stop]; nobody waits for them. *)
  let (_ : unit -> unit) =
    Tp.Load.clients [| system |] ~name:"fraud" params.fraud_readers
      (reader system params ~stop ~lookups ~hits)
  in
  join ();
  stop := true;
  let elapsed = Sim.now sim - started in
  {
    elapsed;
    cdrs_inserted = !inserted;
    cdrs_per_sec = (if elapsed = 0 then 0.0 else float_of_int !inserted /. Time.to_sec elapsed);
    txn_response = Stat.summary rt;
    lookups = !lookups;
    lookup_hits = !hits;
    failed_txns = !failed;
  }

open Simkit

type params = {
  clients : int;
  txns_per_client : int;
  branches : int;
  tellers_per_branch : int;
  accounts : int;
  row_bytes : int;
}

let default_params =
  {
    clients = 4;
    txns_per_client = 250;
    branches = 2;
    tellers_per_branch = 10;
    accounts = 10_000;
    row_bytes = 256;
  }

type result = {
  elapsed : Time.span;
  committed : int;
  tps : float;
  response : Stat.summary;
  branch_conflicts : int;
  history_rows : int;
}

(* File roles. *)
let accounts_file = 0

let tellers_file = 1

let branches_file = 2

let history_file = 3

(* Seed the account/teller/branch rows so the measured transactions are
   pure updates with before-images. *)
let load_tables system params ~client_index =
  let cfg = Tp.System.config system in
  let session =
    Tp.System.session system ~cpu:(client_index mod cfg.Tp.System.worker_cpus)
  in
  let chunk = 64 in
  let insert_range file lo hi =
    let i = ref lo in
    while !i <= hi do
      let txn =
        match Tp.Txclient.begin_txn session with
        | Ok t -> t
        | Error e -> failwith ("bank load: " ^ Tp.Txclient.error_to_string e)
      in
      let upper = min hi (!i + chunk - 1) in
      for key = !i to upper do
        Tp.Txclient.insert_async session txn ~file ~key ~len:params.row_bytes ()
      done;
      (match Tp.Txclient.commit session txn with
      | Ok () -> ()
      | Error e -> failwith ("bank load commit: " ^ Tp.Txclient.error_to_string e));
      i := upper + 1
    done
  in
  (* Client 0 loads the shared small tables; accounts are striped over
     the clients. *)
  if client_index = 0 then begin
    insert_range branches_file 1 params.branches;
    insert_range tellers_file 1 (params.branches * params.tellers_per_branch)
  end;
  let per_client = (params.accounts + params.clients - 1) / params.clients in
  let lo = 1 + (client_index * per_client) in
  let hi = min params.accounts (lo + per_client - 1) in
  if lo <= hi then insert_range accounts_file lo hi

let client_loop system params ~rt ~committed ~history index =
  let cfg = Tp.System.config system in
  let session = Tp.System.session system ~cpu:(index mod cfg.Tp.System.worker_cpus) in
  let sim = Tp.System.sim system in
  let rng = Rng.create (Int64.of_int (0xBA2C + index)) in
  let history_base = (index + 1) * 100_000_000 in
  for i = 0 to params.txns_per_client - 1 do
    let account = 1 + Rng.int rng params.accounts in
    let branch = 1 + (account mod params.branches) in
    let teller = 1 + Rng.int rng (params.branches * params.tellers_per_branch) in
    let t0 = Sim.now sim in
    (* Deadlock avoidance: the contended rows are locked in a fixed
       hierarchy (account, then teller, then branch) by awaiting each
       update before issuing the next; only the uncontended history
       insert is asynchronous.  Lock-timeout victims abort and retry. *)
    let rec attempt retries =
      match Tp.Txclient.begin_txn session with
      | Error e -> failwith ("bank: begin: " ^ Tp.Txclient.error_to_string e)
      | Ok txn -> (
          let step file key =
            Tp.Txclient.insert session txn ~file ~key ~len:params.row_bytes ()
          in
          let updates =
            match step accounts_file account with
            | Ok () -> (
                match step tellers_file teller with
                | Ok () -> step branches_file branch
                | Error e -> Error e)
            | Error e -> Error e
          in
          match updates with
          | Error e ->
              ignore (Tp.Txclient.abort session txn);
              if retries > 0 then attempt (retries - 1)
              else failwith ("bank: gave up: " ^ Tp.Txclient.error_to_string e)
          | Ok () -> (
              Tp.Txclient.insert_async session txn ~file:history_file
                ~key:(history_base + i) ~len:params.row_bytes ();
              match Tp.Txclient.commit session txn with
              | Ok () ->
                  incr committed;
                  incr history;
                  Stat.add_span rt (Sim.now sim - t0)
              | Error e -> failwith ("bank: commit: " ^ Tp.Txclient.error_to_string e)))
    in
    attempt 3
  done

let run system params =
  if params.branches < 1 then invalid_arg "Bank.run: need at least one branch";
  let sim = Tp.System.sim system in
  let rt = Stat.create ~name:"bank-rt" () in
  let committed = ref 0 in
  let history = ref 0 in
  let conflicts_before = Tp.Lockmgr.conflicts (Tp.System.locks system) in
  (* Load phase. *)
  Tp.Load.clients [| system |] ~name:"bank-load" params.clients
    (fun index -> load_tables system params ~client_index:index)
    ();
  (* Measured phase. *)
  let started = Sim.now sim in
  Tp.Load.clients [| system |] ~name:"bank" params.clients
    (client_loop system params ~rt ~committed ~history)
    ();
  let elapsed = Sim.now sim - started in
  {
    elapsed;
    committed = !committed;
    tps = (if elapsed = 0 then 0.0 else float_of_int !committed /. Time.to_sec elapsed);
    response = Stat.summary rt;
    branch_conflicts = Tp.Lockmgr.conflicts (Tp.System.locks system) - conflicts_before;
    history_rows = !history;
  }

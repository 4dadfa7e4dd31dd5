open Simkit
open Nsk

type outcome_source = Mat_scan | Pm_txn_table

type report = {
  mttr : Time.span;
  outcome_source : outcome_source;
  trails_scanned : int;
  bytes_scanned : int;
  records_replayed : int;
  committed_txns : int;
  in_doubt_txns : int;
  resolved_commit : int;
  resolved_abort : int;
  discarded_updates : int;
  rows_rebuilt : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "MTTR=%a source=%s trails=%d bytes=%d replayed=%d committed=%d in-doubt=%d resolved-commit=%d resolved-abort=%d discarded=%d rows=%d"
    Time.pp r.mttr
    (match r.outcome_source with Mat_scan -> "MAT-scan" | Pm_txn_table -> "PM-txn-table")
    r.trails_scanned r.bytes_scanned r.records_replayed r.committed_txns r.in_doubt_txns
    r.resolved_commit r.resolved_abort r.discarded_updates r.rows_rebuilt

let apply_cpu_per_record = Time.ns 2_000

(* Learn commit outcomes from the PM transaction-state table.  A slot
   written while one device of the mirror pair was dark exists on the
   survivor only (the write acked under the degraded-durability
   contract), so a single routed read can miss commits: read BOTH raw
   copies and union the outcomes.  Commit status is write-once, so the
   union cannot resurrect an aborted branch; a slot in doubt on a stale
   copy but committed on the fresh one resolves to committed. *)
let outcomes_from_pm_table (client, handle) =
  let info = Pm.Pm_client.info handle in
  let length = info.Pm.Pm_types.length in
  let committed = Hashtbl.create 1024 in
  let in_doubt = Hashtbl.create 16 in
  let chunk = 64 * 1024 in
  let parse data len =
    for i = 0 to (len / Tmf.state_entry_bytes) - 1 do
      let pos = i * Tmf.state_entry_bytes in
      let txn = Tmf.state_entry_txn data ~pos in
      if txn > 0 then
        match Tmf.state_entry_status data ~pos with
        | 2 -> Hashtbl.replace committed txn ()
        | 4 -> Hashtbl.replace in_doubt txn ()
        | _ -> ()
    done
  in
  let rec fetch off =
    if off >= length then Ok ()
    else
      let len = min chunk (length - off) in
      let prim = Pm.Pm_client.read_device client handle ~mirror:false ~off ~len in
      let mirr = Pm.Pm_client.read_device client handle ~mirror:true ~off ~len in
      match (prim, mirr) with
      | Error e, Error _ -> Error (Pm.Pm_types.error_to_string e)
      | Ok a, Ok b ->
          parse a len;
          parse b len;
          fetch (off + len)
      | Ok a, Error _ | Error _, Ok a ->
          parse a len;
          fetch (off + len)
  in
  match fetch 0 with
  | Ok () ->
      let unresolved =
        Hashtbl.fold
          (fun txn () acc -> if Hashtbl.mem committed txn then acc else acc + 1)
          in_doubt 0
      in
      Ok (committed, unresolved, length)
  | Error e -> Error e

(* Learn commit outcomes by scanning the master audit trail. *)
let outcomes_from_mat mat =
  let backend = Adp.backend mat in
  match Log_backend.recovery_read backend with
  | Error e -> Error e
  | Ok records ->
      let committed = Hashtbl.create 1024 in
      let prepared = Hashtbl.create 16 in
      let aborted = Hashtbl.create 16 in
      List.iter
        (fun (_, record) ->
          match record with
          | Audit.Commit { txn } -> Hashtbl.replace committed txn ()
          | Audit.Abort { txn } ->
              Hashtbl.remove committed txn;
              Hashtbl.replace aborted txn ()
          | Audit.Prepared { txn } -> Hashtbl.replace prepared txn ()
          | Audit.Begin _ | Audit.Update _ | Audit.Control_point _ -> ())
        records;
      (* Prepared but neither committed nor aborted: in doubt.  Presumed
         abort discards their updates; a full implementation would hold
         their locks and ask the coordinator. *)
      let in_doubt =
        Hashtbl.fold
          (fun txn () acc ->
            if Hashtbl.mem committed txn || Hashtbl.mem aborted txn then acc else acc + 1)
          prepared 0
      in
      Ok (committed, in_doubt, Log_backend.bytes_written backend)

let run ?outcome_of system =
  let sim = System.sim system in
  let cpu = Node.cpu (System.node system) 0 in
  let started = Sim.now sim in
  (* In-doubt resolution happens before redo: each prepared-but-undecided
     branch asks its coordinator (via [outcome_of], which a cluster
     supplies as a cross-node Query_outcome) what the global decision
     was.  Presumed abort — only an affirmative "committed" (status 2)
     commits the branch; everything else, including an unreachable
     coordinator, aborts it.  Resolved commits join the committed set so
     the redo pass replays their updates. *)
  let tmf = System.tmf system in
  let decisions =
    List.map
      (fun (txn, _, gtid) ->
        let status = match outcome_of with Some f -> f gtid | None -> 0 in
        (txn, status = 2))
      (Tmf.in_doubt tmf)
  in
  let outcome =
    match System.txn_state_region system with
    | Some region -> (
        match outcomes_from_pm_table region with
        | Ok (committed, in_doubt, bytes) -> Ok (committed, in_doubt, bytes, Pm_txn_table)
        | Error e -> Error e)
    | None -> (
        match outcomes_from_mat (System.mat system) with
        | Ok (committed, in_doubt, bytes) -> Ok (committed, in_doubt, bytes, Mat_scan)
        | Error e -> Error e)
  in
  match outcome with
  | Error e -> Error e
  | Ok (committed, in_doubt, outcome_bytes, outcome_source) -> (
      List.iter (fun (txn, commit) -> if commit then Hashtbl.replace committed txn ()) decisions;
      (* Redo pass over every data trail. *)
      let n_dp2 = Array.length (System.dp2s system) in
      let rebuilt = Array.init n_dp2 (fun _ -> Hashtbl.create 1024) in
      let replayed = ref 0 in
      let discarded = ref 0 in
      let bytes = ref outcome_bytes in
      let scan_trail adp =
        let backend = Adp.backend adp in
        bytes := !bytes + Log_backend.bytes_written backend;
        match Log_backend.recovery_read backend with
        | Error e -> Error e
        | Ok records ->
            List.iter
              (fun (_, record) ->
                match record with
                | Audit.Prepared _ -> ()
                | Audit.Update { txn; file; partition; key; payload_len; payload_crc; _ } ->
                    incr replayed;
                    (* Amortized instruction-path cost of applying redo. *)
                    if !replayed mod 64 = 0 then Cpu.execute cpu (64 * apply_cpu_per_record);
                    if Hashtbl.mem committed txn then begin
                      if partition >= 0 && partition < n_dp2 then
                        Hashtbl.replace rebuilt.(partition) (file, key) (payload_len, payload_crc)
                    end
                    else incr discarded
                | Audit.Begin _ | Audit.Commit _ | Audit.Abort _ | Audit.Control_point _ -> ())
              records;
            Ok ()
      in
      let adps = System.adps system in
      let rec scan_all i =
        if i >= Array.length adps then Ok () else
          match scan_trail adps.(i) with Ok () -> scan_all (i + 1) | Error e -> Error e
      in
      match scan_all 0 with
      | Error e -> Error e
      | Ok () ->
          (* Install the rebuilt images. *)
          let rows = ref 0 in
          Array.iteri
            (fun i table ->
              let entries =
                Hashtbl.fold (fun (file, key) (len, crc) acc -> (file, key, len, crc) :: acc)
                  table []
              in
              rows := !rows + List.length entries;
              Dp2.load_table (System.dp2s system).(i) entries)
            rebuilt;
          (* Drive each resolution through the monitor: a durable outcome
             record, then lock release behind the reply.  If the monitor
             cannot take the decision, the locks are freed directly — an
             orphaned lock outlives every retry. *)
          let resolved_commit = ref 0 in
          let resolved_abort = ref 0 in
          let locks = System.locks system in
          List.iter
            (fun (txn, commit) ->
              if commit then incr resolved_commit else incr resolved_abort;
              match Msgsys.call (Tmf.server tmf) ~from:cpu (Tmf.Decide_txn { txn; commit }) with
              | Ok Tmf.Decided -> ()
              | Ok _ | Error _ -> Lockmgr.release_all locks ~owner:txn)
            decisions;
          (* Transactions still active at the crash never reached a
             commit point: abort them and free whatever they hold. *)
          List.iter
            (fun txn ->
              (match
                 Msgsys.call (Tmf.server tmf) ~from:cpu (Tmf.Abort_txn { txn; involved = [] })
               with
              | Ok _ | Error _ -> ());
              Lockmgr.release_all locks ~owner:txn)
            (Tmf.active_txns tmf);
          for _ = 1 to !resolved_commit do
            Obs.bump (System.obs system) "dtx.resolved_commit"
          done;
          for _ = 1 to !resolved_abort do
            Obs.bump (System.obs system) "dtx.resolved_abort"
          done;
          Ok
            {
              mttr = Sim.now sim - started;
              outcome_source;
              trails_scanned = Array.length adps + 1;
              bytes_scanned = !bytes;
              records_replayed = !replayed;
              committed_txns = Hashtbl.length committed;
              in_doubt_txns = in_doubt;
              resolved_commit = !resolved_commit;
              resolved_abort = !resolved_abort;
              discarded_updates = !discarded;
              rows_rebuilt = !rows;
            })

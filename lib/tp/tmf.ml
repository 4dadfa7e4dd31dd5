open Simkit
open Nsk

type request =
  | Begin_txn of { deadline : Time.t }
  | Commit_txn of {
      txn : Audit.txn_id;
      flushes : (int * Audit.asn) list;
      involved : int list;
    }
  | Abort_txn of { txn : Audit.txn_id; involved : int list }
  | Prepare_txn of {
      txn : Audit.txn_id;
      flushes : (int * Audit.asn) list;
      involved : int list;
      gtid : (int * Audit.txn_id) option;
    }
  | Decide_txn of { txn : Audit.txn_id; commit : bool }
  | Query_outcome of { txn : Audit.txn_id }

type response =
  | Began of { txn : Audit.txn_id }
  | Rejected of { reason : string }
      (** admission control refused the begin — backpressure, not a
          failure: nothing was acknowledged, nothing was lost *)
  | Committed
  | Aborted
  | Prepared_ok
  | Decided
  | Outcome of { status : int }
  | T_failed of string

type server = (request, response) Msgsys.server

(* Instruction path per begin, and per commit, abort or decision. *)
let begin_cpu = Time.us 30
let commit_cpu = Time.us 60

(* Smoothing of the commit service-time EWMA admission control reads. *)
let ewma_alpha = 0.2

(* The admission decision, pure so its arithmetic is property-testable:
   a transaction whose deadline has already passed is never admitted,
   and neither is one whose estimated queueing wait (a conservative
   [queue x svc_ewma] product) would blow the remaining deadline.
   [deadline <= 0] means the client opted out of deadlines: admit. *)
let admits ~now ~deadline ~queue ~svc_ewma_ns =
  if deadline <= 0 then `Admit
  else if now >= deadline then `Expired
  else begin
    let est_wait = float_of_int (max 0 queue) *. Float.max 0. svc_ewma_ns in
    if float_of_int now +. est_wait > float_of_int deadline then `Reject else `Admit
  end

type ckpt =
  | Ck_begin of Audit.txn_id
  | Ck_outcome of Audit.txn_id * bool
  | Ck_prepared of Audit.txn_id * int list * (int * Audit.txn_id) option

type prepared_info = {
  pi_involved : int list;  (** DP2 indices holding the branch's locks *)
  pi_gtid : (int * Audit.txn_id) option;
      (** global transaction identity: (coordinator node, coordinator
          branch txn) — who to ask when this branch is in doubt *)
}

type state = {
  mutable next_txn : Audit.txn_id;
  active : (Audit.txn_id, Time.t) Hashtbl.t;
      (** value is the transaction's absolute deadline, [0] = none.
          Deadlines are advisory after a takeover (the begin checkpoint
          carries only the id), which merely disables shedding for
          txns begun before the failover. *)
  prepared : (Audit.txn_id, prepared_info) Hashtbl.t;
}

type finish_job = { fj_txn : Audit.txn_id; fj_committed : bool; fj_involved : int list }

type t = {
  tmf_name : string;
  admission : bool;
      (** deadline-based admission control at [Begin_txn]: reject when
          the estimated wait (active txns x commit-service EWMA) exceeds
          the transaction's remaining deadline *)
  adps : Adp.server array;
  dp2s : Dp2.server array;
  mat : Adp.server;
  txn_state : (Pm.Pm_client.t * Pm.Pm_client.handle) option;
  srv : server;
  pair : (state, state, ckpt) Procpair.t;
  finish_queue : finish_job Mailbox.t;
  mutable n_begun : int;
  mutable n_committed : int;
  mutable n_aborted : int;
  mutable n_admitted : int;
  mutable n_rejected : int;  (** begins refused: estimated wait too long *)
  mutable n_expired : int;  (** begins/commits shed: deadline already past *)
  mutable svc_ewma : float;  (** commit service time EWMA, ns *)
  latency : Stat.t;
  obs : Obs.t option;
  flush_wait_stat : Stat.t option;
  mat_write_stat : Stat.t option;
  outcome_probe : (Audit.txn_id -> int) option;
      (** disk-mode fallback for [Query_outcome]: derive a status code
          from the durable MAT (2 committed / 3 aborted / 4 prepared /
          0 unknown) *)
}

let current_cpu t = Procpair.primary_cpu t.pair

let now t = Sim.now (Cpu.sim (current_cpu t))

(* Fine-grained txn-state table in PM, hashed by txn id: one small
   synchronous write per state change.  Status codes: 1 active,
   2 committed, 3 aborted, 4 prepared. *)
let state_entry_bytes = 32

let state_entry_txn data ~pos = Int64.to_int (Bytes.get_int64_le data pos)

let state_entry_status data ~pos = Bytes.get_uint8 data (pos + 8)

let state_entry_off handle txn =
  let slots = (Pm.Pm_client.info handle).Pm.Pm_types.length / state_entry_bytes in
  txn mod slots * state_entry_bytes

let record_state ?span t txn status =
  match t.txn_state with
  | None -> Ok ()
  | Some (client, handle) -> (
      let entry = Bytes.make state_entry_bytes '\000' in
      Bytes.set_int64_le entry 0 (Int64.of_int txn);
      Bytes.set_uint8 entry 8 status;
      match Pm.Pm_client.write ?span client handle ~off:(state_entry_off handle txn) ~data:entry with
      | Ok () -> Ok ()
      | Error e -> Error (Pm.Pm_types.error_to_string e))

(* Outcome statuses feed recovery's fast path: in PM mode the table is
   the source of truth for outcomes, so a commit may only be
   acknowledged once its committed status is persistent.  Begin/abort
   entries are advisory — a missing entry reads as "never committed",
   which discards only unacknowledged work. *)
let record_state_advisory ?span t txn status =
  match record_state ?span t txn status with Ok () | Error _ -> ()

(* Read a transaction's durable status back from the PM txn-state table.
   The table is a hash by txn id, so the slot must still name the same
   transaction; otherwise the entry was overwritten and tells us
   nothing. *)
let read_state t txn =
  match t.txn_state with
  | None -> None
  | Some (client, handle) -> (
      match
        Pm.Pm_client.read client handle ~off:(state_entry_off handle txn) ~len:state_entry_bytes
      with
      | Ok data when state_entry_txn data ~pos:0 = txn -> Some (state_entry_status data ~pos:0)
      | Ok _ | Error _ -> None)

(* Answer "what happened to transaction [txn]?" for a remote in-doubt
   resolver, from the most durable source available: the PM txn-state
   table, then live monitor state, then (disk mode) the MAT probe.
   0 unknown, 1 active, 2 committed, 3 aborted, 4 still prepared.
   Presumed abort means callers treat anything but 2 as an abort. *)
let query_outcome t s txn =
  match read_state t txn with
  | Some ((2 | 3) as status) -> status
  | _ ->
      if Hashtbl.mem s.prepared txn then 4
      else if Hashtbl.mem s.active txn then 1
      else (match t.outcome_probe with Some probe -> probe txn | None -> 0)

let flush_trails ?span ?(deadline = 0) t flushes =
  let calls =
    List.map
      (fun (adp_idx, asn) ->
        (adp_idx, asn,
         Msgsys.call_async t.adps.(adp_idx) ~from:(current_cpu t) ?span
           (Adp.Flush { through = asn; deadline })))
      flushes
  in
  (* Await the parallel flushes; a trail whose ADP died mid-flush is
     retried synchronously against the promoted backup. *)
  let check acc (adp_idx, asn, reply) =
    match (acc, Ivar.read reply) with
    | Error e, _ -> Error e
    | Ok (), Ok (Adp.Flushed _) -> Ok ()
    | Ok (), Ok (Adp.A_failed e) -> Error e
    | Ok (), Ok (Adp.Appended _ | Adp.Trimmed _) -> Error "unexpected reply"
    | Ok (), Error _ -> (
        match
          Rpc.call_retry t.adps.(adp_idx) ~from:(current_cpu t) ?span
            (Adp.Flush { through = asn; deadline })
        with
        | Ok (Adp.Flushed _) -> Ok ()
        | Ok (Adp.A_failed e) -> Error e
        | Ok (Adp.Appended _ | Adp.Trimmed _) -> Error "unexpected reply"
        | Error e -> Error (Format.asprintf "%a" Msgsys.pp_error e))
  in
  List.fold_left check (Ok ()) calls

(* Make a record durable in the master audit trail. *)
let write_mat_record ?span t record =
  match
    Rpc.call_retry t.mat ~from:(current_cpu t)
      ~req_bytes:(Audit.wire_size record + 64)
      ?span
      (Adp.Append [ record ])
  with
  | Ok (Adp.Appended { last_asn }) -> (
      match
        Rpc.call_retry t.mat ~from:(current_cpu t) ?span
          (Adp.Flush { through = last_asn; deadline = 0 })
      with
      | Ok (Adp.Flushed _) -> Ok ()
      | Ok (Adp.A_failed e) -> Error e
      | Ok _ -> Error "unexpected MAT reply"
      | Error e -> Error (Format.asprintf "MAT: %a" Msgsys.pp_error e))
  | Ok (Adp.A_failed e) -> Error e
  | Ok _ -> Error "unexpected MAT reply"
  | Error e -> Error (Format.asprintf "MAT: %a" Msgsys.pp_error e)

let write_commit_record ?span t txn = write_mat_record ?span t (Audit.Commit { txn })

let handle t s req respond =
  match req with
  | Begin_txn { deadline } -> (
      Cpu.execute (current_cpu t) begin_cpu;
      let verdict =
        if not t.admission then `Admit
        else
          admits ~now:(now t) ~deadline ~queue:(Hashtbl.length s.active)
            ~svc_ewma_ns:t.svc_ewma
      in
      match verdict with
      | `Expired ->
          t.n_expired <- t.n_expired + 1;
          respond (Rejected { reason = "deadline already expired" })
      | `Reject ->
          t.n_rejected <- t.n_rejected + 1;
          respond (Rejected { reason = "estimated wait exceeds deadline" })
      | `Admit ->
          t.n_admitted <- t.n_admitted + 1;
          let txn = s.next_txn in
          s.next_txn <- txn + 1;
          Hashtbl.replace s.active txn deadline;
          t.n_begun <- t.n_begun + 1;
          record_state_advisory t txn 1;
          Procpair.checkpoint t.pair ~bytes:16 (Ck_begin txn);
          respond (Began { txn }))
  | Commit_txn { txn; flushes; involved } ->
      (* The caller's span (and its inbox wait) must be read before
         yielding to the next request; the worker closure captures it. *)
      let caller = Msgsys.caller_span t.srv in
      let queued = Msgsys.caller_wait t.srv in
      (* Commits overlap: each runs in its own worker so one
         transaction's flush wait never delays another's (the monitor is
         multithreaded; the trails group-commit concurrent flushes). *)
      let commit_work () =
        let started = Sim.now (Cpu.sim (current_cpu t)) in
        let csp = Obs.start t.obs ~track:"tmf" ~parent:caller "tmf.commit" in
        Span.note_queue csp queued;
        if not (Span.is_null csp) then
          Span.annotate csp ~key:"txn" (string_of_int txn);
        let finish_failed msg =
          Span.annotate csp ~key:"error" msg;
          Obs.finish t.obs csp;
          respond (T_failed msg)
        in
        Cpu.execute (current_cpu t) commit_cpu;
        match Hashtbl.find_opt s.active txn with
        | None -> finish_failed "unknown transaction"
        | Some deadline when deadline > 0 && now t >= deadline ->
            (* Shed before flushing: the client has (or will) time out,
               so durability work here only starves live commits.  The
               transaction was never acknowledged — aborting it is the
               degraded-service contract, not data loss. *)
            t.n_expired <- t.n_expired + 1;
            Hashtbl.remove s.active txn;
            t.n_aborted <- t.n_aborted + 1;
            record_state_advisory t txn 3;
            Procpair.checkpoint t.pair ~bytes:16 (Ck_outcome (txn, false));
            Obs.finish t.obs csp;
            respond (T_failed "shed: deadline expired");
            Mailbox.send t.finish_queue
              { fj_txn = txn; fj_committed = false; fj_involved = involved }
        | Some deadline -> begin
          let fsp = Obs.start t.obs ~track:"tmf" ~parent:csp "tmf.flush_trails" in
          let f0 = now t in
          let flush_result = flush_trails ~span:fsp ~deadline t flushes in
          Obs.note t.flush_wait_stat (now t - f0);
          Obs.finish t.obs fsp;
          match flush_result with
          | Error e -> finish_failed ("flush: " ^ e)
          | Ok () -> (
              let msp = Obs.start t.obs ~track:"tmf" ~parent:csp "tmf.commit_record" in
              let m0 = now t in
              let mat_result = write_commit_record ~span:msp t txn in
              Obs.note t.mat_write_stat (now t - m0);
              Obs.finish t.obs msp;
              match mat_result with
              | Error e -> finish_failed ("commit record: " ^ e)
              | Ok () ->
              match record_state ~span:csp t txn 2 with
              | Error e ->
                  (* The MAT holds a commit record but the PM outcome
                     table — recovery's source of truth in PM mode —
                     could not be written.  Acknowledging now would risk
                     an acked-but-lost transaction; fail the commit and
                     leave the outcome to recovery's conservative side. *)
                  finish_failed ("txn-state record: " ^ e)
              | Ok () ->
                  Hashtbl.remove s.active txn;
                  t.n_committed <- t.n_committed + 1;
                  Procpair.checkpoint t.pair ~bytes:16 (Ck_outcome (txn, true));
                  let svc = Sim.now (Cpu.sim (current_cpu t)) - started in
                  (* The windowed service-time estimate admission uses. *)
                  t.svc_ewma <-
                    (if t.svc_ewma = 0. then float_of_int svc
                     else
                       (ewma_alpha *. float_of_int svc)
                       +. ((1. -. ewma_alpha) *. t.svc_ewma));
                  Stat.add_span t.latency svc;
                  Obs.finish t.obs csp;
                  respond Committed;
                  (* Lock release happens behind the reply. *)
                  Mailbox.send t.finish_queue
                    { fj_txn = txn; fj_committed = true; fj_involved = involved })
        end
      in
      ignore (Cpu.spawn (current_cpu t) ~name:(t.tmf_name ^ ":commit") commit_work)
  | Abort_txn { txn; involved } ->
      Cpu.execute (current_cpu t) commit_cpu;
      if not (Hashtbl.mem s.active txn) then respond (T_failed "unknown transaction")
      else begin
        (* Presumed abort: the record can reach the trail lazily. *)
        let record = Audit.Abort { txn } in
        (match
           Msgsys.call t.mat ~from:(current_cpu t)
             ~req_bytes:(Audit.wire_size record + 64)
             (Adp.Append [ record ])
         with
        | Ok _ | Error _ -> ());
        Hashtbl.remove s.active txn;
        t.n_aborted <- t.n_aborted + 1;
        record_state_advisory t txn 3;
        Procpair.checkpoint t.pair ~bytes:16 (Ck_outcome (txn, false));
        respond Aborted;
        Mailbox.send t.finish_queue { fj_txn = txn; fj_committed = false; fj_involved = involved }
      end
  | Prepare_txn { txn; flushes; involved; gtid } ->
      let caller = Msgsys.caller_span t.srv in
      let queued = Msgsys.caller_wait t.srv in
      (* Phase 1 runs in its own worker like a commit. *)
      let prepare_work () =
        let psp = Obs.start t.obs ~track:"tmf" ~parent:caller "tmf.prepare" in
        Span.note_queue psp queued;
        if not (Span.is_null psp) then
          Span.annotate psp ~key:"txn" (string_of_int txn);
        let finish r =
          Obs.finish t.obs psp;
          respond r
        in
        let respond = finish in
        Cpu.execute (current_cpu t) commit_cpu;
        if not (Hashtbl.mem s.active txn) then respond (T_failed "unknown transaction")
        else
          match flush_trails ~span:psp t flushes with
          | Error e -> respond (T_failed ("flush: " ^ e))
          | Ok () -> (
              match write_mat_record ~span:psp t (Audit.Prepared { txn }) with
              | Error e -> respond (T_failed ("prepared record: " ^ e))
              | Ok () -> (
                  match record_state ~span:psp t txn 4 with
                  | Error e -> respond (T_failed ("txn-state record: " ^ e))
                  | Ok () ->
                      Hashtbl.remove s.active txn;
                      Hashtbl.replace s.prepared txn { pi_involved = involved; pi_gtid = gtid };
                      Procpair.checkpoint t.pair ~bytes:32
                        (Ck_prepared (txn, involved, gtid));
                      respond Prepared_ok))
      in
      ignore (Cpu.spawn (current_cpu t) ~name:(t.tmf_name ^ ":prepare") prepare_work)
  | Decide_txn { txn; commit } -> (
      match Hashtbl.find_opt s.prepared txn with
      | None -> respond (T_failed "transaction is not prepared")
      | Some { pi_involved = involved; _ } ->
          let caller = Msgsys.caller_span t.srv in
          let queued = Msgsys.caller_wait t.srv in
          let decide_work () =
            let dsp = Obs.start t.obs ~track:"tmf" ~parent:caller "tmf.decide" in
            Span.note_queue dsp queued;
            if not (Span.is_null dsp) then
              Span.annotate dsp ~key:"txn" (string_of_int txn);
            let respond r =
              Obs.finish t.obs dsp;
              respond r
            in
            Cpu.execute (current_cpu t) commit_cpu;
            let record = if commit then Audit.Commit { txn } else Audit.Abort { txn } in
            match write_mat_record ~span:dsp t record with
            | Error e -> respond (T_failed ("decision record: " ^ e))
            | Ok () ->
            match record_state ~span:dsp t txn (if commit then 2 else 3) with
            | Error e when commit -> respond (T_failed ("txn-state record: " ^ e))
            | Ok () | Error _ ->
                Hashtbl.remove s.prepared txn;
                if commit then t.n_committed <- t.n_committed + 1
                else t.n_aborted <- t.n_aborted + 1;
                Procpair.checkpoint t.pair ~bytes:16 (Ck_outcome (txn, commit));
                respond Decided;
                Mailbox.send t.finish_queue
                  { fj_txn = txn; fj_committed = commit; fj_involved = involved }
          in
          ignore (Cpu.spawn (current_cpu t) ~name:(t.tmf_name ^ ":decide") decide_work))
  | Query_outcome { txn } ->
      (* Served inline — the resolver protocol is tiny and read-only.
         The PM read needs process context, which the serve loop has. *)
      Cpu.execute (current_cpu t) begin_cpu;
      respond (Outcome { status = query_outcome t s txn })

let serve t s =
  while true do
    let req, respond = Msgsys.next_request t.srv in
    handle t s req respond
  done

(* Off-critical-path lock release to the database writers. *)
let finisher t () =
  while true do
    let job = Mailbox.recv t.finish_queue in
    List.iter
      (fun dp2_idx ->
        match
          Msgsys.call t.dp2s.(dp2_idx) ~from:(current_cpu t)
            (Dp2.Finish { txn = job.fj_txn; committed = job.fj_committed })
        with
        | Ok _ | Error _ -> ())
      job.fj_involved
  done

let apply_ckpt shadow ckpt =
  (match ckpt with
  | Ck_begin txn ->
      Hashtbl.replace shadow.active txn 0;
      shadow.next_txn <- max shadow.next_txn (txn + 1)
  | Ck_outcome (txn, _) ->
      Hashtbl.remove shadow.active txn;
      Hashtbl.remove shadow.prepared txn
  | Ck_prepared (txn, involved, gtid) ->
      Hashtbl.remove shadow.active txn;
      Hashtbl.replace shadow.prepared txn { pi_involved = involved; pi_gtid = gtid });
  shadow

let adopt shadow =
  {
    next_txn = shadow.next_txn;
    active = Hashtbl.copy shadow.active;
    prepared = Hashtbl.copy shadow.prepared;
  }

let start ~fabric ~name ~primary ~backup ~adps ~dp2s ~mat ?txn_state ?outcome_probe
    ?(admission = false) ?obs () =
  let srv = Msgsys.create_server ?obs fabric ~cpu:primary ~name in
  let pair =
    Procpair.create ~fabric ~name ~primary ~backup ~port:srv
      ~shadow:{ next_txn = 1; active = Hashtbl.create 64; prepared = Hashtbl.create 16 }
      ~apply:apply_ckpt ()
  in
  let t =
    {
      tmf_name = name;
      admission;
      adps;
      dp2s;
      mat;
      txn_state;
      srv;
      pair;
      finish_queue = Mailbox.create ();
      n_begun = 0;
      n_committed = 0;
      n_aborted = 0;
      n_admitted = 0;
      n_rejected = 0;
      n_expired = 0;
      svc_ewma = 0.;
      latency = Obs.stat_or_private obs ~name:(name ^ ":commit") "tmf.commit_ns";
      obs;
      flush_wait_stat = Obs.stat obs "tmf.flush_wait_ns";
      mat_write_stat = Obs.stat obs "tmf.mat_write_ns";
      outcome_probe;
    }
  in
  Obs.gauge obs "tmf.active_txns" (fun () ->
      float_of_int (Hashtbl.length (Procpair.view pair).active));
  Obs.gauge obs "tmf.admitted" (fun () -> float_of_int t.n_admitted);
  Obs.gauge obs "tmf.rejected" (fun () -> float_of_int t.n_rejected);
  Obs.gauge obs "tmf.expired" (fun () -> float_of_int t.n_expired);
  let spawn_finisher () =
    ignore (Cpu.spawn (current_cpu t) ~name:(name ^ ":finisher") (fun () -> finisher t ()))
  in
  Procpair.start pair ~adopt ~on_takeover:spawn_finisher (serve t);
  spawn_finisher ();
  t

let server t = t.srv

let pair t = t.pair

let begun t = t.n_begun

let committed t = t.n_committed

let aborted t = t.n_aborted

let active_txns t =
  let s = Procpair.view t.pair in
  Hashtbl.fold (fun txn _ acc -> txn :: acc) s.active []

let prepared_txns t =
  let s = Procpair.view t.pair in
  Hashtbl.fold (fun txn _ acc -> txn :: acc) s.prepared []

let in_doubt t =
  let s = Procpair.view t.pair in
  Hashtbl.fold (fun txn info acc -> (txn, info.pi_involved, info.pi_gtid) :: acc) s.prepared []

let admitted t = t.n_admitted

let rejected t = t.n_rejected

let expired t = t.n_expired

let commit_latency t = t.latency

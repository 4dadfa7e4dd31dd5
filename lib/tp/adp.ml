open Simkit
open Nsk

type request =
  | Append of Audit.record list
  | Flush of { through : Audit.asn; deadline : Time.t }
      (** [deadline = 0] means none; a positive absolute sim time lets
          the writer shed the wait once it can no longer matter *)
  | Trim of { through : Audit.asn }

type response =
  | Appended of { last_asn : Audit.asn }
  | Flushed of { durable : Audit.asn }
  | Trimmed of { records : int }
  | A_failed of string

type server = (request, response) Msgsys.server

(* Instruction path per appended record, and per flush request. *)
let append_cpu = Time.us 15
let flush_cpu = Time.us 25

type waiter = {
  w_through : Audit.asn;
  w_respond : response -> unit;
  w_start : Time.t;
  w_span : Span.span;
  w_deadline : Time.t;  (** 0 = none *)
}

type state = {
  mutable next_asn : Audit.asn;
  mutable durable : Audit.asn;
  mutable buffer : (Audit.asn * Audit.record) list;  (** newest-first, not yet durable *)
}

(* Checkpoints mirror appends and flush completions to the backup. *)
type ckpt =
  | Ck_appended of (Audit.asn * Audit.record) list
  | Ck_durable of Audit.asn

type t = {
  adp_name : string;
  backend : Log_backend.t;
  srv : server;
  pair : (state, state, ckpt) Procpair.t;
  mutable waiters : waiter list;
  mutable wakeup : unit Mailbox.t;  (** kicks the flusher *)
  mutable epoch : int;  (** bumped per serve incarnation; stale flushers exit *)
  mutable appended : int;
  mutable flush_reqs : int;
  mutable shed : int;  (** expired flush waits dropped before batching *)
  obs : Obs.t option;
  flush_stat : Stat.t option;
}

let ckpt_size records =
  List.fold_left (fun acc (_, r) -> acc + 16 + Audit.wire_size r) 0 records

let current_cpu t = Procpair.primary_cpu t.pair

let now t = Sim.now (Cpu.sim (current_cpu t))

let satisfy_waiters ?(flush = Span.null) t s =
  let ready, pending = List.partition (fun w -> w.w_through <= s.durable) t.waiters in
  t.waiters <- pending;
  List.iter
    (fun w ->
      Obs.note t.flush_stat (now t - w.w_start);
      if not (Span.is_null w.w_span) && not (Span.is_null flush) then begin
        (* Group commit: this transaction's durability rode the batch
           flush it piggybacked on — record the causal edge, and count
           the parked stretch before the flush started as queue. *)
        Span.link w.w_span flush;
        Span.mark_queue w.w_span (Span.start_time flush - w.w_start)
      end;
      Obs.finish t.obs w.w_span;
      w.w_respond (Flushed { durable = s.durable }))
    ready

(* Admission control's back half: a flush wait whose transaction
   deadline already passed can no longer turn into an acknowledged
   commit, so answering it just spends write bandwidth the live work
   needs.  Shed it before staging the next batch. *)
let shed_expired t =
  let now = now t in
  let expired, live =
    List.partition (fun w -> w.w_deadline > 0 && now >= w.w_deadline) t.waiters
  in
  t.waiters <- live;
  List.iter
    (fun w ->
      t.shed <- t.shed + 1;
      if not (Span.is_null w.w_span) then
        Span.annotate w.w_span ~key:"error" "shed: deadline expired";
      Obs.finish t.obs w.w_span;
      w.w_respond (A_failed "shed: deadline expired"))
    expired

let fail_waiters t msg =
  let ws = t.waiters in
  t.waiters <- [];
  List.iter
    (fun w ->
      if not (Span.is_null w.w_span) then Span.annotate w.w_span ~key:"error" msg;
      Obs.finish t.obs w.w_span;
      w.w_respond (A_failed msg))
    ws

(* Group commit: one backend write covers every record buffered at the
   moment it starts; commits that arrive during the write ride the next
   one.  Runs in a dedicated flusher process so the serve loop keeps
   absorbing appends while the spindle turns. *)
let flusher t s ~epoch ~wakeup () =
  while t.epoch = epoch do
    (* Purely event-driven: every Flush request drops a kick here, so
       commits that arrive during a write are covered by the next one. *)
    Mailbox.recv wakeup;
    shed_expired t;
    while t.epoch = epoch && t.waiters <> [] && s.buffer <> [] do
      shed_expired t;
      let sect = Prof.section_begin () in
      let batch = List.rev s.buffer in
      let last = match s.buffer with (asn, _) :: _ -> asn | [] -> s.durable in
      s.buffer <- [];
      Prof.section_end sect "adp";
      Cpu.execute (current_cpu t) flush_cpu;
      let sp = Obs.start t.obs ~track:t.adp_name "adp.flush" in
      if not (Span.is_null sp) then
        Span.annotate sp ~key:"batch" (string_of_int (List.length batch));
      (match Log_backend.write_records ~parent:sp t.backend batch with
      | Ok () ->
          s.durable <- max s.durable last;
          Obs.finish t.obs sp;
          Procpair.checkpoint t.pair ~bytes:16 (Ck_durable s.durable);
          satisfy_waiters ~flush:sp t s
      | Error e ->
          (* Put the batch back so a takeover can still flush it. *)
          if not (Span.is_null sp) then Span.annotate sp ~key:"error" e;
          Obs.finish t.obs sp;
          s.buffer <- List.rev_append batch s.buffer;
          fail_waiters t e)
    done
  done

let handle t s req respond =
  match req with
  | Append records -> (
      let sp =
        Obs.start t.obs ~track:t.adp_name ~parent:(Msgsys.caller_span t.srv) "adp.append"
      in
      Span.note_queue sp (Msgsys.caller_wait t.srv);
      if not (Span.is_null sp) then
        Span.annotate sp ~key:"records" (string_of_int (List.length records));
      Cpu.execute (current_cpu t) (List.length records * append_cpu);
      (* Section opens after the CPU charge ([Cpu.execute] suspends) and
         closes before the backend write does. *)
      let sect = Prof.section_begin () in
      let stamped =
        List.map
          (fun r ->
            let asn = s.next_asn in
            s.next_asn <- asn + 1;
            (asn, r))
          records
      in
      t.appended <- t.appended + List.length stamped;
      let last_asn = match List.rev stamped with (asn, _) :: _ -> asn | [] -> s.durable in
      Prof.section_end sect "adp";
      if Log_backend.synchronous t.backend then
        (* PM path: durable as soon as the RDMA write completes; nothing
           to checkpoint but the counters. *)
        match Log_backend.write_records ~parent:sp t.backend stamped with
        | Ok () ->
            s.durable <- last_asn;
            Procpair.checkpoint t.pair ~bytes:16 (Ck_durable s.durable);
            Obs.finish t.obs sp;
            respond (Appended { last_asn })
        | Error e ->
            if not (Span.is_null sp) then Span.annotate sp ~key:"error" e;
            Obs.finish t.obs sp;
            respond (A_failed e)
      else begin
        (* Disk path: buffer now, flush later — but the buffered records
           must survive a takeover, so checkpoint them to the backup
           before acknowledging. *)
        s.buffer <- List.rev_append stamped s.buffer;
        Procpair.checkpoint t.pair ~bytes:(ckpt_size stamped) (Ck_appended stamped);
        Obs.finish t.obs sp;
        respond (Appended { last_asn })
      end)
  | Flush { through; deadline } ->
      t.flush_reqs <- t.flush_reqs + 1;
      if through <= s.durable then begin
        (* Already durable: a zero-wait flush, counted as such. *)
        Obs.note t.flush_stat 0;
        respond (Flushed { durable = s.durable })
      end
      else if deadline > 0 && now t >= deadline then begin
        (* Dead on arrival: don't stage work the caller can no longer
           acknowledge. *)
        t.shed <- t.shed + 1;
        respond (A_failed "shed: deadline expired")
      end
      else if Log_backend.synchronous t.backend then
        (* PM path: appends are durable at reply time, so an ASN above
           the durable horizon means an append failed and its records
           are gone.  There is no flusher to kick — surface the
           degradation instead of parking the caller on a mailbox nobody
           reads until its RPC times out. *)
        respond
          (A_failed
             (Printf.sprintf "trail degraded: ASN %d past durable horizon %d" through
                s.durable))
      else begin
        let sp =
          Obs.start t.obs ~track:t.adp_name ~parent:(Msgsys.caller_span t.srv) "adp.flush_wait"
        in
        Span.note_queue sp (Msgsys.caller_wait t.srv);
        if not (Span.is_null sp) then
          Span.annotate sp ~key:"through" (string_of_int through);
        t.waiters <-
          {
            w_through = through;
            w_respond = respond;
            w_start = now t;
            w_span = sp;
            w_deadline = deadline;
          }
          :: t.waiters;
        Mailbox.send t.wakeup ()
      end
  | Trim { through } ->
      if through > s.durable then respond (A_failed "cannot trim past the durable horizon")
      else respond (Trimmed { records = Log_backend.trim t.backend ~through })

let serve t s =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  if not (Log_backend.synchronous t.backend) then
    ignore
      (Cpu.spawn (current_cpu t) ~name:(t.adp_name ^ ":flusher")
         (flusher t s ~epoch ~wakeup:t.wakeup));
  while true do
    let req, respond = Msgsys.next_request t.srv in
    handle t s req respond
  done

let apply_ckpt shadow ckpt =
  (match ckpt with
  | Ck_appended records ->
      shadow.buffer <- List.rev_append records shadow.buffer;
      List.iter (fun (a, _) -> shadow.next_asn <- max shadow.next_asn (a + 1)) records
  | Ck_durable asn ->
      shadow.durable <- max shadow.durable asn;
      shadow.buffer <- List.filter (fun (a, _) -> a > asn) shadow.buffer;
      shadow.next_asn <- max shadow.next_asn (asn + 1));
  shadow

let start ~fabric ~name ~primary ~backup ~backend ?obs () =
  let srv = Msgsys.create_server ?obs fabric ~cpu:primary ~name in
  let pair =
    Procpair.create ~fabric ~name ~primary ~backup ~port:srv
      ~shadow:{ next_asn = 1; durable = 0; buffer = [] }
      ~apply:apply_ckpt ()
  in
  let t =
    {
      adp_name = name;
      backend;
      srv;
      pair;
      waiters = [];
      wakeup = Mailbox.create ();
      epoch = 0;
      appended = 0;
      flush_reqs = 0;
      shed = 0;
      obs;
      flush_stat = Obs.stat obs "adp.flush_latency";
    }
  in
  (* Gauges, not a probe: the ADP's flush busy time is the serial sum of
     its primary+mirror volume writes, which would double-count the disks
     in the bottleneck ranking. *)
  Obs.gauge obs ("adp." ^ name ^ ".buffer") (fun () ->
      float_of_int (List.length (Procpair.view pair).buffer));
  Obs.gauge obs ("adp." ^ name ^ ".flush_backlog") (fun () ->
      float_of_int (List.length t.waiters));
  Obs.gauge obs ("adp." ^ name ^ ".shed_expired") (fun () -> float_of_int t.shed);
  Procpair.start pair
    ~adopt:(fun sh -> { next_asn = sh.next_asn; durable = sh.durable; buffer = sh.buffer })
    ~on_takeover:(fun () ->
      (* Callers of in-flight flushes were already failed by the port
         move and will retry against the new primary.  A fresh wakeup
         mailbox orphans any flusher that survived the failure. *)
      t.waiters <- [];
      t.wakeup <- Mailbox.create ())
    (serve t);
  t

let server t = t.srv

let backend t = t.backend

let pair t = t.pair

let durable_asn t = (Procpair.view t.pair).durable

let appended_records t = t.appended

let flushes_performed t = Log_backend.writes t.backend

let flush_requests t = t.flush_reqs

let shed_expired_count t = t.shed

open Simkit
open Nsk

type request =
  | Insert of {
      txn : Audit.txn_id;
      file : int;
      key : int;
      len : int;
      crc : int;
      deadline : Time.t;  (** transaction deadline, 0 = none *)
    }
  | Lookup of { file : int; key : int }
  | Read of { txn : Audit.txn_id; file : int; key : int }
  | Scan of { file : int; lo : int; hi : int; limit : int }
  | Finish of { txn : Audit.txn_id; committed : bool }
  | Control_point

type response =
  | Inserted of { asn : Audit.asn; adp : int }
  | Found of { len : int; crc : int }
  | Absent
  | Rows of (int * int * int) list
  | Finished
  | Cp_done of { asn : Audit.asn }
  | D_failed of string

type server = (request, response) Msgsys.server

(* Instruction path per insert, and per lookup, read or scan probe. *)
let insert_cpu = Time.us 400
let lookup_cpu = Time.us 60

(* Longest wait for a key lock. *)
let lock_timeout = Time.sec 5

(* Data blocks this writer spreads its lazy volume writes over. *)
let extent_blocks = 2_000_000

(* Inserts between automatic control points. *)
let cp_interval = 1_000

type cell = { len : int; crc : int }

type undo_entry = { u_file : int; u_key : int; before : cell option }

(* Keyed files are B-tree indices, one per file this writer serves. *)
type state = {
  files : (int, cell Btree.t) Hashtbl.t;
  undo : (Audit.txn_id, undo_entry list ref) Hashtbl.t;
}

type ckpt =
  | Ck_apply of { txn : Audit.txn_id; file : int; key : int; cell : cell; before : cell option }
  | Ck_finish of { txn : Audit.txn_id; committed : bool }

type t = {
  dp2_name : string;
  index : int;
  adp_index : int;
  volume : Diskio.Volume.t;
  adp : Adp.server;
  locks : Lockmgr.t;
  srv : server;
  pair : (state, state, ckpt) Procpair.t;
  rng : Rng.t;
  mutable insert_count : int;
  mutable cp_asn : Audit.asn;
  obs : Obs.t option;
  lookup_counter : Stat.Counter.t option;
  hit_counter : Stat.Counter.t option;
}

let new_state () = { files = Hashtbl.create 8; undo = Hashtbl.create 64 }

let file_index s file =
  match Hashtbl.find_opt s.files file with
  | Some tree -> tree
  | None ->
      let tree = Btree.create () in
      Hashtbl.replace s.files file tree;
      tree

let current_cpu t = Procpair.primary_cpu t.pair

let copy_state src =
  let dst = new_state () in
  Hashtbl.iter
    (fun file tree ->
      let copy = file_index dst file in
      Btree.iter tree (fun key cell -> ignore (Btree.insert copy ~key cell)))
    src.files;
  Hashtbl.iter (fun k v -> Hashtbl.replace dst.undo k (ref !v)) src.undo;
  dst

let note_undo s ~txn entry =
  let entries =
    match Hashtbl.find_opt s.undo txn with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace s.undo txn r;
        r
  in
  entries := entry :: !entries

let apply_to s ~txn ~file ~key cell =
  let before = Btree.insert (file_index s file) ~key cell in
  note_undo s ~txn { u_file = file; u_key = key; before };
  before

let finish_on s ~txn ~committed =
  (match Hashtbl.find_opt s.undo txn with
  | None -> ()
  | Some entries ->
      if not committed then
        List.iter
          (fun e ->
            let tree = file_index s e.u_file in
            match e.before with
            | Some cell -> ignore (Btree.insert tree ~key:e.u_key cell)
            | None -> ignore (Btree.remove tree ~key:e.u_key))
          !entries);
  Hashtbl.remove s.undo txn

let emit_control_point t s =
  let active = Hashtbl.fold (fun txn _ acc -> txn :: acc) s.undo [] in
  let record = Audit.Control_point { active } in
  match
    Rpc.call_retry t.adp ~from:(current_cpu t)
      ~req_bytes:(Audit.wire_size record + 64)
      (Adp.Append [ record ])
  with
  | Ok (Adp.Appended { last_asn }) -> t.cp_asn <- last_asn
  | Ok _ | Error _ -> ()

let handle ?(caller = Span.null) ?(queued = 0) t s req respond =
  match req with
  | Insert { txn; file; key; len; crc; deadline } -> (
      let isp = Obs.start t.obs ~track:t.dp2_name ~parent:caller "dp2.insert" in
      Span.note_queue isp queued;
      if not (Span.is_null isp) then begin
        Span.annotate isp ~key:"txn" (string_of_int txn);
        Span.annotate isp ~key:"key" (string_of_int key)
      end;
      let respond r =
        (match r with
        | D_failed e -> Span.annotate isp ~key:"error" e
        | _ -> ());
        Obs.finish t.obs isp;
        respond r
      in
      Cpu.execute (current_cpu t) insert_cpu;
      if deadline > 0 && Sim.now (Cpu.sim (current_cpu t)) >= deadline then
        (* Expired before touching any resource: shed, don't lock. *)
        respond (D_failed "shed: deadline expired")
      else
      let lsp = Obs.start t.obs ~track:t.dp2_name ~parent:isp "dp2.lock" in
      let lock_result =
        Lockmgr.acquire t.locks ~span:lsp ~deadline ~owner:txn ~key:(file, key)
          Lockmgr.Exclusive
      in
      Obs.finish t.obs lsp;
      match lock_result with
      | Error Lockmgr.Lock_timeout -> respond (D_failed "lock timeout")
      | Ok () -> (
          let cell = { len; crc } in
          let before = apply_to s ~txn ~file ~key cell in
          let audit_record =
            Audit.Update
              {
                txn;
                file;
                partition = t.index;
                key;
                payload_len = len;
                payload_crc = crc;
                before_len = (match before with Some b -> b.len | None -> 0);
              }
          in
          (* The audit delta must reach the log writer before we ack; its
             payload rides along, so the message is payload-sized. *)
          match
            Rpc.call_retry t.adp ~from:(current_cpu t)
              ~req_bytes:(Audit.wire_size audit_record + 64)
              ~span:isp
              (Adp.Append [ audit_record ])
          with
          | Ok (Adp.Appended { last_asn }) ->
              (* Mirror the update into the backup before externalizing. *)
              Procpair.checkpoint t.pair ~bytes:(len + 64)
                (Ck_apply { txn; file; key; cell; before });
              (* Lazy data-volume write, off the critical path. *)
              let block = Rng.int t.rng extent_blocks in
              let (_ : (unit, Diskio.Volume.error) result Ivar.t) =
                Diskio.Volume.submit ~parent:isp t.volume ~kind:`Write ~block ~len
              in
              t.insert_count <- t.insert_count + 1;
              respond (Inserted { asn = last_asn; adp = t.adp_index });
              if t.insert_count mod cp_interval = 0 then emit_control_point t s
          | Ok (Adp.A_failed e) -> respond (D_failed ("audit: " ^ e))
          | Ok (Adp.Flushed _ | Adp.Trimmed _) -> respond (D_failed "audit: unexpected reply")
          | Error e -> respond (D_failed (Format.asprintf "audit: %a" Msgsys.pp_error e))))
  | Lookup { file; key } -> (
      Cpu.execute (current_cpu t) lookup_cpu;
      Obs.incr t.lookup_counter;
      match Btree.find (file_index s file) ~key with
      | Some cell ->
          Obs.incr t.hit_counter;
          respond (Found { len = cell.len; crc = cell.crc })
      | None -> respond Absent)
  | Read { txn; file; key } -> (
      Cpu.execute (current_cpu t) lookup_cpu;
      Obs.incr t.lookup_counter;
      match Lockmgr.acquire t.locks ~owner:txn ~key:(file, key) Lockmgr.Shared with
      | Error Lockmgr.Lock_timeout -> respond (D_failed "lock timeout")
      | Ok () -> (
          match Btree.find (file_index s file) ~key with
          | Some cell ->
              Obs.incr t.hit_counter;
              respond (Found { len = cell.len; crc = cell.crc })
          | None -> respond Absent))
  | Scan { file; lo; hi; limit } ->
      let rows = Btree.range (file_index s file) ~lo ~hi in
      let rows = if limit > 0 && List.length rows > limit then List.filteri (fun i _ -> i < limit) rows else rows in
      (* Probe cost plus a per-row touch. *)
      Cpu.execute (current_cpu t) (lookup_cpu + (List.length rows * Time.us 2));
      respond (Rows (List.map (fun (key, cell) -> (key, cell.len, cell.crc)) rows))
  | Finish { txn; committed } ->
      finish_on s ~txn ~committed;
      Lockmgr.release_all t.locks ~owner:txn;
      Procpair.checkpoint t.pair ~bytes:32 (Ck_finish { txn; committed });
      respond Finished
  | Control_point ->
      emit_control_point t s;
      if t.cp_asn > 0 then respond (Cp_done { asn = t.cp_asn })
      else respond (D_failed "control point append failed")

let serve t s =
  while true do
    let req, respond = Msgsys.next_request t.srv in
    (* Read synchronously: the next dequeue overwrites them. *)
    let caller = Msgsys.caller_span t.srv in
    let queued = Msgsys.caller_wait t.srv in
    match req with
    | Insert _ | Read _ ->
        (* Inserts and transactional reads may block on a key lock; they
           run as request workers so the serve loop keeps draining — in
           particular the Finish that will release the very lock such a
           request is waiting for. *)
        ignore
          (Cpu.spawn (current_cpu t) ~name:(t.dp2_name ^ ":worker") (fun () ->
               handle ~caller ~queued t s req respond))
    | Lookup _ | Scan _ | Finish _ | Control_point -> handle ~caller ~queued t s req respond
  done

let apply_ckpt shadow ckpt =
  (match ckpt with
  | Ck_apply { txn; file; key; cell; before } ->
      note_undo shadow ~txn { u_file = file; u_key = key; before };
      ignore (Btree.insert (file_index shadow file) ~key cell)
  | Ck_finish { txn; committed } -> finish_on shadow ~txn ~committed);
  shadow

let start ~fabric ~name ~dp2_index ~adp_index ~primary ~backup ~volume ~adp ~locks ?obs () =
  let srv = Msgsys.create_server ?obs fabric ~cpu:primary ~name in
  let lookup_counter = Obs.counter obs "dp2.lookups" in
  let hit_counter = Obs.counter obs "dp2.lookup_hits" in
  Obs.ratio obs "dp2.hit_ratio" ~num:hit_counter ~den:lookup_counter;
  let pair =
    Procpair.create ~fabric ~name ~primary ~backup ~port:srv ~shadow:(new_state ())
      ~apply:apply_ckpt ()
  in
  let t =
    {
      dp2_name = name;
      index = dp2_index;
      adp_index;
      volume;
      adp;
      locks;
      srv;
      pair;
      rng = Rng.create (Int64.of_int (0x0D20000 + dp2_index));
      insert_count = 0;
      cp_asn = 0;
      obs;
      lookup_counter;
      hit_counter;
    }
  in
  Procpair.start pair ~adopt:copy_state (serve t);
  t

let server t = t.srv

let pair t = t.pair

let inserts t = t.insert_count

let table_size t =
  Hashtbl.fold (fun _ tree acc -> acc + Btree.cardinal tree) (Procpair.view t.pair).files 0

let index_height t =
  Hashtbl.fold (fun _ tree acc -> max acc (Btree.height tree)) (Procpair.view t.pair).files 1

let lookup_direct t ~file ~key =
  match Hashtbl.find_opt (Procpair.view t.pair).files file with
  | None -> None
  | Some tree -> (
      match Btree.find tree ~key with
      | Some cell -> Some (cell.len, cell.crc)
      | None -> None)

let load_table t rows =
  let s = Procpair.view t.pair in
  Hashtbl.reset s.files;
  Hashtbl.reset s.undo;
  List.iter
    (fun (file, key, len, crc) ->
      ignore (Btree.insert (file_index s file) ~key { len; crc }))
    rows

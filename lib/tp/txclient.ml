open Simkit
open Nsk

type error =
  | Tx_failed of string
  | Tx_rejected of string
      (** admission backpressure (server reject or local circuit open):
          nothing was started or lost; back off, don't hammer *)

let error_to_string = function
  | Tx_failed msg -> msg
  | Tx_rejected msg -> "rejected: " ^ msg

let is_rejected = function Tx_rejected _ -> true | Tx_failed _ -> false

type routing = {
  files : int;
  partitions_per_file : int;
  dp2_of : file:int -> key:int -> int;
}

let uniform_routing ~files ~partitions_per_file =
  {
    files;
    partitions_per_file;
    dp2_of =
      (fun ~file ~key -> (file * partitions_per_file) + (key mod partitions_per_file));
  }

type t = {
  client_cpu : Cpu.t;
  tmf : Tmf.server;
  dp2s : Dp2.server array;
  routing : routing;
  wan : Time.span;
  link : unit -> bool;
  crc_rng : Rng.t;
  rt : Stat.t;
  obs : Obs.t option;
  insert_wait_stat : Stat.t option;
  commit_call_stat : Stat.t option;
  deadline_budget : Time.span;  (** 0 = transactions carry no deadline *)
  op_timeout : Time.span;
      (** client patience per synchronous call; 0 = wait forever.  An
          impatient client is what turns overload into a retry storm —
          the budget and breakers below exist to contain it. *)
  budget : Retry_budget.t option;
  breakers : Breaker.t array option;
      (** one per destination: indices [0..n-1] the DP2s, [n] the TMF *)
  mutable n_timeouts : int;  (** calls abandoned after [op_timeout] *)
}

type pending_insert = {
  p_dp2 : int;
  p_file : int;
  p_key : int;
  p_len : int;
  p_crc : int;
  p_reply : (Dp2.response, Msgsys.error) result Ivar.t;
}

type txn = {
  id : Audit.txn_id;
  started : Time.t;
  deadline : Time.t;  (** absolute, minted at begin; 0 = none *)
  root : Span.span;  (** the whole-transaction span; inserts and commit parent under it *)
  mutable pending : pending_insert list;
  high_water : (int, Audit.asn) Hashtbl.t;  (** ADP index -> max ASN *)
  involved : (int, unit) Hashtbl.t;  (** DP2 indices *)
  mutable failed : string option;
}

(* Application-side instruction path per insert — SQL processing, buffer
   marshalling — consumed on the session's CPU before the request
   leaves it. *)
let issue_cpu = Time.us 500

let create ~cpu ~tmf ~dp2s ~routing ?(wan_latency = 0)
    ?(link = fun () -> true) ?(deadline_budget = 0) ?(op_timeout = 0) ?retry_budget
    ?(breakers = false) ?obs () =
  {
    client_cpu = cpu;
    tmf;
    dp2s;
    routing;
    wan = wan_latency;
    link;
    crc_rng = Rng.create 0xC4CL;
    rt = Obs.stat_or_private obs "txn.response_ns";
    obs;
    insert_wait_stat = Obs.stat obs "txn.insert_wait_ns";
    commit_call_stat = Obs.stat obs "txn.commit_call_ns";
    deadline_budget;
    op_timeout;
    budget = retry_budget;
    breakers =
      (if breakers then
         Some (Array.init (Array.length dp2s + 1) (fun _ -> Breaker.create ()))
       else None);
    n_timeouts = 0;
  }

let now t = Sim.now (Cpu.sim t.client_cpu)

(* Client-side containment: the retry budget and per-destination
   breakers that keep rejected/failed work from amplifying into a
   retry storm. *)
let tmf_breaker t =
  match t.breakers with Some b -> Some b.(Array.length b - 1) | None -> None

let dp2_breaker t i = match t.breakers with Some b -> Some b.(i) | None -> None

let breaker_allow t br =
  match br with None -> true | Some b -> Breaker.allow b ~now:(now t)

let breaker_success br =
  match br with None -> () | Some b -> Breaker.record_success b

let breaker_failure t br =
  match br with None -> () | Some b -> Breaker.record_failure b ~now:(now t)

let spend_retry t =
  match t.budget with None -> true | Some b -> Retry_budget.try_spend b

let budget_success t =
  match t.budget with None -> () | Some b -> Retry_budget.success b


(* Synchronous call with the session's inter-node link latency on both
   legs.  A severed link loses the request (or the reply, when the
   partition lands mid-call): the caller sees a timeout, and when the
   reply leg was the one lost the server has already acted — the window
   that creates in-doubt transactions. *)
let wan_call t server ?req_bytes ?resp_bytes ?span ?timeout req =
  let timeout =
    match timeout with
    | Some _ as s -> s
    | None -> if t.op_timeout > 0 then Some t.op_timeout else None
  in
  let counted_call () =
    let r = Msgsys.call server ~from:t.client_cpu ?req_bytes ?resp_bytes ?span ?timeout req in
    (match (r, timeout) with
    | Error Msgsys.Timed_out, Some _ -> t.n_timeouts <- t.n_timeouts + 1
    | _ -> ());
    r
  in
  if t.wan = 0 then counted_call ()
  else if not (t.link ()) then begin
    Sim.sleep t.wan;
    Error Msgsys.Timed_out
  end
  else begin
    Sim.sleep t.wan;
    let result = counted_call () in
    Sim.sleep t.wan;
    if t.link () then result else Error Msgsys.Timed_out
  end

(* Asynchronous call routed through a relay process so the caller is not
   blocked for the link time. *)
let wan_call_async t server ?req_bytes ?resp_bytes ?span req =
  if t.wan = 0 then
    Msgsys.call_async server ~from:t.client_cpu ?req_bytes ?resp_bytes ?span req
  else begin
    let out = Ivar.create () in
    let sim = Cpu.sim t.client_cpu in
    let (_ : Sim.pid) =
      Sim.spawn sim ~name:"wan-relay" (fun () ->
          Sim.sleep t.wan;
          if not (t.link ()) then Ivar.fill out (Error Msgsys.Timed_out)
          else begin
            let inner =
              Msgsys.call_async server ~from:t.client_cpu ?req_bytes ?resp_bytes ?span req
            in
            let reply = Ivar.read inner in
            Sim.sleep t.wan;
            Ivar.fill out (if t.link () then reply else Error Msgsys.Timed_out)
          end)
    in
    out
  end

let txn_id txn = txn.id

let begin_txn t =
  let br = tmf_breaker t in
  if not (breaker_allow t br) then Error (Tx_rejected "circuit open: tmf")
  else begin
    let root = Obs.root t.obs ~track:"client" "txn" in
    let bsp = Obs.start t.obs ~track:"client" ~parent:root "txn.begin" in
    let fail msg =
      Obs.finish t.obs bsp;
      Obs.finish t.obs root;
      Error (Tx_failed msg)
    in
    (* The deadline is minted at arrival and propagates — in the begin
       request, on every insert, and through the monitor to lock waits
       and trail flushes. *)
    let deadline = if t.deadline_budget > 0 then now t + t.deadline_budget else 0 in
    match wan_call t t.tmf ~span:bsp (Tmf.Begin_txn { deadline }) with
    | Ok (Tmf.Began { txn }) ->
        breaker_success br;
        Obs.finish t.obs bsp;
        if not (Span.is_null root) then
          Span.annotate root ~key:"txn" (string_of_int txn);
        Ok
          {
            id = txn;
            started = Sim.now (Cpu.sim t.client_cpu);
            deadline;
            root;
            pending = [];
            high_water = Hashtbl.create 8;
            involved = Hashtbl.create 8;
            failed = None;
          }
    | Ok (Tmf.Rejected { reason }) ->
        (* The server is alive and answered — no breaker failure. *)
        breaker_success br;
        Obs.finish t.obs bsp;
        Obs.finish t.obs root;
        Error (Tx_rejected reason)
    | Ok (Tmf.T_failed e) ->
        breaker_success br;
        fail e
    | Ok _ -> fail "unexpected TMF reply"
    | Error e ->
        breaker_failure t br;
        fail (Format.asprintf "%a" Msgsys.pp_error e)
  end

let note_insert_reply t txn p result =
  let br = dp2_breaker t p.p_dp2 in
  let rec note ?(retries = 6) = function
    | Ok (Dp2.Inserted { asn; adp }) ->
        breaker_success br;
        budget_success t;
        let prev = Option.value (Hashtbl.find_opt txn.high_water adp) ~default:0 in
        Hashtbl.replace txn.high_water adp (max prev asn);
        Hashtbl.replace txn.involved p.p_dp2 ()
    | Ok (Dp2.D_failed e) -> if txn.failed = None then txn.failed <- Some e
    | Ok _ -> if txn.failed = None then txn.failed <- Some "unexpected DP2 reply"
    | Error (Msgsys.Server_down | Msgsys.Timed_out) when retries > 0 ->
        (* The writer is failing over: wait out the takeover and re-issue.
           Inserts are idempotent overwrites, so at-least-once is safe.
           This loop is the retry-storm amplifier under overload — which
           is why each resend must clear the token bucket and the
           destination's breaker first. *)
        breaker_failure t br;
        if not (spend_retry t) then begin
          if txn.failed = None then txn.failed <- Some "retry budget exhausted"
        end
        else if not (breaker_allow t br) then begin
          if txn.failed = None then
            txn.failed <- Some (Printf.sprintf "circuit open: dp2 %d" p.p_dp2)
        end
        else begin
          Sim.sleep (Time.ms 200);
          let resend =
            wan_call t t.dp2s.(p.p_dp2) ~req_bytes:(p.p_len + 128)
              (Dp2.Insert
                 {
                   txn = txn.id;
                   file = p.p_file;
                   key = p.p_key;
                   len = p.p_len;
                   crc = p.p_crc;
                   deadline = txn.deadline;
                 })
          in
          note ~retries:(retries - 1) resend
        end
    | Error e ->
        breaker_failure t br;
        if txn.failed = None then txn.failed <- Some (Format.asprintf "%a" Msgsys.pp_error e)
  in
  note result

let insert_async t txn ~file ~key ~len () =
  (* The application pays its own instruction path before the request
     leaves the CPU. *)
  Cpu.execute t.client_cpu issue_cpu;
  let dp2_idx = t.routing.dp2_of ~file ~key in
  let crc = Rng.int t.crc_rng 0x40000000 in
  let reply =
    wan_call_async t t.dp2s.(dp2_idx) ~req_bytes:(len + 128) ~span:txn.root
      (Dp2.Insert { txn = txn.id; file; key; len; crc; deadline = txn.deadline })
  in
  txn.pending <-
    { p_dp2 = dp2_idx; p_file = file; p_key = key; p_len = len; p_crc = crc; p_reply = reply }
    :: txn.pending

let await_inserts t txn =
  let outstanding = List.rev txn.pending in
  txn.pending <- [];
  (match outstanding with
  | [] -> ()
  | _ ->
      let sp = Obs.start t.obs ~track:"client" ~parent:txn.root "txn.await_inserts" in
      if not (Span.is_null sp) then
        Span.annotate sp ~key:"inserts" (string_of_int (List.length outstanding));
      let t0 = now t in
      let read_reply p =
        if t.op_timeout = 0 then Ivar.read p.p_reply
        else
          match Ivar.read_timeout p.p_reply t.op_timeout with
          | Some r -> r
          | None ->
              t.n_timeouts <- t.n_timeouts + 1;
              Error Msgsys.Timed_out
      in
      List.iter (fun p -> note_insert_reply t txn p (read_reply p)) outstanding;
      Obs.note t.insert_wait_stat (now t - t0);
      Obs.finish t.obs sp);
  match txn.failed with None -> Ok () | Some e -> Error (Tx_failed e)

let insert t txn ~file ~key ~len () =
  insert_async t txn ~file ~key ~len ();
  await_inserts t txn

let flush_list txn = Hashtbl.fold (fun adp asn acc -> (adp, asn) :: acc) txn.high_water []

let involved_list txn = Hashtbl.fold (fun dp2 () acc -> dp2 :: acc) txn.involved []

let commit t txn =
  match await_inserts t txn with
  | Error e ->
      Obs.finish t.obs txn.root;
      Error e
  | Ok () ->
      let csp = Obs.start t.obs ~track:"client" ~parent:txn.root "txn.commit" in
      let c0 = now t in
      let result =
        wan_call t t.tmf ~span:csp
          (Tmf.Commit_txn
             { txn = txn.id; flushes = flush_list txn; involved = involved_list txn })
      in
      Obs.note t.commit_call_stat (now t - c0);
      Obs.finish t.obs csp;
      let out =
        match result with
        | Ok Tmf.Committed ->
            breaker_success (tmf_breaker t);
            budget_success t;
            Stat.add_span t.rt (Sim.now (Cpu.sim t.client_cpu) - txn.started);
            Ok ()
        | Ok (Tmf.T_failed e) -> Error (Tx_failed e)
        | Ok _ -> Error (Tx_failed "unexpected TMF reply")
        | Error e ->
            breaker_failure t (tmf_breaker t);
            Error (Tx_failed (Format.asprintf "%a" Msgsys.pp_error e))
      in
      Obs.finish t.obs txn.root;
      out

let abort t txn =
  (* Collect stragglers first so their locks are covered by the release. *)
  let (_ : (unit, error) result) = await_inserts t txn in
  Span.annotate txn.root ~key:"outcome" "abort";
  Obs.finish t.obs txn.root;
  match
    wan_call t t.tmf (Tmf.Abort_txn { txn = txn.id; involved = involved_list txn })
  with
  | Ok Tmf.Aborted -> Ok ()
  | Ok (Tmf.T_failed e) -> Error (Tx_failed e)
  | Ok _ -> Error (Tx_failed "unexpected TMF reply")
  | Error e -> Error (Tx_failed (Format.asprintf "%a" Msgsys.pp_error e))

let read t txn ~file ~key =
  let dp2_idx = t.routing.dp2_of ~file ~key in
  match wan_call t t.dp2s.(dp2_idx) (Dp2.Read { txn = txn.id; file; key }) with
  | Ok (Dp2.Found { len; crc; _ }) ->
      Hashtbl.replace txn.involved dp2_idx ();
      Ok (Some (len, crc))
  | Ok Dp2.Absent ->
      Hashtbl.replace txn.involved dp2_idx ();
      Ok None
  | Ok (Dp2.D_failed e) -> Error (Tx_failed e)
  | Ok _ -> Error (Tx_failed "unexpected DP2 reply")
  | Error e -> Error (Tx_failed (Format.asprintf "%a" Msgsys.pp_error e))

let prepare ?gtid t txn =
  match await_inserts t txn with
  | Error e -> Error e
  | Ok () -> (
      let psp = Obs.start t.obs ~track:"client" ~parent:txn.root "txn.prepare" in
      let result =
        wan_call t t.tmf ~span:psp
          (Tmf.Prepare_txn
             { txn = txn.id; flushes = flush_list txn; involved = involved_list txn; gtid })
      in
      Obs.finish t.obs psp;
      match result with
      | Ok Tmf.Prepared_ok -> Ok ()
      | Ok (Tmf.T_failed e) -> Error (Tx_failed e)
      | Ok _ -> Error (Tx_failed "unexpected TMF reply")
      | Error e -> Error (Tx_failed (Format.asprintf "%a" Msgsys.pp_error e)))

let decide t txn ~commit =
  let dsp = Obs.start t.obs ~track:"client" ~parent:txn.root "txn.decide" in
  if not (Span.is_null dsp) then
    Span.annotate dsp ~key:"commit" (if commit then "true" else "false");
  let result = wan_call t t.tmf ~span:dsp (Tmf.Decide_txn { txn = txn.id; commit }) in
  Obs.finish t.obs dsp;
  Obs.finish t.obs txn.root;
  match result with
  | Ok Tmf.Decided ->
      if commit then Stat.add_span t.rt (Sim.now (Cpu.sim t.client_cpu) - txn.started);
      Ok ()
  | Ok (Tmf.T_failed e) -> Error (Tx_failed e)
  | Ok _ -> Error (Tx_failed "unexpected TMF reply")
  | Error e -> Error (Tx_failed (Format.asprintf "%a" Msgsys.pp_error e))

let query_outcome t txn_id =
  match wan_call t t.tmf (Tmf.Query_outcome { txn = txn_id }) with
  | Ok (Tmf.Outcome { status }) -> Ok status
  | Ok (Tmf.T_failed e) -> Error (Tx_failed e)
  | Ok _ -> Error (Tx_failed "unexpected TMF reply")
  | Error e -> Error (Tx_failed (Format.asprintf "%a" Msgsys.pp_error e))

let lookup t ~file ~key =
  let dp2_idx = t.routing.dp2_of ~file ~key in
  match wan_call t t.dp2s.(dp2_idx) (Dp2.Lookup { file; key }) with
  | Ok (Dp2.Found { len; crc; _ }) -> Ok (Some (len, crc))
  | Ok Dp2.Absent -> Ok None
  | Ok (Dp2.D_failed e) -> Error (Tx_failed e)
  | Ok _ -> Error (Tx_failed "unexpected DP2 reply")
  | Error e -> Error (Tx_failed (Format.asprintf "%a" Msgsys.pp_error e))

let scan t ~file ~lo ~hi ?(limit = 0) () =
  (* The file is spread over partitions_per_file DP2s; fan the scan out
     and merge the sorted slices. *)
  let parts = t.routing.partitions_per_file in
  let replies =
    List.init parts (fun p ->
        wan_call_async t t.dp2s.((file * parts) + p) (Dp2.Scan { file; lo; hi; limit }))
  in
  let rec gather acc = function
    | [] -> Ok acc
    | reply :: rest -> (
        match Ivar.read reply with
        | Ok (Dp2.Rows rows) -> gather (rows :: acc) rest
        | Ok (Dp2.D_failed e) -> Error (Tx_failed e)
        | Ok _ -> Error (Tx_failed "unexpected DP2 reply")
        | Error e -> Error (Tx_failed (Format.asprintf "%a" Msgsys.pp_error e)))
  in
  match gather [] replies with
  | Error e -> Error e
  | Ok slices ->
      Ok (List.sort (fun (a, _, _) (b, _, _) -> compare a b) (List.concat slices))


let timeouts t = t.n_timeouts

let retry_budget t = t.budget

let breaker_trips t =
  match t.breakers with
  | None -> 0
  | Some bs -> Array.fold_left (fun acc b -> acc + Breaker.trips b) 0 bs

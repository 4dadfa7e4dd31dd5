open Simkit

type key = int * int

type mode = Shared | Exclusive

type error = Lock_timeout

type entry = {
  mutable lock_holders : (Audit.txn_id * mode) list;
  mutable waiters : (unit -> unit) list;  (** wakers; woken en masse on release *)
}

type t = {
  sim : Sim.t;
  timeout : Time.span;
  table : (key, entry) Hashtbl.t;
  by_owner : (Audit.txn_id, key list ref) Hashtbl.t;
  (* Each holder's most recent acquire span, so a blocked waiter can
     record a causal link to the transaction it waited behind.  Entries
     live exactly as long as the owner's locks (cleared in
     [release_all]); only span-carrying acquires register. *)
  owner_spans : (Audit.txn_id, Span.span) Hashtbl.t;
  mutable blocked : int;
  mutable conflict_count : int;
  mutable timed_out : int;
  wait_stat : Stat.t;
}

let create sim ?(timeout = Time.sec 5) ?obs () =
  let t =
    {
      sim;
      timeout;
      table = Hashtbl.create 256;
      by_owner = Hashtbl.create 64;
      owner_spans = Hashtbl.create 64;
      blocked = 0;
      conflict_count = 0;
      timed_out = 0;
      wait_stat = Obs.stat_or_private obs "lock.wait_ns";
    }
  in
  Obs.gauge obs "lock.conflicts" (fun () -> float_of_int t.conflict_count);
  Obs.gauge obs "lock.timeouts" (fun () -> float_of_int t.timed_out);
  Obs.gauge obs "lock.waiting" (fun () -> float_of_int t.blocked);
  Obs.gauge obs "lock.held" (fun () ->
      Hashtbl.fold (fun _ e acc -> acc + List.length e.lock_holders) t.table 0
      |> float_of_int);
  t

let entry t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
      let e = { lock_holders = []; waiters = [] } in
      Hashtbl.replace t.table key e;
      e

let compatible entry ~owner mode =
  match mode with
  | Shared ->
      List.for_all (fun (o, m) -> o = owner || m = Shared) entry.lock_holders
  | Exclusive -> List.for_all (fun (o, _) -> o = owner) entry.lock_holders

let note_owned t ~owner key =
  let keys =
    match Hashtbl.find_opt t.by_owner owner with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.by_owner owner r;
        r
  in
  if not (List.mem key !keys) then keys := key :: !keys

let grant t e ~owner ~key mode =
  (* Upgrade replaces the existing hold; re-acquire of a weaker mode is a
     no-op on the stronger hold. *)
  let others = List.filter (fun (o, _) -> o <> owner) e.lock_holders in
  let mine = List.filter (fun (o, _) -> o = owner) e.lock_holders in
  let merged =
    match (mine, mode) with
    | [], m -> (owner, m) :: others
    | (_, Exclusive) :: _, _ -> e.lock_holders
    | (_, Shared) :: _, Exclusive -> (owner, Exclusive) :: others
    | (_, Shared) :: _, Shared -> e.lock_holders
  in
  e.lock_holders <- merged;
  note_owned t ~owner key

let acquire t ?(span = Span.null) ?(deadline = 0) ~owner ~key mode =
  let e = entry t key in
  let t0 = Sim.now t.sim in
  (* A transaction deadline tightens (never widens) the lock timeout:
     a doomed waiter gives up and releases the serve slot instead of
     camping on the queue for the full timeout. *)
  let deadline =
    let timeout_at = t0 + t.timeout in
    if deadline > 0 then min timeout_at deadline else timeout_at
  in
  let contended = not (compatible e ~owner mode) in
  if contended then begin
    t.conflict_count <- t.conflict_count + 1;
    (* Cross-transaction causality: the waiter's span links to each
       current holder's registered span, so a trace shows *whose* work
       this transaction queued behind. *)
    if not (Span.is_null span) then
      List.iter
        (fun (holder, _) ->
          match Hashtbl.find_opt t.owner_spans holder with
          | Some hsp when holder <> owner -> Span.link span hsp
          | _ -> ())
        e.lock_holders
  end;
  let record r =
    (* Only contended acquires contribute to the wait stat, so the mean
       reflects time actually spent blocked, not the fast-path volume. *)
    if contended then begin
      let waited = Sim.now t.sim - t0 in
      Stat.add_span t.wait_stat waited;
      (* The span opened just before the acquire, so the whole blocked
         stretch is a queue prefix of its recorded interval. *)
      Span.mark_queue span waited
    end;
    r
  in
  let rec attempt () =
    if compatible e ~owner mode then begin
      grant t e ~owner ~key mode;
      if not (Span.is_null span) then Hashtbl.replace t.owner_spans owner span;
      record (Ok ())
    end
    else if Sim.now t.sim >= deadline then begin
      t.timed_out <- t.timed_out + 1;
      record (Error Lock_timeout)
    end
    else begin
      t.blocked <- t.blocked + 1;
      (* A release wakes the waiter and retires its deadline; a waiter
         that times out retracts its spent waker. *)
      (match
         Sim.suspend_for (deadline - Sim.now t.sim) (fun waker -> e.waiters <- waker :: e.waiters)
       with
      | Sim.Woken _ -> ()
      | Sim.Timed_out waker -> e.waiters <- List.filter (fun w -> w != waker) e.waiters);
      t.blocked <- t.blocked - 1;
      attempt ()
    end
  in
  attempt ()

let wake_waiters e =
  let ws = e.waiters in
  e.waiters <- [];
  List.iter (fun w -> w ()) ws

let release_all t ~owner =
  Hashtbl.remove t.owner_spans owner;
  match Hashtbl.find_opt t.by_owner owner with
  | None -> ()
  | Some keys ->
      Hashtbl.remove t.by_owner owner;
      let release_key key =
        match Hashtbl.find_opt t.table key with
        | None -> ()
        | Some e ->
            e.lock_holders <- List.filter (fun (o, _) -> o <> owner) e.lock_holders;
            if e.lock_holders = [] && e.waiters = [] then Hashtbl.remove t.table key
            else wake_waiters e
      in
      List.iter release_key !keys

let holders t key =
  match Hashtbl.find_opt t.table key with Some e -> e.lock_holders | None -> []

let held_total t =
  Hashtbl.fold (fun _ keys acc -> acc + List.length !keys) t.by_owner 0

let waiting t = t.blocked

let conflicts t = t.conflict_count

let timeouts t = t.timed_out

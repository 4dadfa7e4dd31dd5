type pid = int

type exit_reason = Normal | Killed | Crashed of exn

(* A parked process's continuation; the effect it waits in fixes the
   type of the value it is resumed with. *)
type parked = Idle | Parked : ('a, unit) Effect.Deep.continuation -> parked

type proc = {
  pid : pid;
  pname : string;
  mutable alive : bool;
  mutable reason : exit_reason option;
  mutable exit_hooks : (exit_reason -> unit) list;
  mutable parked : parked;  (* the suspension the process waits in; its waker clears it *)
  mutable deadline : (unit -> unit) Heap.entry option;  (* a timed wait's armed deadline *)
}

type hooks = {
  h_before : pid -> int -> unit;
  h_after : unit -> unit;
  mutable h_owner : pid;  (* owner of the slice running now; 0 between slices *)
}

(* The queue is a heap for future events and a FIFO ring for events due
   at [now].  An event leaves the queue when it fires or is cancelled,
   so the two hold exactly the live events.  Every heap entry due at
   [now] was pushed at an earlier instant, before every FIFO entry, so
   draining those heap entries first and then the FIFO keeps scheduling
   order.  FIFO slots are addressed by absolute push count ([fifo_head]
   to [fifo_tail]); a cancelled slot keeps its place with owner [-1]. *)
type t = {
  mutable now : Time.t;
  events : (unit -> unit) Heap.t;
  mutable seq : int;
  mutable fifo : (unit -> unit) array;
  mutable fifo_owner : int array;
  mutable fifo_head : int;
  mutable fifo_tail : int;
  mutable fifo_live : int;
  root_rng : Rng.t;
  procs : (pid, proc) Hashtbl.t;
  mutable next_pid : int;
  mutable live : int;
  mutable stopping : bool;
  on_crash : [ `Raise | `Record ];
  mutable crash_log : (pid * string * exn) list;
  mutable hooks : hooks option;
}

type wake = Woken of Time.span | Timed_out of (unit -> unit)

exception Not_in_process
exception Killed_exn

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Suspend_for : Time.span * ((unit -> unit) -> unit) -> wake Effect.t
  | Sleep : Time.span -> unit Effect.t
  | Wait_until : Time.t -> unit Effect.t
  | Self_eff : (t * proc) Effect.t

let create ?(seed = 0x5EEDL) ?(on_crash = `Raise) () =
  {
    now = Time.zero;
    events = Heap.create ();
    seq = 0;
    fifo = Array.make 32 ignore;
    fifo_owner = Array.make 32 0;
    fifo_head = 0;
    fifo_tail = 0;
    fifo_live = 0;
    root_rng = Rng.create seed;
    procs = Hashtbl.create 64;
    next_pid = 1;
    live = 0;
    stopping = false;
    on_crash;
    crash_log = [];
    hooks = None;
  }

let set_dispatch_hooks t ~before ~after =
  t.hooks <- Some { h_before = before; h_after = after; h_owner = 0 }

let clear_dispatch_hooks t = t.hooks <- None

let queue_depth t = Heap.length t.events + t.fifo_live

let now t = t.now

let rng t = t.root_rng

(* An event's tie-break [seq] also carries its owner, the pid its slice
   is charged to (0: none).  The scheduling counter sits above 24 owner
   bits, so equal times still fire in scheduling order and the owner
   costs no allocation. *)
let[@inline] owner_bits seq = seq land 0xFF_FFFF

let heap_push t ~owner ~time thunk =
  if time < t.now then invalid_arg "Sim: scheduling in the past";
  t.seq <- t.seq + 1;
  Heap.push t.events ~key:time ~seq:((t.seq lsl 24) lor owner) thunk

(* Returns the event's absolute FIFO index. *)
let fifo_push t owner thunk =
  let cap = Array.length t.fifo in
  if t.fifo_tail - t.fifo_head = cap then begin
    let fifo = Array.make (2 * cap) ignore and owners = Array.make (2 * cap) 0 in
    for i = t.fifo_head to t.fifo_tail - 1 do
      fifo.(i land ((2 * cap) - 1)) <- t.fifo.(i land (cap - 1));
      owners.(i land ((2 * cap) - 1)) <- t.fifo_owner.(i land (cap - 1))
    done;
    t.fifo <- fifo;
    t.fifo_owner <- owners
  end;
  let i = t.fifo_tail in
  let slot = i land (Array.length t.fifo - 1) in
  t.fifo.(slot) <- thunk;
  t.fifo_owner.(slot) <- owner;
  t.fifo_tail <- i + 1;
  t.fifo_live <- t.fifo_live + 1;
  i

let fifo_cancel t i =
  let slot = i land (Array.length t.fifo - 1) in
  if i >= t.fifo_head && t.fifo_owner.(slot) >= 0 then begin
    t.fifo.(slot) <- ignore;
    t.fifo_owner.(slot) <- -1;
    t.fifo_live <- t.fifo_live - 1
  end

let push t ~owner ~time thunk =
  if time = t.now then ignore (fifo_push t owner thunk : int)
  else ignore (heap_push t ~owner ~time thunk : (unit -> unit) Heap.entry)

(* A process's own slice is charged to it; a plain callback is charged
   to the slice that schedules it. *)
let resume t p thunk = ignore (fifo_push t p.pid thunk : int)

let current_owner t = match t.hooks with None -> 0 | Some h -> h.h_owner

let schedule t ~time thunk = push t ~owner:(current_owner t) ~time thunk

let at t ~after thunk =
  if after < 0 then invalid_arg "Sim.at: negative span";
  schedule t ~time:(t.now + after) thunk

let at_time t ~time thunk = schedule t ~time thunk

let at_time_cancel t ~time thunk =
  let owner = current_owner t in
  if time = t.now then begin
    let i = fifo_push t owner thunk in
    fun () -> fifo_cancel t i
  end
  else begin
    let e = heap_push t ~owner ~time thunk in
    fun () -> Heap.remove t.events e
  end

(* Nothing else is due at this instant: a fired timer's resumption would
   be the very next event, so it may run in the timer's own slice. *)
let idle_instant t =
  t.fifo_live = 0 && (Heap.is_empty t.events || (Heap.top t.events).Heap.key > t.now)

let finish t p reason =
  if p.alive then begin
    p.alive <- false;
    p.reason <- Some reason;
    t.live <- t.live - 1;
    let hooks = p.exit_hooks in
    p.exit_hooks <- [];
    List.iter (fun h -> h reason) hooks
  end

(* Resume a woken process with [v]; one killed while parked is unwound
   instead, so its handler records the exit. *)
let[@inline] continue_or_unwind p k v =
  if p.alive then Effect.Deep.continue k v else Effect.Deep.discontinue k Killed_exn

(* A timer's wake-up: in place when nothing else is due now, else behind
   every event already queued for this instant. *)
let fire t p k v =
  if idle_instant t then continue_or_unwind p k v
  else resume t p (fun () -> continue_or_unwind p k v)

let park_timer t p k ~time =
  let parked = Parked k in
  p.parked <- parked;
  push t ~owner:p.pid ~time (fun () ->
      if p.parked == parked then begin
        p.parked <- Idle;
        fire t p k ()
      end)

let exec t p body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> finish t p Normal);
      exnc =
        (fun e ->
          match e with
          | Killed_exn -> finish t p Killed
          | e -> (
              finish t p (Crashed e);
              match t.on_crash with
              | `Raise -> raise e
              | `Record -> t.crash_log <- (p.pid, p.pname, e) :: t.crash_log));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep span ->
              Some (fun (k : (a, unit) continuation) -> park_timer t p k ~time:(t.now + span))
          | Wait_until time ->
              Some
                (fun (k : (a, unit) continuation) ->
                  if time > t.now then park_timer t p k ~time else continue k ())
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let parked = Parked k in
                  p.parked <- parked;
                  register (fun () ->
                      if p.parked == parked then begin
                        p.parked <- Idle;
                        resume t p (fun () -> continue_or_unwind p k ())
                      end))
          | Suspend_for (span, register) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let parked = Parked k in
                  p.parked <- parked;
                  let deadline = t.now + span in
                  let rec waker () =
                    if p.parked == parked then begin
                      p.parked <- Idle;
                      Option.iter (Heap.remove t.events) p.deadline;
                      p.deadline <- None;
                      resume t p (fun () -> continue_or_unwind p k (Woken (deadline - t.now)))
                    end
                  and expire () =
                    if p.parked == parked then begin
                      p.parked <- Idle;
                      p.deadline <- None;
                      fire t p k (Timed_out waker)
                    end
                  in
                  p.deadline <- Some (heap_push t ~owner:p.pid ~time:deadline expire);
                  register waker)
          | Self_eff -> Some (fun (k : (a, unit) continuation) -> continue k (t, p))
          | _ -> None);
    }

let spawn t ~name body =
  let pid = t.next_pid in
  if owner_bits pid <> pid then invalid_arg "Sim.spawn: pids exhausted";
  t.next_pid <- pid + 1;
  let p =
    { pid; pname = name; alive = true; reason = None; exit_hooks = []; parked = Idle; deadline = None }
  in
  Hashtbl.replace t.procs pid p;
  t.live <- t.live + 1;
  resume t p (fun () -> if p.alive then exec t p body);
  pid

let proc_exn t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p
  | None -> invalid_arg "Sim: unknown pid"

let kill t pid =
  let p = proc_exn t pid in
  if p.alive then finish t p Killed

(* On OCaml 5 a continuation never resumed keeps its fiber's stack for
   good, so a finished simulation unwinds every parked process. *)
let discard t =
  Hashtbl.fold (fun _ p acc -> match p.parked with Parked _ -> p :: acc | Idle -> acc) t.procs []
  |> List.iter (fun p ->
         match p.parked with
         | Idle -> ()
         | Parked k -> (
             p.parked <- Idle;
             p.exit_hooks <- [];
             finish t p Killed;
             try Effect.Deep.discontinue k Killed_exn with _ -> ()))

let on_exit t pid hook =
  let p = proc_exn t pid in
  match p.reason with
  | Some r -> hook r
  | None -> p.exit_hooks <- hook :: p.exit_hooks

let is_alive t pid = (proc_exn t pid).alive

let process_name t pid = (proc_exn t pid).pname

let crashed t = t.crash_log

let live_processes t = t.live

let stop t = t.stopping <- true

let dispatch t owner thunk =
  match t.hooks with
  | None -> thunk ()
  | Some h ->
      h.h_owner <- owner;
      h.h_before owner (queue_depth t);
      thunk ();
      h.h_after ();
      h.h_owner <- 0

(* One loop serves both variants: an unbounded run is bounded by
   [max_int].  Events due now run first (heap, then FIFO); the minimum
   future event stays queued until it is known to run, so past-the-bound
   events remain for a later run; the clock advances to the bound only
   while a live event remains.  The clock never moves backward. *)
let run ?(until = max_int) t =
  t.stopping <- false;
  let continue = ref (until >= t.now) in
  while !continue && not t.stopping do
    let h = t.events in
    if (not (Heap.is_empty h)) && (Heap.top h).Heap.key = t.now then begin
      let e = Heap.top h in
      Heap.remove h e;
      dispatch t (owner_bits e.Heap.seq) e.Heap.value
    end
    else if t.fifo_live > 0 then begin
      let slot = t.fifo_head land (Array.length t.fifo - 1) in
      t.fifo_head <- t.fifo_head + 1;
      let owner = t.fifo_owner.(slot) in
      if owner >= 0 then begin
        let thunk = t.fifo.(slot) in
        t.fifo.(slot) <- ignore;
        t.fifo_live <- t.fifo_live - 1;
        dispatch t owner thunk
      end
    end
    else if Heap.is_empty h then continue := false
    else begin
      let e = Heap.top h in
      if e.Heap.key > until then begin
        t.now <- until;
        continue := false
      end
      else begin
        Heap.remove h e;
        t.now <- e.Heap.key;
        dispatch t (owner_bits e.Heap.seq) e.Heap.value
      end
    end
  done

(* Process-context operations. *)

let perform eff = try Effect.perform eff with Effect.Unhandled _ -> raise Not_in_process

let current () =
  let t, _ = perform Self_eff in
  t

let suspend register = perform (Suspend register)

let suspend_for span register =
  if span <= 0 then invalid_arg "Sim.suspend_for: span must be positive";
  perform (Suspend_for (span, register))

let sleep span =
  if span < 0 then invalid_arg "Sim.sleep: negative span";
  perform (Sleep span)

let wait_until time = perform (Wait_until time)

let yield () = perform (Sleep 0)

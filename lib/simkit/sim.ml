type pid = int

type exit_reason = Normal | Killed | Crashed of exn

type proc = {
  pid : pid;
  pname : string;
  mutable alive : bool;
  mutable reason : exit_reason option;
  mutable exit_hooks : (exit_reason -> unit) list;
  mutable parked : (unit, unit) Effect.Deep.continuation option;
      (* the suspension the process waits in; its waker clears it *)
}

type hooks = {
  h_before : pid -> int -> unit;
  h_after : unit -> unit;
  mutable h_owner : pid;  (* owner of the slice running now; 0 between slices *)
}

(* The heap entry is the event: it leaves the heap when it fires or is
   cancelled, so the heap holds exactly the live events. *)
type t = {
  mutable now : Time.t;
  events : (unit -> unit) Heap.t;
  mutable seq : int;
  root_rng : Rng.t;
  procs : (pid, proc) Hashtbl.t;
  mutable next_pid : int;
  mutable live : int;
  mutable stopping : bool;
  on_crash : [ `Raise | `Record ];
  mutable crash_log : (pid * string * exn) list;
  mutable hooks : hooks option;
}

exception Not_in_process
exception Killed_exn

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Self_eff : (t * proc) Effect.t

let create ?(seed = 0x5EEDL) ?(on_crash = `Raise) () =
  {
    now = Time.zero;
    events = Heap.create ();
    seq = 0;
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

let queue_depth t = Heap.length t.events

let now t = t.now

let rng t = t.root_rng

(* An event's tie-break [seq] also carries its owner, the pid its slice
   is charged to (0: none).  The scheduling counter sits above 24 owner
   bits, so equal times still fire in scheduling order and the owner
   costs no allocation. *)
let[@inline] owner_bits seq = seq land 0xFF_FFFF

let push t ~owner ~time thunk =
  if time < t.now then invalid_arg "Sim: scheduling in the past";
  t.seq <- t.seq + 1;
  Heap.push t.events ~key:time ~seq:((t.seq lsl 24) lor owner) thunk

(* A process's own slice is charged to it; a plain callback is charged
   to the slice that schedules it. *)
let resume t p thunk = ignore (push t ~owner:p.pid ~time:t.now thunk : (unit -> unit) Heap.entry)

let schedule_event t ~time thunk =
  push t ~owner:(match t.hooks with None -> 0 | Some h -> h.h_owner) ~time thunk

let schedule t ~time thunk = ignore (schedule_event t ~time thunk : (unit -> unit) Heap.entry)

let at t ~after thunk =
  if after < 0 then invalid_arg "Sim.at: negative span";
  schedule t ~time:(t.now + after) thunk

let at_time t ~time thunk = schedule t ~time thunk

let at_time_cancel t ~time thunk =
  let e = schedule_event t ~time thunk in
  fun () -> Heap.remove t.events e

let finish t p reason =
  if p.alive then begin
    p.alive <- false;
    p.reason <- Some reason;
    t.live <- t.live - 1;
    let hooks = p.exit_hooks in
    p.exit_hooks <- [];
    List.iter (fun h -> h reason) hooks
  end

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
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let parked = Some k in
                  p.parked <- parked;
                  let waker () =
                    if p.parked == parked then begin
                      p.parked <- None;
                      resume t p (fun () ->
                          if p.alive then continue k ()
                          else
                            (* The process was killed while parked: unwind
                               the fiber so its handler records the exit. *)
                            discontinue k Killed_exn)
                    end
                  in
                  register waker)
          | Self_eff -> Some (fun (k : (a, unit) continuation) -> continue k (t, p))
          | _ -> None);
    }

let spawn t ~name body =
  let pid = t.next_pid in
  if owner_bits pid <> pid then invalid_arg "Sim.spawn: pids exhausted";
  t.next_pid <- pid + 1;
  let p = { pid; pname = name; alive = true; reason = None; exit_hooks = []; parked = None } in
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
  Hashtbl.fold (fun _ p acc -> match p.parked with Some k -> (p, k) :: acc | None -> acc) t.procs []
  |> List.iter (fun (p, k) ->
         p.parked <- None;
         p.exit_hooks <- [];
         finish t p Killed;
         try Effect.Deep.discontinue k Killed_exn with _ -> ())

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

(* One loop serves both variants: an unbounded run is bounded by
   [max_int].  The minimum stays queued until it is known to run, so
   past-the-bound events remain for a later run; the clock advances to
   the bound only while a live event remains. *)
let run ?(until = max_int) t =
  t.stopping <- false;
  let continue = ref true in
  while !continue && not t.stopping do
    if Heap.is_empty t.events then continue := false
    else begin
      let e = Heap.top t.events in
      if e.Heap.key > until then begin
        t.now <- until;
        continue := false
      end
      else begin
        Heap.remove t.events e;
        t.now <- e.Heap.key;
        match t.hooks with
        | None -> e.Heap.value ()
        | Some h ->
            h.h_owner <- owner_bits e.Heap.seq;
            h.h_before h.h_owner (Heap.length t.events);
            e.Heap.value ();
            h.h_after ();
            h.h_owner <- 0
      end
    end
  done

(* Process-context operations. *)

let self_full () =
  try Effect.perform Self_eff with Effect.Unhandled _ -> raise Not_in_process

let current () =
  let t, _ = self_full () in
  t

let suspend register =
  try Effect.perform (Suspend register) with Effect.Unhandled _ -> raise Not_in_process

let sleep span =
  if span < 0 then invalid_arg "Sim.sleep: negative span";
  let t, _ = self_full () in
  suspend (fun waker -> schedule t ~time:(t.now + span) waker)

let wait_until time =
  let t, _ = self_full () in
  if time > t.now then suspend (fun waker -> schedule t ~time waker)

let yield () =
  let t, _ = self_full () in
  suspend (fun waker -> schedule t ~time:t.now waker)

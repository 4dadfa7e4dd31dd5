type 'a t = { q : 'a Queue.t; mutable waiters : (unit -> unit) list }

let create () = { q = Queue.create (); waiters = [] }

let wake_all t =
  let ws = t.waiters in
  t.waiters <- [];
  List.iter (fun w -> w ()) ws

let send t v =
  Queue.push v t.q;
  wake_all t

let length t = Queue.length t.q

let try_recv t = Queue.take_opt t.q

let rec recv t =
  match Queue.take_opt t.q with
  | Some v -> v
  | None ->
      Sim.suspend (fun waker -> t.waiters <- waker :: t.waiters);
      recv t

(* A wake-up does not promise a message (another receiver may take it
   first), so a woken receiver waits again for the time it has left.  A
   deadline that fired first leaves its spent waker behind; retract it. *)
let rec recv_timeout t span =
  match Queue.take_opt t.q with
  | Some _ as v -> v
  | None when span <= 0 -> None
  | None -> (
      match Sim.suspend_for span (fun waker -> t.waiters <- waker :: t.waiters) with
      | Sim.Woken left -> recv_timeout t left
      | Sim.Timed_out waker ->
          t.waiters <- List.filter (fun w -> w != waker) t.waiters;
          Queue.take_opt t.q)

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

let recv_timeout t span =
  let sim = Sim.current () in
  let deadline = Sim.now sim + span in
  let rec loop () =
    match Queue.take_opt t.q with
    | Some v -> Some v
    | None ->
        if Sim.now sim >= deadline then None
        else begin
          let cancel = ref ignore in
          let me = ref ignore in
          Sim.suspend (fun waker ->
              me := waker;
              t.waiters <- waker :: t.waiters;
              cancel := Sim.at_time_cancel sim ~time:deadline waker);
          (* Whichever side woke us, retire the other: drop the deadline
             event from the heap and our spent waker from the list. *)
          !cancel ();
          t.waiters <- List.filter (fun w -> w != !me) t.waiters;
          loop ()
        end
  in
  loop ()

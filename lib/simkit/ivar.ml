type 'a t = { mutable value : 'a option; mutable waiters : (unit -> unit) list }

let create () = { value = None; waiters = [] }

let wake_all t =
  let ws = t.waiters in
  t.waiters <- [];
  List.iter (fun w -> w ()) ws

let try_fill t v =
  match t.value with
  | Some _ -> false
  | None ->
      t.value <- Some v;
      wake_all t;
      true

let fill t v = if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"

let is_filled t = Option.is_some t.value

let peek t = t.value

let rec read t =
  match t.value with
  | Some v -> v
  | None ->
      Sim.suspend (fun waker -> t.waiters <- waker :: t.waiters);
      read t

(* Only a fill wakes a reader and an ivar never empties, so whichever
   side won, the value is the answer.  A deadline that fired first leaves
   its spent waker behind; retract it. *)
let read_timeout t span =
  match t.value with
  | Some _ as v -> v
  | None when span <= 0 -> None
  | None -> (
      match Sim.suspend_for span (fun waker -> t.waiters <- waker :: t.waiters) with
      | Sim.Woken _ -> t.value
      | Sim.Timed_out waker ->
          t.waiters <- List.filter (fun w -> w != waker) t.waiters;
          t.value)

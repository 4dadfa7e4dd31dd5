type state = Closed | Open | Half_open

(* Consecutive failures that trip the breaker, and how long it then
   stays Open. *)
let failure_threshold = 5
let cooldown = Time.ms 100

type t = {
  mutable st : state;
  mutable failures : int;  (* consecutive, while Closed *)
  mutable open_until : Time.t;
  mutable probing : bool;  (* Half_open probe outstanding *)
  mutable trips : int;
}

let create () =
  {
    st = Closed;
    failures = 0;
    open_until = 0;
    probing = false;
    trips = 0;
  }

let trip t ~now =
  t.st <- Open;
  t.open_until <- now + cooldown;
  t.probing <- false;
  t.trips <- t.trips + 1

let allow t ~now =
  match t.st with
  | Closed -> true
  | Open ->
      if now >= t.open_until then begin
        t.st <- Half_open;
        t.probing <- true;
        true
      end
      else false
  | Half_open ->
      if t.probing then false
      else begin
        t.probing <- true;
        true
      end

let record_success t =
  t.failures <- 0;
  match t.st with
  | Half_open ->
      t.st <- Closed;
      t.probing <- false
  | Closed | Open -> ()

let record_failure t ~now =
  match t.st with
  | Closed ->
      t.failures <- t.failures + 1;
      if t.failures >= failure_threshold then trip t ~now
  | Half_open -> trip t ~now
  | Open -> ()

let trips t = t.trips

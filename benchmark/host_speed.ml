(* How fast the host runs right now.

   The benchmark shares its machine with other tenants, and their load
   swings the simulator's speed by up to 1.8x, in phases lasting from
   seconds to minutes.  A fixed reference computation slows down with
   it while calling no code of this repository, so no change to the
   repository can move it.  Wall times are divided by the reference time
   measured next to them and reported in seconds at the reference's
   [nominal] speed.

   No single kernel tracks the simulator through every kind of
   contention, so the reference is the geometric mean of two: a
   discrete-event loop built like the simulator (effect-based fibers on
   a binary heap of wake-up times) and persistent-map inserts.  Against
   hot-stock reps and explorer drills timed next to it over three
   five-minute windows, the ratio's median over five reps moved 3-5%
   where the raw time moved 11-21%. *)

type _ Effect.t += Sleep : int -> unit Effect.t

type event = { time : int; seq : int; fire : unit -> unit }

let reference_events ~fibers ~steps =
  let heap = ref (Array.make 256 { time = 0; seq = 0; fire = ignore }) in
  let size = ref 0 and seq = ref 0 and clock = ref 0 in
  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq) in
  let swap i j =
    let h = !heap in
    let x = h.(i) in
    h.(i) <- h.(j);
    h.(j) <- x
  in
  let push time fire =
    if !size = Array.length !heap then
      heap := Array.append !heap (Array.make !size { time = 0; seq = 0; fire = ignore });
    incr seq;
    !heap.(!size) <- { time; seq = !seq; fire };
    let i = ref !size in
    incr size;
    while !i > 0 && before !heap.(!i) !heap.((!i - 1) / 2) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = !heap.(0) in
    decr size;
    !heap.(0) <- !heap.(!size);
    let i = ref 0 and settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 in
      let m = ref !i in
      if l < !size && before !heap.(l) !heap.(!m) then m := l;
      if l + 1 < !size && before !heap.(l + 1) !heap.(!m) then m := l + 1;
      if !m = !i then settled := true
      else begin
        swap !i !m;
        i := !m
      end
    done;
    top
  in
  let handler =
    {
      Effect.Deep.retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Sleep d ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  push (!clock + d) (fun () -> Effect.Deep.continue k ()))
          | _ -> None);
    }
  in
  let mail = ref [] in
  for p = 1 to fibers do
    push 0 (fun () ->
        Effect.Deep.match_with
          (fun () ->
            for i = 1 to steps do
              mail := (p, i, Some !clock) :: (if i land 63 = 0 then [] else !mail);
              Effect.perform (Sleep (((p * 37) + (i * 11)) land 1023 + 1))
            done)
          () handler)
  done;
  while !size > 0 do
    let e = pop () in
    clock := e.time;
    e.fire ()
  done;
  ignore (Sys.opaque_identity !mail)

module M = Map.Make (Int)

let map_inserts n =
  let m = ref M.empty in
  for i = 1 to n do
    m := M.add (i * 2654435761 land 0xFFFFFF) i !m
  done;
  ignore (Sys.opaque_identity (M.cardinal !m))

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let reference () =
  let des = timed (fun () -> reference_events ~fibers:64 ~steps:4_000) in
  let map = timed (fun () -> map_inserts 80_000) in
  sqrt (des *. map)

(* The reference's time on an uncontended host (a 2-vCPU VM), so scaled
   times stay close to the seconds such a host takes. *)
let nominal = 0.056

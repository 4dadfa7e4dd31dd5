(* Tests for the simkit discrete-event engine. *)

open Simkit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time --- *)

let test_time_units () =
  check_int "us" 1_000 (Time.us 1);
  check_int "ms" 1_000_000 (Time.ms 1);
  check_int "sec" 1_000_000_000 (Time.sec 1);
  check_int "us_f rounds" 1_500 (Time.us_f 1.5);
  Alcotest.(check (float 1e-9)) "to_sec" 1.5 (Time.to_sec (Time.ms 1500))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Time.to_string 500);
  Alcotest.(check string) "us" "12.50us" (Time.to_string 12_500);
  Alcotest.(check string) "ms" "3.20ms" (Time.to_string 3_200_000)

(* --- Heap --- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter
    (fun (key, seq, v) -> ignore (Heap.push h ~key ~seq v : string Heap.entry))
    [ (5, 1, "e"); (1, 2, "a"); (3, 3, "c"); (1, 1, "a0") ];
  let pop () =
    if Heap.is_empty h then Alcotest.fail "empty" else (Heap.pop h).Heap.value
  in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  Alcotest.(check (list string)) "sorted" [ "a0"; "a"; "c"; "e" ] [ p1; p2; p3; p4 ];
  check_bool "empty after" true (Heap.is_empty h);
  let stranger = Heap.push (Heap.create ()) ~key:0 ~seq:0 "x" in
  Alcotest.check_raises "live entry of another heap"
    (Invalid_argument "Heap.remove: entry of another heap") (fun () -> Heap.remove h stranger)

let test_heap_random () =
  let rng = Rng.create 42L in
  let h = Heap.create () in
  let n = 1000 in
  for i = 1 to n do
    ignore (Heap.push h ~key:(Rng.int rng 100) ~seq:i i : int Heap.entry)
  done;
  let last = ref min_int in
  let count = ref 0 in
  while not (Heap.is_empty h) do
    let k = (Heap.pop h).Heap.key in
    check_bool "nondecreasing" true (k >= !last);
    last := k;
    incr count
  done;
  check_int "all popped" n !count

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    check_bool "in range" true (x >= 0 && x < 10);
    let f = Rng.unit_float r in
    check_bool "unit float" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let r = Rng.create 9L in
  let a = Rng.split r in
  let b = Rng.split r in
  check_bool "split streams differ" true (Rng.int64 a <> Rng.int64 b)

(* --- Stat --- *)

let test_stat_moments () =
  let s = Stat.create () in
  List.iter (Stat.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  let sum = Stat.summary s in
  check_int "n" 5 sum.n;
  Alcotest.(check (float 1e-9)) "mean" 3.0 sum.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 sum.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 sum.max;
  Alcotest.(check (float 1e-6)) "stdev" (sqrt 2.5) sum.stdev

let test_stat_percentile () =
  let s = Stat.create () in
  for i = 1 to 100 do
    Stat.add s (float_of_int i)
  done;
  Alcotest.(check (float 1.0)) "p50" 50.0 (Stat.percentile s 0.50);
  Alcotest.(check (float 1.0)) "p99" 99.0 (Stat.percentile s 0.99);
  (* Adding after sorting must keep percentiles correct. *)
  Stat.add s 1000.0;
  Alcotest.(check (float 1e-9)) "new max" 1000.0 (Stat.percentile s 1.0)

let test_stat_empty_summary () =
  let s = Stat.create () in
  let sum = Stat.summary s in
  check_int "n" 0 sum.n

(* --- Sim scheduling --- *)

let test_callbacks_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim ~after:(Time.us 30) (fun () -> log := 3 :: !log);
  Sim.at sim ~after:(Time.us 10) (fun () -> log := 1 :: !log);
  Sim.at sim ~after:(Time.us 20) (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" (Time.us 30) (Sim.now sim)

let test_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.at sim ~after:(Time.us 10) (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_run_until () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.at sim ~after:(Time.ms 10) (fun () -> fired := true);
  Sim.run ~until:(Time.ms 5) sim;
  check_bool "not fired" false !fired;
  check_int "clock at bound" (Time.ms 5) (Sim.now sim);
  Sim.run sim;
  check_bool "fires later" true !fired

(* --- Cancelled events leave the queue at once --- *)

let test_cancel_middle_of_instant () =
  let sim = Sim.create () in
  let log = ref [] in
  let at_100 name = Sim.at_time_cancel sim ~time:100 (fun () -> log := name :: !log) in
  let (_ : unit -> unit) = at_100 "first" in
  let cancel_second = at_100 "second" in
  let (_ : unit -> unit) = at_100 "third" in
  cancel_second ();
  check_int "two queued" 2 (Sim.queue_depth sim);
  Sim.run sim;
  Alcotest.(check (list string)) "first then third" [ "first"; "third" ] (List.rev !log)

let test_cancel_after_fire () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let cancel = Sim.at_time_cancel sim ~time:10 (fun () -> incr fired) in
  Sim.at_time sim ~time:20 ignore;
  Sim.run ~until:15 sim;
  cancel ();
  check_int "fired once" 1 !fired;
  check_int "later event untouched" 1 (Sim.queue_depth sim);
  Sim.run sim;
  check_int "still once" 1 !fired;
  check_int "clock at later event" 20 (Sim.now sim)

let test_cancelled_timer_keeps_clock () =
  List.iter
    (fun bound ->
      let sim = Sim.create () in
      let fired = ref false in
      let cancel = Sim.at_time_cancel sim ~time:100 (fun () -> fired := true) in
      cancel ();
      check_int "queue empty" 0 (Sim.queue_depth sim);
      Sim.run ~until:bound sim;
      check_bool "never fired" false !fired;
      check_int (Printf.sprintf "now after run ~until:%d" bound) 0 (Sim.now sim))
    [ 50; 200 ]

let test_process_sleep () =
  let sim = Sim.create () in
  let wake_time = ref Time.zero in
  let _ =
    Sim.spawn sim ~name:"sleeper" (fun () ->
        Sim.sleep (Time.ms 3);
        wake_time := Sim.now sim)
  in
  Sim.run sim;
  check_int "woke at 3ms" (Time.ms 3) !wake_time

let test_process_exit_hook () =
  let sim = Sim.create () in
  let reason = ref None in
  let pid = Sim.spawn sim ~name:"p" (fun () -> Sim.sleep (Time.us 1)) in
  Sim.on_exit sim pid (fun r -> reason := Some r);
  Sim.run sim;
  (match !reason with
  | Some Sim.Normal -> ()
  | _ -> Alcotest.fail "expected Normal exit");
  check_bool "dead" false (Sim.is_alive sim pid)

let test_kill_blocked_process () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let got = ref false in
  let pid =
    Sim.spawn sim ~name:"victim" (fun () ->
        let (_ : int) = Mailbox.recv mb in
        got := true)
  in
  Sim.at sim ~after:(Time.us 5) (fun () -> Sim.kill sim pid);
  (* A message sent after the kill must not resurrect the process. *)
  Sim.at sim ~after:(Time.us 10) (fun () -> Mailbox.send mb 42);
  Sim.run sim;
  check_bool "never ran" false !got;
  check_bool "dead" false (Sim.is_alive sim pid)

let test_kill_hook_runs_immediately () =
  let sim = Sim.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let killed_at = ref Time.zero in
  let pid = Sim.spawn sim ~name:"victim" (fun () -> ignore (Mailbox.recv mb)) in
  Sim.on_exit sim pid (fun _ -> killed_at := Sim.now sim);
  Sim.at sim ~after:(Time.us 7) (fun () -> Sim.kill sim pid);
  Sim.run sim;
  check_int "hook at kill time" (Time.us 7) !killed_at

(* A finished simulation's parked processes are unwound, a killed one
   that was never woken included, without running exit hooks. *)
let test_discard_unwinds_parked () =
  let sim = Sim.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let unwound = ref 0 and hooks = ref 0 in
  let park () = Fun.protect ~finally:(fun () -> incr unwound) (fun () -> ignore (Mailbox.recv mb)) in
  let a = Sim.spawn sim ~name:"a" park in
  let (_ : Sim.pid) = Sim.spawn sim ~name:"b" park in
  let killed = Sim.spawn sim ~name:"killed" park in
  Sim.on_exit sim a (fun _ -> incr hooks);
  Sim.at sim ~after:(Time.us 1) (fun () -> Sim.kill sim killed);
  Sim.run sim;
  check_int "all three still parked" 0 !unwound;
  Sim.discard sim;
  check_int "every parked fiber unwound" 3 !unwound;
  check_int "no exit hook ran" 0 !hooks;
  check_int "none alive" 0 (Sim.live_processes sim)

let test_crash_raises_by_default () =
  let sim = Sim.create () in
  let _ = Sim.spawn sim ~name:"boom" (fun () -> failwith "bang") in
  Alcotest.check_raises "propagates" (Failure "bang") (fun () -> Sim.run sim)

let test_crash_recorded () =
  let sim = Sim.create ~on_crash:`Record () in
  let _ = Sim.spawn sim ~name:"boom" (fun () -> failwith "bang") in
  Sim.run sim;
  match Sim.crashed sim with
  | [ (_, name, Failure msg) ] ->
      Alcotest.(check string) "name" "boom" name;
      Alcotest.(check string) "msg" "bang" msg
  | _ -> Alcotest.fail "expected one recorded crash"

let test_not_in_process () =
  Alcotest.check_raises "sleep outside" Sim.Not_in_process (fun () -> Sim.sleep 5)

let test_yield_interleaving () =
  let sim = Sim.create () in
  let log = ref [] in
  let proc tag () =
    for i = 1 to 2 do
      log := (tag, i) :: !log;
      Sim.yield ()
    done
  in
  let _ = Sim.spawn sim ~name:"a" (proc "a") in
  let _ = Sim.spawn sim ~name:"b" (proc "b") in
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "round robin"
    [ ("a", 1); ("b", 1); ("a", 2); ("b", 2) ]
    (List.rev !log)

(* --- The same-instant ordering contract --- *)

(* A fired timer's resumption runs after every event already due at its
   instant ([a] queued before the timer, [b] after it) and before one
   scheduled at that instant once it fired ([c], queued by [b]). *)
let test_timer_resumes_behind_due_events () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  Sim.at sim ~after:10 (note "a");
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"sleeper" (fun () ->
        Sim.sleep 10;
        note "sleeper" ())
  in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"late" (fun () ->
        Sim.at sim ~after:10 (fun () ->
            note "b" ();
            Sim.at sim ~after:0 (note "c")))
  in
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "sleeper"; "c" ] (List.rev !log)

(* With nothing else due, the timer's slice is the resumption: a lone
   sleeper costs its start slice and one slice per sleep. *)
let test_lone_timer_one_slice () =
  let sim = Sim.create () in
  let slices = ref 0 in
  Sim.set_dispatch_hooks sim ~before:(fun _ _ -> incr slices) ~after:ignore;
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"sleeper" (fun () ->
        for _ = 1 to 3 do
          Sim.sleep 10
        done)
  in
  Sim.run sim;
  check_int "start + three timers" 4 !slices;
  check_int "clock" 30 (Sim.now sim)

(* Heap entries due now run before same-instant ones, which keep their
   scheduling order across [stop], later scheduling and [run ~until]. *)
let test_fifo_interleaves_with_heap () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  Sim.at sim ~after:5 (fun () ->
      note "h1" ();
      Sim.at sim ~after:0 (fun () ->
          note "f1" ();
          Sim.at sim ~after:0 (note "f3");
          Sim.stop sim));
  Sim.at sim ~after:5 (fun () ->
      note "h2" ();
      Sim.at sim ~after:0 (note "f2"));
  Sim.at sim ~after:6 (note "g");
  Sim.run ~until:5 sim;
  Alcotest.(check (list string)) "stopped after f1" [ "h1"; "h2"; "f1" ] (List.rev !log);
  check_int "f2, f3 and g queued" 3 (Sim.queue_depth sim);
  Sim.at sim ~after:0 (note "x");
  Sim.run ~until:5 sim;
  Alcotest.(check (list string))
    "the instant drains in order" [ "h1"; "h2"; "f1"; "f2"; "f3"; "x" ] (List.rev !log);
  check_int "clock at the bound" 5 (Sim.now sim);
  check_int "g still queued" 1 (Sim.queue_depth sim);
  Sim.run sim;
  check_int "g ran" 6 (Sim.now sim)

let test_same_instant_cancel () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  Sim.at sim ~after:5 (fun () ->
      let now = Sim.now sim in
      let (_ : unit -> unit) = Sim.at_time_cancel sim ~time:now (note "kept1") in
      let cancel = Sim.at_time_cancel sim ~time:now (note "cancelled") in
      let (_ : unit -> unit) = Sim.at_time_cancel sim ~time:now (note "kept2") in
      check_int "three queued" 3 (Sim.queue_depth sim);
      cancel ();
      check_int "left the queue at once" 2 (Sim.queue_depth sim);
      cancel ();
      check_int "second cancel a no-op" 2 (Sim.queue_depth sim));
  let lone = Sim.at_time_cancel sim ~time:0 (note "lone") in
  lone ();
  check_int "only the heap entry left" 1 (Sim.queue_depth sim);
  Sim.run sim;
  Alcotest.(check (list string)) "never fired" [ "kept1"; "kept2" ] (List.rev !log);
  check_int "empty" 0 (Sim.queue_depth sim)

(* A satisfied timed wait leaves no deadline queued, and no wait leaves
   its waker behind: an ivar or mailbox holding a spent waker would
   reach the whole simulation through it. *)
let test_timed_waits_leave_nothing () =
  let sim = Sim.create () in
  let iv = Ivar.create () and mb = Mailbox.create () in
  let expired = Ivar.create () and idle = Mailbox.create () in
  let depths = ref [] in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"reader" (fun () ->
        check_bool "ivar filled" true (Ivar.read_timeout iv (Time.sec 1) = Some 1);
        depths := Sim.queue_depth sim :: !depths;
        Sim.at sim ~after:2 (fun () -> Mailbox.send mb 2);
        check_bool "mailbox filled" true (Mailbox.recv_timeout mb (Time.sec 1) = Some 2);
        depths := Sim.queue_depth sim :: !depths;
        check_bool "ivar expired" true (Ivar.read_timeout expired 10 = None);
        check_bool "mailbox expired" true (Mailbox.recv_timeout idle 10 = None))
  in
  Sim.at sim ~after:5 (fun () -> Ivar.fill iv 1);
  Sim.run sim;
  Alcotest.(check (list int)) "no deadline left queued" [ 0; 0 ] !depths;
  check_int "clock at the last expiry" 27 (Sim.now sim);
  List.iter
    (fun (name, v) ->
      check_bool (name ^ " holds no waker") true (Obj.reachable_words v < 32))
    [
      ("filled ivar", Obj.repr iv);
      ("filled mailbox", Obj.repr mb);
      ("expired ivar", Obj.repr expired);
      ("expired mailbox", Obj.repr idle);
    ]

(* Woken, but another receiver took the message: wait out what is left
   of the original deadline, not a fresh span.  A send wakes the newest
   waiter first. *)
let test_recv_timeout_keeps_deadline () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let results = ref [] in
  let rx name () =
    let r = Mailbox.recv_timeout mb 100 in
    results := (name, r, Sim.now sim) :: !results
  in
  let (_ : Sim.pid) = Sim.spawn sim ~name:"r1" (rx "r1") in
  let (_ : Sim.pid) = Sim.spawn sim ~name:"r2" (rx "r2") in
  Sim.at sim ~after:40 (fun () -> Mailbox.send mb 9);
  Sim.run sim;
  Alcotest.(check (list (triple string (option int) int)))
    "one served, one times out at its deadline"
    [ ("r2", Some 9, 40); ("r1", None, 100) ]
    (List.rev !results)

(* A sleeper killed mid-sleep, and a timed waiter killed mid-wait, are
   unwound when their timers fire. *)
let test_killed_sleeper_unwound () =
  let sim = Sim.create () in
  let unwound = ref [] in
  let guard name f () = Fun.protect ~finally:(fun () -> unwound := (name, Sim.now sim) :: !unwound) f in
  let sleeper = Sim.spawn sim ~name:"sleeper" (guard "sleeper" (fun () -> Sim.sleep 10)) in
  let waiter =
    Sim.spawn sim ~name:"waiter"
      (guard "waiter" (fun () -> ignore (Ivar.read_timeout (Ivar.create ()) 20 : int option)))
  in
  Sim.at sim ~after:5 (fun () ->
      Sim.kill sim sleeper;
      Sim.kill sim waiter);
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "unwound at their timers" [ ("sleeper", 10); ("waiter", 20) ] (List.rev !unwound);
  check_int "none alive" 0 (Sim.live_processes sim)

(* --- Mailbox --- *)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  let _ =
    Sim.spawn sim ~name:"rx" (fun () ->
        for _ = 1 to 3 do
          got := Mailbox.recv mb :: !got
        done)
  in
  let _ =
    Sim.spawn sim ~name:"tx" (fun () ->
        Mailbox.send mb 1;
        Sim.sleep (Time.us 1);
        Mailbox.send mb 2;
        Mailbox.send mb 3)
  in
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_timeout () =
  let sim = Sim.create () in
  let result = ref (Some 0) in
  let mb : int Mailbox.t = Mailbox.create () in
  let _ =
    Sim.spawn sim ~name:"rx" (fun () -> result := Mailbox.recv_timeout mb (Time.ms 1))
  in
  Sim.run sim;
  check_bool "timed out" true (!result = None);
  check_int "clock advanced" (Time.ms 1) (Sim.now sim)

let test_mailbox_timeout_delivery_wins () =
  let sim = Sim.create () in
  let result = ref None in
  let mb = Mailbox.create () in
  let _ =
    Sim.spawn sim ~name:"rx" (fun () -> result := Mailbox.recv_timeout mb (Time.ms 1))
  in
  Sim.at sim ~after:(Time.us 100) (fun () -> Mailbox.send mb 99);
  Sim.run sim;
  check_bool "delivered" true (!result = Some 99)

let test_mailbox_two_receivers () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  let rx name () =
    let v = Mailbox.recv mb in
    got := (name, v) :: !got
  in
  let _ = Sim.spawn sim ~name:"r1" (rx "r1") in
  let _ = Sim.spawn sim ~name:"r2" (rx "r2") in
  Sim.at sim ~after:(Time.us 1) (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2);
  Sim.run sim;
  check_int "both served" 2 (List.length !got)

(* --- Ivar --- *)

let test_ivar_fill_read () =
  let sim = Sim.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  let _ = Sim.spawn sim ~name:"reader" (fun () -> got := Ivar.read iv) in
  Sim.at sim ~after:(Time.us 3) (fun () -> Ivar.fill iv 17);
  Sim.run sim;
  check_int "value" 17 !got

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  check_bool "try_fill refused" false (Ivar.try_fill iv 2);
  check_bool "peek" true (Ivar.peek iv = Some 1)

let test_ivar_read_timeout () =
  let sim = Sim.create () in
  let out = ref (Some 0) in
  let iv : int Ivar.t = Ivar.create () in
  let _ = Sim.spawn sim ~name:"r" (fun () -> out := Ivar.read_timeout iv (Time.us 50)) in
  Sim.run sim;
  check_bool "timeout" true (!out = None)

(* --- Gate --- *)

let test_gate_fan_in () =
  let sim = Sim.create () in
  let g = Gate.create 3 in
  let opened_at = ref Time.zero in
  let _ =
    Sim.spawn sim ~name:"waiter" (fun () ->
        Gate.await g;
        opened_at := Sim.now sim)
  in
  for i = 1 to 3 do
    Sim.at sim ~after:(Time.us (10 * i)) (fun () -> Gate.arrive g)
  done;
  Sim.run sim;
  check_int "opens at last arrival" (Time.us 30) !opened_at

let test_gate_zero () =
  let g = Gate.create 0 in
  check_bool "already open" true (Gate.is_open g)

(* --- Determinism property --- *)

let run_sample_sim seed =
  let sim = Sim.create ~seed () in
  let rng = Sim.rng sim in
  let log = Buffer.create 256 in
  let mb = Mailbox.create () in
  let _ =
    Sim.spawn sim ~name:"producer" (fun () ->
        for i = 1 to 20 do
          Sim.sleep (Rng.int rng 1000);
          Mailbox.send mb i
        done)
  in
  let _ =
    Sim.spawn sim ~name:"consumer" (fun () ->
        for _ = 1 to 20 do
          let v = Mailbox.recv mb in
          Buffer.add_string log (Printf.sprintf "%d@%d;" v (Sim.now sim))
        done)
  in
  Sim.run sim;
  Buffer.contents log

let prop_determinism =
  QCheck.Test.make ~name:"identical seeds give identical runs" ~count:30 QCheck.int64
    (fun seed -> String.equal (run_sample_sim seed) (run_sample_sim seed))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:100
    QCheck.(list small_nat)
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> ignore (Heap.push h ~key:k ~seq:i k : int Heap.entry)) keys;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc else drain ((Heap.pop h).Heap.key :: acc)
      in
      drain [] = List.sort compare keys)

(* Model test of the indexed heap: random push/remove/pop against a
   sorted list of (key, seq) pairs.  Keys come from a small range so
   ties are common and must break on seq; removals pick any entry ever
   pushed, including ones already popped or removed, which must do
   nothing. *)
type heap_op = Push of int | Remove of int | Pop

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun k -> Push k) (int_bound 7)); (2, map (fun i -> Remove i) nat); (3, return Pop) ])

let heap_op_print = function
  | Push k -> Printf.sprintf "push %d" k
  | Remove i -> Printf.sprintf "remove #%d" i
  | Pop -> "pop"

let prop_heap_model =
  QCheck.Test.make ~name:"indexed heap matches a sorted-list model" ~count:300
    QCheck.(make ~print:Print.(list heap_op_print) Gen.(list_size (0 -- 120) heap_op_gen))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] (* live (key, seq), kept sorted *) in
      let pushed = ref [||] (* every entry ever pushed, by seq *) in
      let step seq op =
        match op with
        | Push key ->
            let e = Heap.push h ~key ~seq seq in
            pushed := Array.append !pushed [| e |];
            model := List.merge compare !model [ (key, seq) ];
            seq + 1
        | Remove i ->
            let n = Array.length !pushed in
            if n > 0 then begin
              let e = !pushed.(i mod n) in
              Heap.remove h e;
              model := List.filter (fun (_, s) -> s <> e.Heap.seq) !model;
              if e.Heap.slot >= 0 then QCheck.Test.fail_report "removed entry still live"
            end;
            seq
        | Pop -> (
            match !model with
            | [] ->
                if not (Heap.is_empty h) then QCheck.Test.fail_report "model empty, heap not";
                seq
            | (k, s) :: rest ->
                let e = Heap.pop h in
                if (e.Heap.key, e.Heap.seq, e.Heap.value) <> (k, s, s) then
                  QCheck.Test.fail_reportf "popped (%d, %d), model (%d, %d)" e.Heap.key e.Heap.seq k s;
                model := rest;
                seq)
      in
      let (_ : int) =
        List.fold_left
          (fun seq op ->
            let seq = step seq op in
            if Heap.length h <> List.length !model then
              QCheck.Test.fail_reportf "length %d, live %d" (Heap.length h) (List.length !model);
            seq)
          0 ops
      in
      let live = Array.fold_left (fun n e -> if e.Heap.slot >= 0 then n + 1 else n) 0 !pushed in
      live = List.length !model)

let prop_stat_percentile_bounds =
  QCheck.Test.make ~name:"percentiles lie within [min,max]" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stat.create () in
      List.iter (Stat.add s) xs;
      let sum = Stat.summary s in
      sum.p50 >= sum.min && sum.p50 <= sum.max && sum.p99 >= sum.p50)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest
    [ prop_determinism; prop_heap_sorts; prop_heap_model; prop_stat_percentile_bounds ]

let suite =
  [
    ( "simkit.time",
      [
        Alcotest.test_case "units" `Quick test_time_units;
        Alcotest.test_case "pretty printing" `Quick test_time_pp;
      ] );
    ( "simkit.heap",
      [
        Alcotest.test_case "ordering with ties" `Quick test_heap_order;
        Alcotest.test_case "random keys drain sorted" `Quick test_heap_random;
      ] );
    ( "simkit.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
      ] );
    ( "simkit.stat",
      [
        Alcotest.test_case "moments" `Quick test_stat_moments;
        Alcotest.test_case "percentiles with growth" `Quick test_stat_percentile;
        Alcotest.test_case "empty summary" `Quick test_stat_empty_summary;
      ] );
    ( "simkit.sim",
      [
        Alcotest.test_case "callbacks fire in order" `Quick test_callbacks_in_order;
        Alcotest.test_case "same-time events are FIFO" `Quick test_same_time_fifo;
        Alcotest.test_case "run ~until stops the clock" `Quick test_run_until;
        Alcotest.test_case "cancel inside one instant" `Quick test_cancel_middle_of_instant;
        Alcotest.test_case "cancel after firing is a no-op" `Quick test_cancel_after_fire;
        Alcotest.test_case "cancelled timer keeps the clock" `Quick test_cancelled_timer_keeps_clock;
        Alcotest.test_case "process sleep" `Quick test_process_sleep;
        Alcotest.test_case "exit hook on normal exit" `Quick test_process_exit_hook;
        Alcotest.test_case "killing a blocked process" `Quick test_kill_blocked_process;
        Alcotest.test_case "kill hooks run immediately" `Quick test_kill_hook_runs_immediately;
        Alcotest.test_case "discard unwinds parked processes" `Quick test_discard_unwinds_parked;
        Alcotest.test_case "crash raises by default" `Quick test_crash_raises_by_default;
        Alcotest.test_case "crash recorded with `Record" `Quick test_crash_recorded;
        Alcotest.test_case "blocking ops outside process raise" `Quick test_not_in_process;
        Alcotest.test_case "yield interleaves fairly" `Quick test_yield_interleaving;
      ] );
    ( "simkit.ordering",
      [
        Alcotest.test_case "timer resumes behind due events" `Quick
          test_timer_resumes_behind_due_events;
        Alcotest.test_case "lone timer is one slice" `Quick test_lone_timer_one_slice;
        Alcotest.test_case "fifo interleaves with heap" `Quick test_fifo_interleaves_with_heap;
        Alcotest.test_case "same-instant cancel" `Quick test_same_instant_cancel;
        Alcotest.test_case "timed waits leave nothing behind" `Quick
          test_timed_waits_leave_nothing;
        Alcotest.test_case "stolen wake keeps the deadline" `Quick
          test_recv_timeout_keeps_deadline;
        Alcotest.test_case "killed sleeper unwound" `Quick test_killed_sleeper_unwound;
      ] );
    ( "simkit.mailbox",
      [
        Alcotest.test_case "fifo delivery" `Quick test_mailbox_fifo;
        Alcotest.test_case "recv timeout expires" `Quick test_mailbox_timeout;
        Alcotest.test_case "delivery beats timeout" `Quick test_mailbox_timeout_delivery_wins;
        Alcotest.test_case "two receivers both served" `Quick test_mailbox_two_receivers;
      ] );
    ( "simkit.ivar",
      [
        Alcotest.test_case "fill then read" `Quick test_ivar_fill_read;
        Alcotest.test_case "double fill refused" `Quick test_ivar_double_fill;
        Alcotest.test_case "read timeout" `Quick test_ivar_read_timeout;
      ] );
    ( "simkit.gate",
      [
        Alcotest.test_case "fan-in" `Quick test_gate_fan_in;
        Alcotest.test_case "zero gate open" `Quick test_gate_zero;
      ] );
    ("simkit.properties", qcheck_cases);
  ]

(* Shared helpers for the test suites. *)

open Simkit

(* Run [f] inside a spawned process and return its result once the
   simulation quiesces.  Fails the test if the process never finished
   (deadlock or starvation). *)
let run_process ?(seed = 0xABCDL) f =
  let sim = Sim.create ~seed () in
  let result = ref None in
  let (_ : Sim.pid) = Sim.spawn sim ~name:"test-driver" (fun () -> result := Some (f sim)) in
  Sim.run sim;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test process did not run to completion"

(* Same, but the caller supplies the simulation (e.g. to pre-build
   topology before entering process context). *)
let run_in sim f =
  let result = ref None in
  let (_ : Sim.pid) = Sim.spawn sim ~name:"test-driver" (fun () -> result := Some (f ())) in
  Sim.run sim;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test process did not run to completion"

let ok_or_fail ~msg = function
  | Ok v -> v
  | Error _ -> Alcotest.fail msg

let bytes_of_string = Bytes.of_string

let check_result_ok msg = function
  | Ok _ -> ()
  | Error _ -> Alcotest.fail msg

(* A named drill family's spec; fails the test if the platform refuses
   the plan. *)
let drill_spec ?(scope = `Single Tp.System.Pm_audit) plan =
  match Tp.Drill.spec_of plan scope with Ok s -> s | Error e -> Alcotest.fail e

(* The gate-failure marks in a flight-recorder dump, oldest first, with
   their simulated times: the labels CI's negative controls search
   for. *)
let flight_gate_marks path =
  let doc = In_channel.with_open_bin path In_channel.input_all in
  let marks =
    match Json.parse doc with
    | Ok doc -> (
        match Json.member "marks" doc with
        | Some (Json.List marks) ->
            List.filter_map
              (fun m ->
                match (Json.member "time_ns" m, Json.member "label" m) with
                | Some (Json.Int t), Some (Json.String l) -> Some (t, l)
                | _ -> None)
              marks
        | _ -> Alcotest.fail "flight dump has no marks")
    | Error e -> Alcotest.fail ("flight dump unreadable: " ^ e)
  in
  let needle = "gate failed" in
  let contains l =
    let n = String.length needle in
    let rec go i = i + n <= String.length l && (String.sub l i n = needle || go (i + 1)) in
    go 0
  in
  List.filter (fun (_, l) -> contains l) marks

(* The declaration this benchmark answers to: BENCHMARK.json at the
   repository root, with the workloads and each metric's name, unit and
   direction, and for the end-to-end metrics the regression bound.  Runs
   read it, so the metrics a run prints are checked against exactly the
   declared set. *)

open Simkit

type better = Lower | Higher

type metric = { name : string; units : string; better : better }

type t = {
  workloads : string list;
  end_to_end : (metric * float) list;  (** with its bound *)
  per_layer : metric list;
}

let path = "BENCHMARK.json"

let fail what = failwith (path ^ ": " ^ what)

let member key json = match Json.member key json with Some v -> v | None -> fail ("no " ^ key)

let string key json =
  match Json.to_string_opt (member key json) with Some s -> s | None -> fail (key ^ " is not a string")

let list key json =
  match Json.to_list_opt (member key json) with Some l -> l | None -> fail (key ^ " is not a list")

let metric json =
  let better =
    match string "better" json with
    | "lower" -> Lower
    | "higher" -> Higher
    | b -> fail ("better must be lower or higher, not " ^ b)
  in
  { name = string "name" json; units = string "unit" json; better }

let load () =
  let json =
    match Json.parse (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail e
  in
  let bound m =
    match Json.to_float_opt (member "bound" m) with Some b -> b | None -> fail "bound is not a number"
  in
  {
    workloads = List.map (string "name") (list "workloads" json);
    end_to_end = List.map (fun m -> (metric m, bound m)) (list "end_to_end" json);
    per_layer = List.map metric (list "per_layer" json);
  }

let find metrics name = List.find_opt (fun m -> m.name = name) metrics

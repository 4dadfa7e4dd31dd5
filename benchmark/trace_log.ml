(* The benchmark's own wall-clock spans around the public calls it makes
   (System.build, Hot_stock.run, the open loop's transaction calls,
   Recovery.run, the drills).
   Kept in memory during a traced run and written out when it ends; a
   no-op otherwise. *)

open Simkit

type span = { id : int; parent : int option; name : string; start : float; stop : float }

let enabled = ref false

let epoch = ref 0.

let next_id = ref 0

let spans : span list ref = ref []

let enable () =
  enabled := true;
  epoch := Unix.gettimeofday ()

(* [with_span ?parent name f] runs [f id]; [id] parents nested spans.
   Spans of calls that block inside the simulation cover whatever the
   event loop ran meanwhile: that is where the wall time went. *)
let with_span ?parent name f =
  if not !enabled then f (-1)
  else begin
    let id = !next_id in
    incr next_id;
    let start = Unix.gettimeofday () in
    let record () =
      spans := { id; parent; name; start; stop = Unix.gettimeofday () } :: !spans
    in
    Fun.protect ~finally:record (fun () -> f id)
  end

let to_json ~workload ~seed =
  let rel t = Json.Float (t -. !epoch) in
  Json.Obj
    [
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ( "spans",
        Json.List
          (List.rev_map
             (fun s ->
               Json.Obj
                 [
                   ("id", Json.Int s.id);
                   ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
                   ("name", Json.String s.name);
                   ("start_s", rel s.start);
                   ("end_s", rel s.stop);
                 ])
             !spans) );
    ]

let write ~path ~workload ~seed =
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json ~workload ~seed));
      output_char oc '\n')

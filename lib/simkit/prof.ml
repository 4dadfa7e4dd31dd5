(* All-float records: OCaml stores them flat, so mutating a field writes
   in place instead of boxing a fresh float.  The profiler must not
   pollute the very minor-word counts it reports. *)
type acct = {
  mutable a_events : float;
  mutable a_wall : float;
  mutable a_minor : float;
  mutable a_major : float;
  mutable a_discarded : float;
}

let fresh_acct () =
  { a_events = 0.; a_wall = 0.; a_minor = 0.; a_major = 0.; a_discarded = 0. }

type t = {
  layers : (string, acct) Hashtbl.t;
  total : acct;
  mutable heap_hwm : int;
  mutable envelopes : int;
  mutable packets : int;
  mutable pm_writes : int;
  (* Dispatch-entry marks: wall seconds, minor words, major words. *)
  marks : float array;
  mutable installed : Sim.t option;
  mutable t0_wall : float;
}

type section = {
  s_wall : float;
  s_minor : float;
  s_major : float;
  s_events : float;
}

(* Shared sentinel returned by [section_begin] when no profiler is
   installed: the disabled path allocates nothing. *)
let none = { s_wall = 0.; s_minor = 0.; s_major = 0.; s_events = -1. }

let current : t option ref = ref None

let now_s () = Unix.gettimeofday ()

(* Minor words come from [Gc.minor_words], which counts this domain's
   allocation exactly; the minor count of [Gc.counters] does not repeat
   across identical runs on OCaml 5.  [Gc.counters] still serves the
   major count, read outside the minor window so its own allocation is
   not charged to the section. *)
let major_words () =
  let _, _, ma = Gc.counters () in
  ma

let create () =
  {
    layers = Hashtbl.create 16;
    total = fresh_acct ();
    heap_hwm = 0;
    envelopes = 0;
    packets = 0;
    pm_writes = 0;
    marks = Array.make 3 0.;
    installed = None;
    t0_wall = 0.;
  }

let enabled () = !current != None

let install p sim =
  (match !current with
  | Some _ -> invalid_arg "Prof.install: a profiler is already installed"
  | None -> ());
  p.installed <- Some sim;
  p.t0_wall <- now_s ();
  current := Some p;
  let before qdepth =
    (* [qdepth] excludes the event just popped; count it back in. *)
    if qdepth + 1 > p.heap_hwm then p.heap_hwm <- qdepth + 1;
    p.marks.(2) <- major_words ();
    p.marks.(0) <- now_s ();
    p.marks.(1) <- Gc.minor_words ()
  in
  let after () =
    let mi = Gc.minor_words () in
    let ma = major_words () in
    let tot = p.total in
    tot.a_wall <- tot.a_wall +. (now_s () -. p.marks.(0));
    tot.a_minor <- tot.a_minor +. (mi -. p.marks.(1));
    tot.a_major <- tot.a_major +. (ma -. p.marks.(2));
    tot.a_events <- tot.a_events +. 1.
  in
  Sim.set_dispatch_hooks sim ~before ~after

let uninstall p =
  (match p.installed with
  | Some sim -> Sim.clear_dispatch_hooks sim
  | None -> ());
  p.installed <- None;
  (match !current with Some q when q == p -> current := None | _ -> ())

let layer_acct p name =
  match Hashtbl.find_opt p.layers name with
  | Some a -> a
  | None ->
      let a = fresh_acct () in
      Hashtbl.add p.layers name a;
      a

let section_begin () =
  match !current with
  | None -> none
  | Some p ->
      let ma = major_words () in
      let wall = now_s () in
      { s_wall = wall; s_minor = Gc.minor_words (); s_major = ma; s_events = p.total.a_events }

let section_end s layer =
  if s != none then
    match !current with
    | None -> ()
    | Some p ->
        let a = layer_acct p layer in
        if p.total.a_events <> s.s_events then
          (* An event boundary (suspension) was crossed between begin and
             end: the deltas would include unrelated handlers.  Drop the
             sample but account the drop. *)
          a.a_discarded <- a.a_discarded +. 1.
        else begin
          let mi = Gc.minor_words () in
          let ma = major_words () in
          a.a_events <- a.a_events +. 1.;
          a.a_wall <- a.a_wall +. (now_s () -. s.s_wall);
          a.a_minor <- a.a_minor +. (mi -. s.s_minor);
          a.a_major <- a.a_major +. (ma -. s.s_major)
        end

(* Hot-path counters: one option check when disabled. *)

let bump_envelope () =
  match !current with None -> () | Some p -> p.envelopes <- p.envelopes + 1

let bump_packets n =
  match !current with None -> () | Some p -> p.packets <- p.packets + n

let bump_pm_write () =
  match !current with None -> () | Some p -> p.pm_writes <- p.pm_writes + 1

(* Report accessors. *)

let events p = int_of_float p.total.a_events

let wall_total p = p.total.a_wall

let minor_words p = p.total.a_minor

let major_words p = p.total.a_major

let wall_elapsed p = now_s () -. p.t0_wall

let heap_depth_hwm p = p.heap_hwm

let envelope_count p = p.envelopes

let packet_count p = p.packets

let pm_write_count p = p.pm_writes

type layer_row = {
  l_name : string;
  l_events : int;
  l_wall : float;
  l_minor : float;
  l_major : float;
  l_discarded : int;
}

let layer_rows p =
  Hashtbl.fold
    (fun name a rows ->
      {
        l_name = name;
        l_events = int_of_float a.a_events;
        l_wall = a.a_wall;
        l_minor = a.a_minor;
        l_major = a.a_major;
        l_discarded = int_of_float a.a_discarded;
      }
      :: rows)
    p.layers []
  |> List.sort (fun r1 r2 -> compare r2.l_wall r1.l_wall)

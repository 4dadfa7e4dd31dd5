(* All-float records: OCaml stores them flat, so mutating a field writes
   in place instead of boxing a fresh float.  The profiler must not
   pollute the very minor-word counts it reports. *)
type acct = {
  mutable a_slices : float;
  mutable a_wall : float;
  mutable a_minor : float;
}

let fresh_acct () = { a_slices = 0.; a_wall = 0.; a_minor = 0. }

type t = {
  roles : (string, acct) Hashtbl.t;
  mutable by_pid : acct option array;  (* each owner's role account, once looked up *)
  mutable slice : acct;  (* the account the running slice is charged to *)
  mutable heap_hwm : int;
  mutable envelopes : int;
  mutable packets : int;
  mutable pm_writes : int;
  (* Dispatch-entry marks: wall seconds, minor words. *)
  marks : float array;
  mutable installed : Sim.t option;
  mutable t0_wall : float;
}

let current : t option ref = ref None

let now_s () = Unix.gettimeofday ()

let create () =
  {
    roles = Hashtbl.create 16;
    by_pid = [||];
    slice = fresh_acct ();
    heap_hwm = 0;
    envelopes = 0;
    packets = 0;
    pm_writes = 0;
    marks = Array.make 2 0.;
    installed = None;
    t0_wall = 0.;
  }

let enabled () = !current != None

(* The one attribution rule: a slice is charged to its owner's role, the
   spawn name without its [cpu<i>:] prefix and with the last digit run of
   each [:]-part (and a [-] before it) dropped as the instance number:
   [cpu2:$ADP1:flusher] and [cpu3:$ADP2:flusher] share [$ADP:flusher],
   [$DP2-03:worker] is [$DP2:worker] and [vol:$AUDIT1M] is
   [vol:$AUDITM]. *)
let role name =
  let digit p i = p.[i] >= '0' && p.[i] <= '9' in
  let strip p =
    let n = String.length p in
    let stop = ref n in
    while !stop > 0 && not (digit p (!stop - 1)) do
      decr stop
    done;
    let start = ref !stop in
    while !start > 0 && digit p (!start - 1) do
      decr start
    done;
    if !start > 0 && p.[!start - 1] = '-' then decr start;
    String.sub p 0 !start ^ String.sub p !stop (n - !stop)
  in
  match List.map strip (String.split_on_char ':' name) with
  | "cpu" :: (_ :: _ as rest) -> String.concat ":" rest
  | parts -> String.concat ":" parts

(* Each owner's account is found once; later slices index an array. *)
let account p sim owner =
  let i = (owner : Sim.pid :> int) in
  let len = Array.length p.by_pid in
  if i >= len then begin
    let a = Array.make (max (i + 1) (2 * len)) None in
    Array.blit p.by_pid 0 a 0 len;
    p.by_pid <- a
  end;
  match p.by_pid.(i) with
  | Some a -> a
  | None ->
      let name =
        match Sim.process_name sim owner with
        | n -> role n
        | exception Invalid_argument _ -> "toplevel"
      in
      let a =
        match Hashtbl.find_opt p.roles name with
        | Some a -> a
        | None ->
            let a = fresh_acct () in
            Hashtbl.add p.roles name a;
            a
      in
      p.by_pid.(i) <- Some a;
      a

let install p sim =
  (match !current with
  | Some _ -> invalid_arg "Prof.install: a profiler is already installed"
  | None -> ());
  p.installed <- Some sim;
  p.by_pid <- [||];
  p.t0_wall <- now_s ();
  current := Some p;
  (* Minor words come from [Gc.minor_words], which counts this domain's
     allocation exactly and, like the clock, allocates nothing to read;
     the minor count of [Gc.counters] does not repeat across identical
     runs on OCaml 5, and reading it allocates. *)
  let before owner qdepth =
    (* [qdepth] excludes the event just popped; count it back in. *)
    if qdepth + 1 > p.heap_hwm then p.heap_hwm <- qdepth + 1;
    p.slice <- account p sim owner;
    p.marks.(0) <- now_s ();
    p.marks.(1) <- Gc.minor_words ()
  in
  let after () =
    let mi = Gc.minor_words () in
    let a = p.slice in
    a.a_wall <- a.a_wall +. (now_s () -. p.marks.(0));
    a.a_minor <- a.a_minor +. (mi -. p.marks.(1));
    a.a_slices <- a.a_slices +. 1.
  in
  Sim.set_dispatch_hooks sim ~before ~after

let uninstall p =
  (match p.installed with
  | Some sim -> Sim.clear_dispatch_hooks sim
  | None -> ());
  p.installed <- None;
  (match !current with Some q when q == p -> current := None | _ -> ())

let simulate ?prof ~seed ~name main =
  let sim = Sim.create ~seed () in
  Option.iter (fun p -> install p sim) prof;
  let out = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter uninstall prof;
      Sim.discard sim)
    (fun () ->
      let (_ : Sim.pid) = Sim.spawn sim ~name (fun () -> out := Some (main sim)) in
      Sim.run sim;
      (!out, Sim.now sim))

(* Hot-path counters: one option check when disabled. *)

let bump_envelope () =
  match !current with None -> () | Some p -> p.envelopes <- p.envelopes + 1

let bump_packets n =
  match !current with None -> () | Some p -> p.packets <- p.packets + n

let bump_pm_write () =
  match !current with None -> () | Some p -> p.pm_writes <- p.pm_writes + 1

(* Report accessors: totals are sums over the role accounts. *)

let sum p field = Hashtbl.fold (fun _ a acc -> acc +. field a) p.roles 0.

let events p = int_of_float (sum p (fun a -> a.a_slices))

let wall_total p = sum p (fun a -> a.a_wall)

let minor_words p = sum p (fun a -> a.a_minor)

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
}

let layer_rows p =
  Hashtbl.fold
    (fun name a rows ->
      {
        l_name = name;
        l_events = int_of_float a.a_slices;
        l_wall = a.a_wall;
        l_minor = a.a_minor;
      }
      :: rows)
    p.roles []
  |> List.sort (fun r1 r2 -> compare r2.l_wall r1.l_wall)

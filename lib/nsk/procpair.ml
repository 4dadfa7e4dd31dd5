open Simkit

type config = { takeover_delay : Time.span; ack_bytes : int }

let default_config = { takeover_delay = Time.ms 500; ack_bytes = 64 }

type ('live, 'shadow, 'ckpt) t = {
  fabric : Servernet.Fabric.t;
  pp_name : string;
  cfg : config;
  apply : 'shadow -> 'ckpt -> 'shadow;
  move_port : Cpu.t -> unit;
  mutable body : unit -> unit;  (** adopt, then serve *)
  mutable on_takeover : unit -> unit;
  mutable shadow : 'shadow;
  mutable live : 'live option;
  mutable primary : Cpu.t;
  mutable backup : Cpu.t option;
  mutable primary_pid : Sim.pid option;
  mutable applying : bool;  (** the backup side is alive to apply checkpoints *)
  pending : ('ckpt * unit Ivar.t) Queue.t;  (** shipped, not yet applied *)
  mutable halted : bool;
  mutable takeovers : int;
  mutable outage : Time.span;
  mutable ckpts : int;
  mutable ckpt_bytes : int;
}

let sim t = Cpu.sim t.primary

let kill t = function Some pid when Sim.is_alive (sim t) pid -> Sim.kill (sim t) pid | _ -> ()

(* The backup applies checkpoints in a zero-delay callback, queued when
   the first shipped checkpoint finds the queue empty: the callback
   applies every checkpoint queued by then and acknowledges each, in
   order.  A backup that has died (promotion, [halt], its CPU's failure)
   drops what is queued and never acknowledges it. *)
let drain t =
  while not (Queue.is_empty t.pending) do
    let ckpt, ack = Queue.pop t.pending in
    t.shadow <- t.apply t.shadow ckpt;
    Ivar.fill ack ()
  done

let stop_applying t =
  t.applying <- false;
  Queue.clear t.pending

let rec spawn_primary t =
  let pid =
Cpu.spawn t.primary ~name:(t.pp_name ^ ":primary") t.body in
  t.primary_pid <- Some pid;
  Sim.on_exit (sim t) pid (fun _ -> if t.primary_pid = Some pid then primary_died t)

and primary_died t =
  t.primary_pid <- None;
  if not t.halted then begin
    match t.backup with
    | Some backup_cpu when t.applying ->
        let died_at = Sim.now (sim t) in
        Sim.at (sim t) ~after:t.cfg.takeover_delay (fun () ->
            if (not t.halted) && t.applying then begin
              (* Promote: the backup stops applying, the dead
                 primary's uncheckpointed state goes with it, the port
                 moves (failing its outstanding callers), and the serve
                 loop restarts against the checkpoint-built shadow. *)
              stop_applying t;
              t.primary <- backup_cpu;
              t.backup <- None;
              t.takeovers <- t.takeovers + 1;
              t.outage <- t.outage + (Sim.now (sim t) - died_at);
              t.live <- None;
              t.move_port backup_cpu;
              t.on_takeover ();
              spawn_primary t
            end
            else t.halted <- true)
    | _ -> t.halted <- true
  end

let create ~fabric ~name ~primary ~backup ?(config = default_config) ~port ~shadow ~apply () =
  {
    fabric;
    pp_name = name;
    cfg = config;
    apply;
    move_port = (fun cpu -> Msgsys.move port ~cpu);
    body = ignore;
    on_takeover = ignore;
    shadow;
    live = None;
    primary;
    backup = Some backup;
    primary_pid = None;
    applying = false;
    pending = Queue.create ();
    halted = false;
    takeovers = 0;
    outage = 0;
    ckpts = 0;
    ckpt_bytes = 0;
  }

let start t ~adopt ?(on_takeover = ignore) serve =
  t.body <-
    (fun () ->
      let s = adopt t.shadow in
      t.live <- Some s;
      serve s);
  t.on_takeover <- on_takeover;
  spawn_primary t;
  Option.iter
    (fun backup ->
      t.applying <- Cpu.is_up backup;
      Cpu.on_failure backup (fun () -> stop_applying t))
    t.backup

let view t = match t.live with Some s -> s | None -> t.shadow

let live t = t.live

let shadow t = t.shadow

(* The backup is whatever still applies checkpoints: a backup CPU that
   fails and restarts comes back empty, with no shadow and no drain, so
   it is not a backup again. *)
let checkpoint t ?(bytes = 256) ckpt =
  if t.applying then begin
    t.ckpts <- t.ckpts + 1;
    t.ckpt_bytes <- t.ckpt_bytes + bytes;
    (* Ship the state delta... *)
    Sim.sleep (Servernet.Fabric.transfer_time t.fabric ~bytes);
    if t.applying then begin
      let ack = Ivar.create () in
      Queue.push (ckpt, ack) t.pending;
      if Queue.length t.pending = 1 then Sim.at (sim t) ~after:0 (fun () -> drain t);
      (* ... and wait for the backup to acknowledge before externalizing. *)
      match Ivar.read_timeout ack t.cfg.takeover_delay with
      | Some () -> Sim.sleep (Servernet.Fabric.transfer_time t.fabric ~bytes:t.cfg.ack_bytes)
      | None -> ()
    end
  end

let primary_cpu t = t.primary

let has_backup t = t.applying

let is_halted t = t.halted

let takeovers t = t.takeovers

let outage_time t = t.outage

let checkpoints_sent t = t.ckpts

let checkpoint_bytes t = t.ckpt_bytes

let kill_primary t = kill t t.primary_pid

let halt t =
  t.halted <- true;
  kill t t.primary_pid;
  stop_applying t

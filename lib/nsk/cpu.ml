open Simkit

type t = {
  cpu_sim : Sim.t;
  idx : int;
  ep : Servernet.Fabric.endpoint;
  mutable up : bool;
  mutable residents : Sim.pid list;
  mutable failure_hooks : (unit -> unit) list;
  mutable busy_until : Time.t;
  mutable busy : Time.span;
  probe : Probe.t option;
}

let create ?obs sim fabric ~index =
  let store = Servernet.Fabric.byte_store (1 lsl 20) in
  let ep = Servernet.Fabric.attach fabric ~name:"cpu" ~store in
  {
    cpu_sim = sim;
    idx = index;
    ep;
    up = true;
    residents = [];
    failure_hooks = [];
    busy_until = Time.zero;
    busy = 0;
    probe = Obs.probe obs ("cpu." ^ string_of_int index);
  }

let sim t = t.cpu_sim

let endpoint t = t.ep

let endpoint_id t = Servernet.Fabric.id t.ep

let is_up t = t.up

let spawn t ~name body =
  if not t.up then invalid_arg "Cpu.spawn: CPU is down";
  let pid = Sim.spawn t.cpu_sim ~name:(Printf.sprintf "cpu%d:%s" t.idx name) body in
  t.residents <- pid :: t.residents;
  (* Keep the resident list from growing without bound across short-lived
     processes. *)
  Sim.on_exit t.cpu_sim pid (fun _ ->
      t.residents <- List.filter (fun p -> p <> pid) t.residents);
  pid

let execute t span =
  if span < 0 then invalid_arg "Cpu.execute: negative span";
  let now = Sim.now t.cpu_sim in
  let start = max now t.busy_until in
  let finish = start + span in
  t.busy_until <- finish;
  t.busy <- t.busy + span;
  Obs.busy t.probe span;
  Sim.wait_until finish

let fail t =
  if t.up then begin
    t.up <- false;
    Servernet.Fabric.set_alive t.ep false;
    let victims = t.residents in
    t.residents <- [];
    List.iter (fun pid -> Sim.kill t.cpu_sim pid) victims;
    let hooks = t.failure_hooks in
    List.iter (fun h -> h ()) hooks
  end

let restart t =
  if not t.up then begin
    t.up <- true;
    Servernet.Fabric.set_alive t.ep true
  end

let on_failure t hook = t.failure_hooks <- hook :: t.failure_hooks

let busy_time t = t.busy

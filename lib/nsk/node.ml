open Simkit

type t = {
  node_sim : Sim.t;
  node_fabric : Servernet.Fabric.t;
  node_cpus : Cpu.t array;
  node_obs : Obs.t option;
}

let create sim ?fabric_config ?obs ~cpus () =
  if cpus <= 0 then invalid_arg "Node.create: need at least one CPU";
  let fabric = Servernet.Fabric.create sim ?config:fabric_config ?obs () in
  let node_cpus = Array.init cpus (fun index -> Cpu.create ?obs sim fabric ~index) in
  { node_sim = sim; node_fabric = fabric; node_cpus; node_obs = obs }

let fabric t = t.node_fabric

let cpu t i =
  if i < 0 || i >= Array.length t.node_cpus then invalid_arg "Node.cpu: bad index";
  t.node_cpus.(i)

let add_volume t ~name ?geometry ?cache ?scheduling () =
  Diskio.Volume.create t.node_sim ~name ?geometry ?cache ?scheduling ?obs:t.node_obs ()

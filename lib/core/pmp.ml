open Simkit
open Nsk
module Pages = Servernet.Fabric.Pages

type t = {
  pmp_name : string;
  mem : Pages.t;
  ep : Servernet.Fabric.endpoint;
  host : Cpu.t;
  mutable alive : bool;
}

(* DRAM-hosted: losing power drops every page. *)
let power_loss t =
  if t.alive then begin
    t.alive <- false;
    Servernet.Fabric.set_alive t.ep false;
    Pages.clear t.mem
  end

let create cpu fabric ~name ~capacity =
  if capacity <= 0 then invalid_arg "Pmp.create: capacity must be positive";
  let mem = Pages.create capacity in
  let ep = Servernet.Fabric.attach fabric ~name ~store:(Servernet.Fabric.pages_store mem) in
  let t = { pmp_name = name; mem; ep; host = cpu; alive = true } in
  (* The hosting process only pins the memory; data moves by RDMA without
     any PMP CPU involvement, exactly as the paper stresses. *)
  let pid = Cpu.spawn cpu ~name (fun () -> ignore (Mailbox.recv (Mailbox.create () : unit Mailbox.t))) in
  Sim.on_exit (Cpu.sim cpu) pid (fun _ -> power_loss t);
  t

let name t = t.pmp_name

let capacity t = Pages.size t.mem

let id t = Servernet.Fabric.id t.ep

let avt t = Servernet.Fabric.avt t.ep

let mem t = t.mem

let is_alive t = t.alive

let peek t ~off ~len =
  if off < 0 || len < 0 || off + len > capacity t then invalid_arg "Pmp.peek: out of range";
  Pages.read t.mem ~off ~len

(* Fault tolerance end to end:
     1. an NPMU of the mirrored pair loses power under write load
        (writes degrade but stay persistent; reads fail over);
     2. the PMM primary's CPU halts (the backup takes over with the
        checkpointed metadata);
     3. an ADP primary dies mid-benchmark (takeover with the
        checkpointed audit buffer; zero committed transactions lost).

     dune exec examples/fault_tolerance.exe *)

open Simkit
open Nsk
open Pm

let part1_and_2 () =
  let sim = Sim.create ~seed:0xFA17L () in
  let node = Node.create sim ~cpus:4 () in
  let fabric = Node.fabric node in
  let npmu_a = Npmu.create sim fabric ~name:"npmu-a" ~capacity:(8 * 1024 * 1024) in
  let npmu_b = Npmu.create sim fabric ~name:"npmu-b" ~capacity:(8 * 1024 * 1024) in
  let dev_a = Pmm.device_of_npmu npmu_a in
  let dev_b = Pmm.device_of_npmu npmu_b in
  Pmm.format dev_a dev_b;
  let pmm =
    Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Node.cpu node 0) ~backup_cpu:(Node.cpu node 1)
      ~primary_dev:dev_a ~mirror_dev:dev_b ()
  in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"app" (fun () ->
        let client = Pm_client.attach ~cpu:(Node.cpu node 2) ~fabric ~pmm:(Pmm.server pmm) () in
        let handle =
          match Pm_client.create_region client ~name:"ledger" ~size:65536 with
          | Ok h -> h
          | Error e -> failwith (Pm_types.error_to_string e)
        in
        (* Write load; halfway through, one device loses power. *)
        for i = 0 to 63 do
          if i = 32 then begin
            Npmu.power_loss npmu_a;
            Format.printf "[%a] npmu-a lost power mid-stream@." Time.pp (Sim.now sim)
          end;
          match Pm_client.write client handle ~off:(i * 1024) ~data:(Bytes.create 1024) with
          | Ok () -> ()
          | Error e -> failwith (Pm_types.error_to_string e)
        done;
        Format.printf "64 writes done; %d completed degraded (single copy)@."
          (Pm_client.degraded_writes client);
        (match Pm_client.read client handle ~off:(63 * 1024) ~len:16 with
        | Ok _ -> Format.printf "read failed over to the mirror: OK@."
        | Error e -> failwith (Pm_types.error_to_string e));
        Npmu.power_restore npmu_a;

        (* Now kill the PMM primary's CPU: the backup takes over. *)
        Cpu.fail (Node.cpu node 0);
        Sim.sleep (Time.sec 1);
        match Pm_client.open_region client ~name:"ledger" with
        | Ok _ ->
            Format.printf "PMM takeover transparent to clients (takeovers=%d, outage=%a)@."
              (Procpair.takeovers (Pmm.pair pmm))
              Time.pp
              (Procpair.outage_time (Pmm.pair pmm))
        | Error e -> failwith (Pm_types.error_to_string e))
  in
  Sim.run sim

let part3 () =
  Format.printf "@.ADP failover under benchmark load (disk mode):@.";
  let r = Workloads.Figures.failover_under_load ~records_per_driver:400 () in
  Format.printf "  committed before failure : %d@." r.Workloads.Figures.committed_before;
  Format.printf "  committed total          : %d@." r.Workloads.Figures.committed_total;
  Format.printf "  ADP takeovers            : %d@." r.Workloads.Figures.adp_takeovers;
  Format.printf "  lost transactions        : %d@." r.Workloads.Figures.lost_transactions;
  if r.Workloads.Figures.lost_transactions = 0 then
    Format.printf "  no committed work lost across the takeover.@."

let () =
  part1_and_2 ();
  part3 ()

(* Quickstart: the persistent-memory API end to end.

   Builds a ServerNet fabric with a mirrored pair of NPMUs, starts the
   PMM process pair, and from a client CPU: creates a region, writes
   synchronously, power-cycles both devices, restarts the manager cold,
   and reads the data back.

     dune exec examples/quickstart.exe *)

open Simkit
open Nsk
open Pm

let () =
  let sim = Sim.create ~seed:42L () in
  let node = Node.create sim ~cpus:4 () in
  let fabric = Node.fabric node in

  (* A mirrored pair of 16 MB NPMUs, factory-formatted. *)
  let npmu_a = Npmu.create sim fabric ~name:"npmu-a" ~capacity:(16 * 1024 * 1024) in
  let npmu_b = Npmu.create sim fabric ~name:"npmu-b" ~capacity:(16 * 1024 * 1024) in
  let dev_a = Pmm.device_of_npmu npmu_a in
  let dev_b = Pmm.device_of_npmu npmu_b in
  Pmm.format dev_a dev_b;

  (* The Persistent Memory Manager runs as a process pair on CPUs 0/1. *)
  let pmm =
    Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Node.cpu node 0) ~backup_cpu:(Node.cpu node 1)
      ~primary_dev:dev_a ~mirror_dev:dev_b ()
  in

  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"app" (fun () ->
        (* Attach from CPU 2 and create a region. *)
        let client = Pm_client.attach ~cpu:(Node.cpu node 2) ~fabric ~pmm:(Pmm.server pmm) () in
        let handle =
          match Pm_client.create_region client ~name:"greetings" ~size:4096 with
          | Ok h -> h
          | Error e -> failwith (Pm_types.error_to_string e)
        in
        Format.printf "created region: %a@." Pm_types.pp_region_info (Pm_client.info handle);

        (* Synchronous mirrored write: when this returns, the data is
           persistent on both devices. *)
        let message = Bytes.of_string "hello, persistent memory!" in
        let t0 = Sim.now sim in
        (match Pm_client.write client handle ~off:0 ~data:message with
        | Ok () -> Format.printf "write persisted in %a@." Time.pp (Sim.now sim - t0)
        | Error e -> failwith (Pm_types.error_to_string e));

        (* Power-cycle both devices and tear the manager down. *)
        Npmu.power_loss npmu_a;
        Npmu.power_loss npmu_b;
        Procpair.halt (Pmm.pair pmm);
        Format.printf "power lost on both NPMUs; PMM halted@.";
        Sim.sleep (Time.ms 10);
        Npmu.power_restore npmu_a;
        Npmu.power_restore npmu_b;

        (* A fresh PMM recovers the metadata from the devices... *)
        let pmm2 =
          Pmm.start ~fabric ~name:"$PMM2" ~primary_cpu:(Node.cpu node 2)
            ~backup_cpu:(Node.cpu node 3) ~primary_dev:dev_a ~mirror_dev:dev_b ()
        in
        let client2 =
          Pm_client.attach ~cpu:(Node.cpu node 3) ~fabric ~pmm:(Pmm.server pmm2) ()
        in
        (* ... and the region, and its contents, are still there. *)
        match Pm_client.open_region client2 ~name:"greetings" with
        | Error e -> failwith (Pm_types.error_to_string e)
        | Ok handle2 -> (
            match Pm_client.read client2 handle2 ~off:0 ~len:(Bytes.length message) with
            | Ok data ->
                Format.printf "after power cycle + cold restart: %S@." (Bytes.to_string data);
                (match Pmm.last_recovery_time pmm2 with
                | Some dt -> Format.printf "metadata recovery took %a@." Time.pp dt
                | None -> ());
                Format.printf "quickstart OK@."
            | Error e -> failwith (Pm_types.error_to_string e)))
  in
  Sim.run sim

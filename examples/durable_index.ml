(* A database index living in persistent memory (paper section 3.4).

   A writer maintains a copy-on-write B-tree inside a PM region: every
   insert is durable in microseconds, a reader on another CPU follows the
   same offsets with no marshalling, and after a full power cycle the
   index is simply still there — no rebuild, no audit scan.

     dune exec examples/durable_index.exe *)

open Simkit
open Nsk
open Pm

let () =
  let sim = Sim.create ~seed:0x1DEAL () in
  let node = Node.create sim ~cpus:4 () in
  let fabric = Node.fabric node in
  let npmu_a = Npmu.create sim fabric ~name:"npmu-a" ~capacity:(24 * 1024 * 1024) in
  let npmu_b = Npmu.create sim fabric ~name:"npmu-b" ~capacity:(24 * 1024 * 1024) in
  let dev_a = Pmm.device_of_npmu npmu_a in
  let dev_b = Pmm.device_of_npmu npmu_b in
  Pmm.format dev_a dev_b;
  let pmm =
    Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Node.cpu node 0) ~backup_cpu:(Node.cpu node 1)
      ~primary_dev:dev_a ~mirror_dev:dev_b ()
  in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"app" (fun () ->
        let writer = Pm_client.attach ~cpu:(Node.cpu node 2) ~fabric ~pmm:(Pmm.server pmm) () in
        let handle =
          match Pm_client.create_region writer ~name:"account-index" ~size:(16 * 1024 * 1024) with
          | Ok h -> h
          | Error e -> failwith (Pm_types.error_to_string e)
        in
        let ix =
          match Pm_index.create writer handle ~degree:8 () with
          | Ok ix -> ix
          | Error e -> failwith (Pm_types.error_to_string e)
        in
        (* Load 2000 account balances, timing the steady-state updates. *)
        let t0 = Sim.now sim in
        for account = 1 to 2000 do
          match Pm_index.insert ix ~key:account ~value:(1000 + account) with
          | Ok () -> ()
          | Error e -> failwith (Pm_types.error_to_string e)
        done;
        let per_op = (Sim.now sim - t0) / 2000 in
        Format.printf "2000 durable index inserts, %a each (height %d, %d KiB allocated)@."
          Time.pp per_op (Pm_index.height ix)
          (Pm_index.bytes_allocated ix / 1024);

        (* A reader on another CPU probes the same tree, zero fixup. *)
        let reader = Pm_client.attach ~cpu:(Node.cpu node 3) ~fabric ~pmm:(Pmm.server pmm) () in
        let rh =
          match Pm_client.open_region reader ~name:"account-index" with
          | Ok h -> h
          | Error e -> failwith (Pm_types.error_to_string e)
        in
        let rix =
          match Pm_index.open_existing reader rh with
          | Ok ix -> ix
          | Error e -> failwith (Pm_types.error_to_string e)
        in
        (match Pm_index.find rix ~key:1234 with
        | Ok (Some v) -> Format.printf "reader on CPU 3 sees account 1234 -> %d@." v
        | Ok None -> failwith "missing entry"
        | Error e -> failwith (Pm_types.error_to_string e));

        (* Power-cycle both devices: the index needs no rebuild. *)
        Npmu.power_loss npmu_a;
        Npmu.power_loss npmu_b;
        Npmu.power_restore npmu_a;
        Npmu.power_restore npmu_b;
        let t1 = Sim.now sim in
        match Pm_index.open_existing writer handle with
        | Error e -> failwith (Pm_types.error_to_string e)
        | Ok ix2 -> (
            match Pm_index.range ix2 ~lo:1 ~hi:5 with
            | Ok rows ->
                Format.printf "after power cycle: reopened in %a, %d entries, first rows %s@."
                  Time.pp (Sim.now sim - t1) (Pm_index.cardinal ix2)
                  (String.concat ", "
                     (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) rows));
                Format.printf "durable_index OK@."
            | Error e -> failwith (Pm_types.error_to_string e)))
  in
  Sim.run sim

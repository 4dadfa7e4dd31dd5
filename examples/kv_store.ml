(* A durable key-value store on persistent memory — the artifact a
   modern reader recognizes: pmemkv, twenty years early (paper section
   3.4's "durable information store completely integrated into the
   memory hierarchy").

   Every put is crash-consistent: value bytes land in the log, then the
   copy-on-write index commits with one small write.  Pull the plug
   anywhere and the store reopens to the last committed put.

     dune exec examples/kv_store.exe *)

open Simkit
open Nsk
open Pm

let () =
  let sim = Sim.create ~seed:0x6BEEL () in
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
        let c = Pm_client.attach ~cpu:(Node.cpu node 2) ~fabric ~pmm:(Pmm.server pmm) () in
        let index =
          match Pm_client.create_region c ~name:"kv-index" ~size:(16 * 1024 * 1024) with
          | Ok h -> h
          | Error e -> failwith (Pm_types.error_to_string e)
        in
        let log =
          match Pm_client.create_region c ~name:"kv-log" ~size:(4 * 1024 * 1024) with
          | Ok h -> h
          | Error e -> failwith (Pm_types.error_to_string e)
        in
        let kv =
          match Pm_kv.create c ~index ~log with
          | Ok kv -> kv
          | Error e -> failwith (Pm_types.error_to_string e)
        in
        let t0 = Sim.now sim in
        let n = 1000 in
        for i = 1 to n do
          let v = Bytes.of_string (Printf.sprintf "session-state-for-user-%06d" i) in
          match Pm_kv.put kv ~key:i v with
          | Ok () -> ()
          | Error e -> failwith (Pm_types.error_to_string e)
        done;
        Format.printf "%d durable puts, %a each (%d KiB of values)@." n Time.pp
          ((Sim.now sim - t0) / n)
          (Pm_kv.log_bytes_used kv / 1024);
        (match Pm_kv.delete kv ~key:500 with Ok () -> () | Error e -> failwith (Pm_types.error_to_string e));

        (* Crash. *)
        Npmu.power_loss npmu_a;
        Npmu.power_loss npmu_b;
        Npmu.power_restore npmu_a;
        Npmu.power_restore npmu_b;
        let kv2 =
          match Pm_kv.open_existing c ~index ~log with
          | Ok kv -> kv
          | Error e -> failwith (Pm_types.error_to_string e)
        in
        (match Pm_kv.get kv2 ~key:123 with
        | Ok (Some v) -> Format.printf "after power cycle, key 123 -> %S@." (Bytes.to_string v)
        | Ok None -> failwith "key lost"
        | Error e -> failwith (Pm_types.error_to_string e));
        (match Pm_kv.get kv2 ~key:500 with
        | Ok None -> Format.printf "deleted key 500 stays deleted@."
        | _ -> failwith "tombstone lost");
        match
          Pm_kv.fold_range kv2 ~lo:1 ~hi:10 ~init:0 ~f:(fun acc _ v -> acc + Bytes.length v)
        with
        | Ok bytes ->
            Format.printf "range fold over keys 1-10: %d value bytes@." bytes;
            Format.printf "kv_store OK@."
        | Error e -> failwith (Pm_types.error_to_string e))
  in
  Sim.run sim

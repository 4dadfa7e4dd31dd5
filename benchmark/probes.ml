(* Per-layer probes: the wall time of one public call on a fixed input,
   taken outside any workload.  Each is the median of several batches so
   a stray scheduler hiccup on the host does not decide the number. *)

open Simkit

let now = Unix.gettimeofday

let median_of batches f = Quantiles.median (List.init batches (fun _ -> f ()))

let fail what = failwith ("probe: " ^ what)

(* ns per dispatched event of a bare sleep/wake loop. *)
let event_ns ~n () =
  let sim = Sim.create () in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"sleeper" (fun () ->
        for _ = 1 to n do
          Sim.sleep 100
        done)
  in
  let t0 = now () in
  Sim.run sim;
  (now () -. t0) *. 1e9 /. float_of_int n

(* One request/reply round trip between two CPUs of a node. *)
let msgsys_call_us ~n () =
  let sim = Sim.create () in
  let node = Nsk.Node.create sim ~cpus:2 () in
  let caller = Nsk.Node.cpu node 0 and callee = Nsk.Node.cpu node 1 in
  let server : (int, int) Nsk.Msgsys.server =
    Nsk.Msgsys.create_server (Nsk.Node.fabric node) ~cpu:callee ~name:"$ECHO"
  in
  let (_ : Sim.pid) =
    Nsk.Cpu.spawn callee ~name:"echo" (fun () ->
        while true do
          let req, reply = Nsk.Msgsys.next_request server in
          reply req
        done)
  in
  let dt = ref 0. in
  let (_ : Sim.pid) =
    Nsk.Cpu.spawn caller ~name:"caller" (fun () ->
        let t0 = now () in
        for i = 1 to n do
          match Nsk.Msgsys.call server ~from:caller i with
          | Ok _ -> ()
          | Error _ -> fail "msgsys call failed"
        done;
        dt := now () -. t0)
  in
  Sim.run sim;
  !dt *. 1e6 /. float_of_int n

type rdma = { write_us : float; read_us : float; read_words : float }

(* 4 KiB RDMA writes then reads between a host and a device endpoint;
   [read_words] is the minor words one read allocates. *)
let rdma_4k ~n () =
  let open Servernet in
  let sim = Sim.create () in
  let fabric = Fabric.create sim () in
  let slots = 64 and page = 4096 in
  let host = Fabric.attach fabric ~name:"host" ~store:(Fabric.byte_store page) in
  let dev = Fabric.attach fabric ~name:"dev" ~store:(Fabric.byte_store (slots * page)) in
  (match
     Avt.map (Fabric.avt dev) ~net_base:0 ~length:(slots * page) ~phys_base:0
       ~access:(Avt.read_write Avt.Any_initiator)
   with
  | Ok () -> ()
  | Error _ -> fail "avt map");
  let dst = Fabric.id dev in
  let data = Bytes.make page 'r' in
  let out = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"rdma" (fun () ->
        let t0 = now () in
        for i = 0 to n - 1 do
          match Fabric.rdma_write fabric ~src:host ~dst ~addr:(i mod slots * page) ~data with
          | Ok () -> ()
          | Error _ -> fail "rdma write"
        done;
        let t1 = now () in
        let w0 = Gc.minor_words () in
        for i = 0 to n - 1 do
          match Fabric.rdma_read fabric ~src:host ~dst ~addr:(i mod slots * page) ~len:page with
          | Ok _ -> ()
          | Error _ -> fail "rdma read"
        done;
        let w1 = Gc.minor_words () in
        let per x = x /. float_of_int n in
        out :=
          Some
            {
              write_us = per ((t1 -. t0) *. 1e6);
              read_us = per ((now () -. t1) *. 1e6);
              read_words = per (w1 -. w0);
            })
  in
  Sim.run sim;
  match !out with Some r -> r | None -> fail "rdma loop did not finish"

(* One persistent-memory device of the PM configuration's capacity. *)
let npmu_create_ms () =
  Gc.full_major ();
  let sim = Sim.create () in
  let fabric = Servernet.Fabric.create sim () in
  let t0 = now () in
  let dev =
    Pm.Npmu.create sim fabric ~name:"probe" ~capacity:Tp.System.pm_config.Tp.System.pm_capacity
  in
  let dt = now () -. t0 in
  ignore (Sys.opaque_identity dev);
  dt *. 1e3

let crc32_mb_s ~n () =
  let buf = Bytes.init 65_536 (fun i -> Char.chr (i land 255)) in
  let t0 = now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Pm.Crc32.bytes buf))
  done;
  float_of_int (n * Bytes.length buf) /. 1e6 /. (now () -. t0)

let volume_write_4k_us ~n () =
  let sim = Sim.create () in
  let vol = Diskio.Volume.create sim ~name:"$PROBE" () in
  let dt = ref 0. in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"writer" (fun () ->
        let t0 = now () in
        for i = 0 to n - 1 do
          match Diskio.Volume.write vol ~block:(i mod 1024 * 8) ~len:4096 with
          | Ok () -> ()
          | Error _ -> fail "volume write"
        done;
        dt := now () -. t0)
  in
  Sim.run sim;
  !dt *. 1e6 /. float_of_int n

let btree_insert_ns ~n () =
  let t = Tp.Btree.create () in
  let t0 = now () in
  for i = 0 to n - 1 do
    ignore (Tp.Btree.insert t ~key:(i * 2654435761 land 0x3FFFFFFF) i)
  done;
  (now () -. t0) *. 1e9 /. float_of_int n

let audit_encode_ns ~n () =
  let record =
    Tp.Audit.Update
      { txn = 1; file = 0; partition = 3; key = 42; payload_len = 4096; payload_crc = 7; before_len = 0 }
  in
  let t0 = now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Tp.Audit.encode_to_bytes record))
  done;
  (now () -. t0) *. 1e9 /. float_of_int n

type pm_system = { client_write_us : float; recovery_ms : float }

(* A PM system filled by a small hot-stock run, then crashed: the wall
   time of [Recovery.run] over its trails, and of a mirrored 4 KiB
   [Pm_client.write] into a scratch region once it is back. *)
let pm_system ~records ~writes () =
  let sim = Sim.create () in
  let out = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"pm-probe" (fun () ->
        let system = Tp.System.build sim Tp.System.pm_config in
        let (_ : Workloads.Hot_stock.result) =
          Workloads.Hot_stock.run system
            (Workloads.Hot_stock.scaled_params ~drivers:2 ~inserts_per_txn:8
               ~records_per_driver:records)
        in
        Array.iter (fun d -> Tp.Dp2.load_table d []) (Tp.System.dp2s system);
        let t0 = now () in
        (match Tp.Recovery.run system with Ok _ -> () | Error e -> fail ("recovery: " ^ e));
        let recovery_ms = (now () -. t0) *. 1e3 in
        let client =
          match Tp.System.pm_clients system with c :: _ -> c | [] -> fail "no PM client"
        in
        let slots = 64 in
        match Pm.Pm_client.create_region client ~name:"bench-probe" ~size:(slots * 4096) with
        | Error _ -> fail "create_region"
        | Ok handle ->
            let data = Bytes.make 4096 'w' in
            let t0 = now () in
            for i = 0 to writes - 1 do
              match Pm.Pm_client.write client handle ~off:(i mod slots * 4096) ~data with
              | Ok () -> ()
              | Error _ -> fail "pm client write"
            done;
            let client_write_us = (now () -. t0) *. 1e6 /. float_of_int writes in
            out := Some { client_write_us; recovery_ms })
  in
  Sim.run sim;
  match !out with Some r -> r | None -> fail "pm system did not finish"

(* Every probe, as (per-layer metric name, value).  [quick] shrinks the
   batches for the smoke run. *)
let all ~quick =
  let k n = if quick then max 1 (n / 50) else n in
  let batches = if quick then 1 else 5 in
  let rdma = List.init batches (fun _ -> rdma_4k ~n:(k 2_000) ()) in
  let rdma_med f = Quantiles.median (List.map f rdma) in
  let pm = List.init (if quick then 1 else 3) (fun _ -> pm_system ~records:(if quick then 40 else 2_000) ~writes:(k 1_000) ()) in
  let pm_med f = Quantiles.median (List.map f pm) in
  [
    ("simkit.event_ns", median_of batches (event_ns ~n:(k 200_000)));
    ("nsk.msgsys_call_us", median_of batches (msgsys_call_us ~n:(k 5_000)));
    ("servernet.rdma_write_4k_us", rdma_med (fun r -> r.write_us));
    ("servernet.rdma_read_4k_us", rdma_med (fun r -> r.read_us));
    ("servernet.rdma_read_4k_words", rdma_med (fun r -> r.read_words));
    ("pm.npmu_create_ms", median_of (if quick then 1 else 3) npmu_create_ms);
    ("pm.crc32_mb_s", median_of batches (crc32_mb_s ~n:(k 200)));
    ("pm.client_write_4k_us", pm_med (fun r -> r.client_write_us));
    ("diskio.volume_write_4k_us", median_of batches (volume_write_4k_us ~n:(k 5_000)));
    ("tp.btree_insert_ns", median_of batches (btree_insert_ns ~n:(k 200_000)));
    ("tp.audit_encode_ns", median_of batches (audit_encode_ns ~n:(k 10_000)));
    ("tp.recovery_ms", pm_med (fun r -> r.recovery_ms));
  ]

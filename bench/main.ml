(* Benchmark executable: bechamel wall-clock micro-benchmarks of the
   substrate — one Test.make per operation class, including one per paper
   figure (the cost of simulating a figure cell).  The figures themselves
   are printed by [odsbench fig1], [odsbench fig2] and [odsbench all]. *)

open Bechamel
open Toolkit

(* Non-zero data, so the zero-block skip does not apply. *)
let bench_crc32 =
  let buf = Bytes.init 4096 (fun i -> Char.chr (i land 255)) in
  Test.make ~name:"crc32/4KiB" (Staged.stage (fun () -> Pm.Crc32.bytes buf))

(* A scrub chunk of never-written PM: 64 zero blocks. *)
let bench_crc32_zero =
  let buf = Bytes.make (256 * 1024) '\000' in
  Test.make ~name:"crc32/256KiB-zero" (Staged.stage (fun () -> Pm.Crc32.bytes buf))

(* The divergence audit over a never-written chunk of two devices. *)
let bench_pages_equal =
  let a = Servernet.Fabric.Pages.create (1 lsl 20) and b = Servernet.Fabric.Pages.create (1 lsl 20) in
  Test.make ~name:"pages/equal-256KiB-untouched"
    (Staged.stage (fun () -> Servernet.Fabric.Pages.equal a b ~off:4096 ~len:(256 * 1024)))

(* An audit trail's memory: a 60-byte frame head every 4,156 bytes, the
   rest padding, written into a fresh store. *)
let bench_pages_write_heads =
  let head = Bytes.make 60 'h' in
  Test.make ~name:"pages/write-heads-1MiB"
    (Staged.stage (fun () ->
         let p = Servernet.Fabric.Pages.create (1 lsl 20) in
         let off = ref 0 in
         while !off + 4156 <= 1 lsl 20 do
           Servernet.Fabric.Pages.write ~pad:(4156 - 60) p ~off:!off ~data:head;
           off := !off + 4156
         done))

(* The page-by-page walk of a read over written memory. *)
let bench_pages_read_resident =
  let p = Servernet.Fabric.Pages.create (1 lsl 20) and dst = Bytes.create (64 * 1024) in
  Servernet.Fabric.Pages.write p ~off:0 ~data:(Bytes.make (64 * 1024) 'r');
  Test.make ~name:"pages/read_into-64KiB-resident"
    (Staged.stage (fun () ->
         Servernet.Fabric.Pages.read_into p ~off:0 ~len:(64 * 1024) ~dst ~dst_off:0))

let bench_audit_encode =
  let record =
    Tp.Audit.Update
      { txn = 1; file = 0; partition = 3; key = 42; payload_len = 4096; payload_crc = 7; before_len = 0 }
  in
  Test.make ~name:"audit/encode-4K-update" (Staged.stage (fun () -> Tp.Audit.encode_to_bytes record))

let bench_audit_decode =
  let bytes =
    Tp.Audit.encode_to_bytes
      (Tp.Audit.Update
         { txn = 1; file = 0; partition = 3; key = 42; payload_len = 4096; payload_crc = 7; before_len = 0 })
  in
  Test.make ~name:"audit/decode-4K-update" (Staged.stage (fun () -> Tp.Audit.decode bytes ~pos:0))

let bench_heap =
  Test.make ~name:"heap/push-pop-256"
    (Staged.stage (fun () ->
         let h = Simkit.Heap.create () in
         for i = 0 to 255 do
           ignore (Simkit.Heap.push h ~key:((i * 37) mod 97) ~seq:i i : int Simkit.Heap.entry)
         done;
         while not (Simkit.Heap.is_empty h) do
           ignore (Simkit.Heap.pop h : int Simkit.Heap.entry)
         done))

let bench_rng =
  let rng = Simkit.Rng.create 1L in
  Test.make ~name:"rng/int" (Staged.stage (fun () -> Simkit.Rng.int rng 1000))

let bench_event_loop =
  Test.make ~name:"sim/1000-sleep-wakeups"
    (Staged.stage (fun () ->
         let sim = Simkit.Sim.create () in
         let (_ : Simkit.Sim.pid) =
           Simkit.Sim.spawn sim ~name:"sleeper" (fun () ->
               for _ = 1 to 1000 do
                 Simkit.Sim.sleep 100
               done)
         in
         Simkit.Sim.run sim))

(* The deadline-timer pattern of process-pair checkpoints and timed RPCs:
   every 1 s timeout is cancelled because the value arrives first, while
   a few live timers stay queued behind it. *)
let bench_cancelled_timeouts =
  Test.make ~name:"sim/1000-cancelled-timeouts"
    (Staged.stage (fun () ->
         let sim = Simkit.Sim.create () in
         for i = 1 to 4 do
           Simkit.Sim.at sim ~after:(Simkit.Time.sec (10 * i)) ignore
         done;
         let (_ : Simkit.Sim.pid) =
           Simkit.Sim.spawn sim ~name:"waiter" (fun () ->
               for i = 1 to 1000 do
                 let iv = Simkit.Ivar.create () in
                 Simkit.Sim.at sim ~after:100 (fun () -> Simkit.Ivar.fill iv i);
                 ignore (Simkit.Ivar.read_timeout iv (Simkit.Time.sec 1) : int option)
               done)
         in
         Simkit.Sim.run sim))

let bench_rdma =
  Test.make ~name:"fabric/setup+rdma-write-4K"
    (Staged.stage (fun () ->
         let sim = Simkit.Sim.create () in
         let fabric = Servernet.Fabric.create sim () in
         let host =
           Servernet.Fabric.attach fabric ~name:"h" ~store:(Servernet.Fabric.byte_store 64)
         in
         let dev =
           Servernet.Fabric.attach fabric ~name:"d" ~store:(Servernet.Fabric.byte_store 8192)
         in
         (match
            Servernet.Avt.map (Servernet.Fabric.avt dev) ~net_base:0 ~length:8192 ~phys_base:0
              ~access:(Servernet.Avt.read_write Servernet.Avt.Any_initiator)
          with
         | Ok () -> ()
         | Error e -> failwith e);
         let (_ : Simkit.Sim.pid) =
           Simkit.Sim.spawn sim ~name:"w" (fun () ->
               match
                 Servernet.Fabric.rdma_write fabric ~src:host ~dst:(Servernet.Fabric.id dev)
                   ~addr:0 ~data:(Bytes.create 4096)
               with
               | Ok () -> ()
               | Error _ -> failwith "rdma")
         in
         Simkit.Sim.run sim))

(* One Test.make per paper figure: the wall-clock cost of simulating a
   small cell of that figure. *)
let bench_figure1_cell =
  Test.make ~name:"FIGURE-1/cell-disk-1driver-64txn"
    (Staged.stage (fun () ->
         ignore
           (Workloads.Figures.run_cell ~mode:Tp.System.Disk_audit ~drivers:1 ~inserts_per_txn:8
              ~records_per_driver:64 ())))

let bench_figure2_cell =
  Test.make ~name:"FIGURE-2/cell-pm-1driver-64txn"
    (Staged.stage (fun () ->
         ignore
           (Workloads.Figures.run_cell ~mode:Tp.System.Pm_audit
              ~config:
                { Tp.System.pm_config with Tp.System.pm_capacity = 8 * 1024 * 1024; pm_region_bytes = 1024 * 1024 }
              ~drivers:1 ~inserts_per_txn:8 ~records_per_driver:64 ())))

let bench_btree =
  Test.make ~name:"btree/insert-find-1k"
    (Staged.stage (fun () ->
         let t = Tp.Btree.create ~degree:8 () in
         for i = 0 to 999 do
           ignore (Tp.Btree.insert t ~key:((i * 2654435761) land 0xFFFFF) i)
         done;
         for i = 0 to 999 do
           ignore (Tp.Btree.find t ~key:((i * 2654435761) land 0xFFFFF))
         done))

let micro_tests =
  Test.make_grouped ~name:"pmods"
    [
      bench_btree;
      bench_crc32;
      bench_crc32_zero;
      bench_pages_equal;
      bench_pages_write_heads;
      bench_pages_read_resident;
      bench_audit_encode;
      bench_audit_decode;
      bench_heap;
      bench_rng;
      bench_event_loop;
      bench_cancelled_timeouts;
      bench_rdma;
      bench_figure1_cell;
      bench_figure2_cell;
    ]

let run_micro () =
  print_endline "== micro-benchmarks (wall clock, bechamel OLS ns/run) ==";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] micro_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) ->
          if est > 1e6 then Printf.printf "  %-42s %12.3f ms/run\n" name (est /. 1e6)
          else if est > 1e3 then Printf.printf "  %-42s %12.3f us/run\n" name (est /. 1e3)
          else Printf.printf "  %-42s %12.1f ns/run\n" name est
      | _ -> Printf.printf "  %-42s (no estimate)\n" name)
    rows

let () =
  run_micro ();
  print_endline "bench: done"

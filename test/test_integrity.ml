(* Storage-integrity tests: silent-corruption injection (decay, torn
   stores), the PMM scrubber, verified reads with read-repair, the
   torn-tail recovery contract, and the corruption drill. *)

open Simkit
open Nsk
open Pm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Crc32: known answers and a bitwise reference --- *)

let test_crc32_known_answers () =
  (* IEEE 802.3 reference vectors. *)
  Alcotest.(check int32) "check value" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "");
  Alcotest.(check int32) "a" 0xE8B7BE43l (Crc32.string "a");
  Alcotest.(check int32) "abc" 0x352441C2l (Crc32.string "abc");
  (* Whole zero blocks, the scrubber's common case. *)
  Alcotest.(check int32) "4 KiB of zeros" 0xC71C0011l (Crc32.bytes (Bytes.make 4096 '\000'));
  Alcotest.(check int32) "256 KiB of zeros" 0xE20EEA22l
    (Crc32.bytes (Bytes.make (256 * 1024) '\000'))

(* The textbook definition, one bit at a time on Int32: no table to get
   wrong in the same way as the one under test. *)
let crc32_bitwise s =
  let crc = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      crc := Int32.logxor !crc (Int32.of_int (Char.code ch));
      for _ = 1 to 8 do
        let lsb = Int32.logand !crc 1l in
        crc := Int32.shift_right_logical !crc 1;
        if lsb <> 0l then crc := Int32.logxor !crc 0xEDB88320l
      done)
    s;
  Int32.logxor !crc 0xFFFFFFFFl

(* Half the inputs are random bytes; the other half splice zero runs of
   4-20 KiB between short random pieces, so the runs sit at unaligned
   offsets, the input ends raggedly, and a random slice usually starts
   and ends inside a run: the zero-block skip and its seams.  Stray
   bytes land within 40 bytes of a 4 KiB boundary counted from the slice
   start or from 0, where a block's zero test begins and ends. *)
let gen_crc_case =
  let open QCheck.Gen in
  let zero_run = map (fun n -> String.make n '\000') (int_range 4096 20480) in
  let spliced =
    map (String.concat "") (list_size (int_range 1 4) (oneof [ zero_run; string_size (int_range 0 300) ]))
  in
  frequency [ (1, string_size (int_range 0 9000)); (1, spliced) ] >>= fun s ->
  let n = String.length s in
  int_bound n >>= fun pos ->
  int_bound (n - pos) >>= fun len ->
  let stray =
    quad (oneofl [ 0; pos ]) (int_range 0 5) (int_range (-40) 40) (map Char.chr (int_range 1 255))
  in
  map
    (fun strays ->
      let b = Bytes.of_string s in
      List.iter
        (fun (base, k, d, c) ->
          let i = base + (k * 4096) + d in
          if i >= 0 && i < n then Bytes.set b i c)
        strays;
      (Bytes.to_string b, pos, len))
    (list_size (int_range 0 3) stray)

let prop_crc32_matches_bitwise =
  QCheck.Test.make ~name:"crc32 == bitwise reference on any slice" ~count:300
    (QCheck.make
       ~print:(fun (s, pos, len) ->
         Printf.sprintf "%d bytes (%d zero), slice %d+%d" (String.length s)
           (String.fold_left (fun k c -> if c = '\000' then k + 1 else k) 0 s)
           pos len)
       gen_crc_case)
    (fun (s, pos, len) ->
      Crc32.string s = crc32_bitwise s
      && Crc32.sub (Bytes.of_string s) ~pos ~len = crc32_bitwise (String.sub s pos len))

(* --- Topology (same shape as test_pm's) --- *)

type topo = {
  sim : Sim.t;
  node : Node.t;
  npmu_a : Npmu.t;
  npmu_b : Npmu.t;
  pmm : Pmm.t;
}

let make_topo ?(capacity = 1 lsl 20) () =
  let sim = Sim.create ~seed:0x517BL () in
  let node = Node.create sim ~cpus:4 () in
  let fabric = Node.fabric node in
  let npmu_a = Npmu.create sim fabric ~name:"npmu-a" ~capacity in
  let npmu_b = Npmu.create sim fabric ~name:"npmu-b" ~capacity in
  let dev_a = Pmm.device_of_npmu npmu_a in
  let dev_b = Pmm.device_of_npmu npmu_b in
  Pmm.format dev_a dev_b;
  let pmm =
    Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Node.cpu node 0)
      ~backup_cpu:(Node.cpu node 1) ~primary_dev:dev_a ~mirror_dev:dev_b ()
  in
  { sim; node; npmu_a; npmu_b; pmm }

let client ?config topo cpu_idx =
  Pm_client.attach ~cpu:(Node.cpu topo.node cpu_idx) ~fabric:(Node.fabric topo.node)
    ~pmm:(Pmm.server topo.pmm) ?config ()

let verified_config =
  { Pm_client.default_config with Pm_client.verified_reads = true }

(* A scrubber cadence fast enough that a few simulated milliseconds
   cover many passes over the small test regions. *)
let fast_scrub = Time.us 10

(* --- Npmu decay and torn stores --- *)

let test_npmu_decay_flips_bits () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 256 'x'));
      let dev_off = info.Pm_types.net_base + 16 in
      Npmu.decay topo.npmu_b ~off:dev_off ~bits:16;
      check_bool "mirror diverged" true
        (Npmu.peek topo.npmu_a ~off:dev_off ~len:2
        <> Npmu.peek topo.npmu_b ~off:dev_off ~len:2);
      check_int "decay events" 1 (Npmu.decay_events topo.npmu_b);
      check_int "bits flipped" 16 (Npmu.bits_flipped topo.npmu_b);
      (* Decay is silent: a plain read still serves the primary fine. *)
      match Pm_client.read c h ~off:0 ~len:256 with
      | Ok data -> check_str "primary intact" (String.make 256 'x') (Bytes.to_string data)
      | Error _ -> Alcotest.fail "read failed")

let test_npmu_decay_validates () =
  let topo = make_topo ~capacity:65536 () in
  Alcotest.check_raises "bits must be positive"
    (Invalid_argument "Npmu.decay: bits must be positive") (fun () ->
      Npmu.decay topo.npmu_a ~off:0 ~bits:0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Npmu.decay: out of range") (fun () ->
      Npmu.decay topo.npmu_a ~off:65530 ~bits:128)

let test_npmu_tear_last_write () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 128 'w'));
      (match Npmu.tear_last_write topo.npmu_b with
      | None -> Alcotest.fail "nothing torn despite a completed write"
      | Some (off, len) ->
          check_int "tears the trailing half" 64 len;
          check_int "at the write's midpoint" (info.Pm_types.net_base + 64) off);
      check_int "torn counter" 1 (Npmu.torn_writes topo.npmu_b);
      (* Primary copy untouched: the pair diverges. *)
      check_bool "pair diverged" true
        (Npmu.peek topo.npmu_a ~off:info.Pm_types.net_base ~len:128
        <> Npmu.peek topo.npmu_b ~off:info.Pm_types.net_base ~len:128))

let test_npmu_tear_without_write () =
  let sim = Sim.create () in
  let node = Node.create sim ~cpus:2 () in
  let d = Npmu.create sim (Node.fabric node) ~name:"fresh" ~capacity:4096 in
  check_bool "nothing to tear" true (Npmu.tear_last_write d = None);
  check_int "no torn counter" 0 (Npmu.torn_writes d)

(* Device memory is page-sparse: injection must work on pages no write
   has created yet, and a tear must follow a write across a page edge. *)
let test_npmu_injection_on_fresh_pages () =
  let sim = Sim.create () in
  let node = Node.create sim ~cpus:2 () in
  let d = Npmu.create sim (Node.fabric node) ~name:"fresh" ~capacity:(1 lsl 20) in
  Npmu.decay d ~off:10_000 ~bits:12;
  check_str "decay flips bits of a never-written page" "\000\xFF\x0F\000"
    (Bytes.to_string (Npmu.peek d ~off:9_999 ~len:4));
  check_int "decay counted" 1 (Npmu.decay_events d);
  let page = Servernet.Fabric.Pages.page_size in
  let fabric = Node.fabric node in
  let host = Node.cpu node 0 in
  (match
     Servernet.Avt.map (Npmu.avt d) ~net_base:0 ~length:(1 lsl 20) ~phys_base:0
       ~access:(Servernet.Avt.read_write Servernet.Avt.Any_initiator)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "avt map");
  Test_util.run_in sim (fun () ->
      Test_util.check_result_ok "straddling write"
        (Servernet.Fabric.rdma_write fabric ~src:(Cpu.endpoint host) ~dst:(Npmu.id d)
           ~addr:((3 * page) - 8) ~data:(Bytes.make 32 '\000')));
  match Npmu.tear_last_write d with
  | None -> Alcotest.fail "nothing torn"
  | Some (off, len) ->
      check_int "tear starts mid-write" ((3 * page) + 8) off;
      check_int "tear covers the trailing half" 16 len;
      check_str "torn suffix, on the second page, garbled"
        (String.make 16 '\000' ^ String.make 16 '\x5A')
        (Bytes.to_string (Npmu.peek d ~off:((3 * page) - 8) ~len:32))

(* The device sees a padded write as one store of data plus pad: its
   byte counter and the tear target both cover the padding. *)
let test_npmu_counts_padding () =
  let sim = Sim.create () in
  let node = Node.create sim ~cpus:2 () in
  let d = Npmu.create sim (Node.fabric node) ~name:"pad" ~capacity:65536 in
  let fabric = Node.fabric node in
  let src = Cpu.endpoint (Node.cpu node 0) in
  (match
     Servernet.Avt.map (Npmu.avt d) ~net_base:0 ~length:65536 ~phys_base:0
       ~access:(Servernet.Avt.read_write Servernet.Avt.Any_initiator)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "avt map");
  Test_util.run_in sim (fun () ->
      Test_util.check_result_ok "padded write"
        (Servernet.Fabric.rdma_write ~pad:100 fabric ~src ~dst:(Npmu.id d) ~addr:1000
           ~data:(Bytes.make 28 'p')));
  check_int "bytes_written includes the pad" 128 (Npmu.bytes_written d);
  check_int "one store" 1 (Npmu.writes d);
  (match Npmu.tear_last_write d with
  | None -> Alcotest.fail "nothing torn"
  | Some (off, len) ->
      check_int "tear starts mid data+pad" 1064 off;
      check_int "tear covers the padded half" 64 len);
  check_str "the tear garbles padding too"
    (String.make 28 'p' ^ String.make 36 '\000' ^ String.make 64 '\x5A')
    (Bytes.to_string (Npmu.peek d ~off:1000 ~len:128))

(* --- Scrubber: detect, repair, quarantine --- *)

let test_scrubber_repairs_decayed_mirror () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 4096 'd'));
      Pmm.start_scrubber topo.pmm ~cpu:(Node.cpu topo.node 0) ~interval:fast_scrub ();
      (* Let a clean pass record the chunk in the checksum table. *)
      Sim.sleep (Time.ms 5);
      check_bool "table populated" true (Pmm.scrub_table_entries topo.pmm >= 1);
      Npmu.decay topo.npmu_b ~off:(info.Pm_types.net_base + 100) ~bits:24;
      Sim.sleep (Time.ms 5);
      Pmm.stop_scrubber topo.pmm;
      check_bool "repair counted" true (Pmm.scrub_repairs topo.pmm >= 1);
      check_str "mirror healed from primary"
        (Bytes.to_string (Npmu.peek topo.npmu_a ~off:info.Pm_types.net_base ~len:4096))
        (Bytes.to_string (Npmu.peek topo.npmu_b ~off:info.Pm_types.net_base ~len:4096));
      check_bool "audit clean" true (Pmm.divergent_chunks topo.pmm = []))

let test_scrubber_quarantines_double_corruption () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 4096 'q'));
      Pmm.start_scrubber topo.pmm ~cpu:(Node.cpu topo.node 0) ~interval:fast_scrub ();
      Sim.sleep (Time.ms 5);
      (* Both copies rot differently: no copy matches the table, so the
         scrubber cannot arbitrate and must quarantine after repeated
         strikes rather than guess. *)
      Npmu.decay topo.npmu_a ~off:(info.Pm_types.net_base + 40) ~bits:8;
      Npmu.decay topo.npmu_b ~off:(info.Pm_types.net_base + 80) ~bits:16;
      Sim.sleep (Time.ms 10);
      Pmm.stop_scrubber topo.pmm;
      check_bool "quarantined" true (Pmm.scrub_quarantined topo.pmm >= 1);
      check_bool "surfaced for the operator" true
        (Pmm.scrub_quarantined_chunks topo.pmm <> []);
      check_int "never guessed a repair" 0 (Pmm.scrub_repairs topo.pmm);
      (* The audit excludes quarantined chunks: they are accounted for,
         not silent. *)
      check_bool "audit excludes quarantined" true (Pmm.divergent_chunks topo.pmm = []))

let test_scrubber_restart_rejected () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      Pmm.start_scrubber topo.pmm ~cpu:(Node.cpu topo.node 0) ~interval:fast_scrub ();
      Alcotest.check_raises "double start"
        (Invalid_argument "Pmm.start_scrubber: already running") (fun () ->
          Pmm.start_scrubber topo.pmm ~cpu:(Node.cpu topo.node 0) ~interval:fast_scrub ());
      Pmm.stop_scrubber topo.pmm;
      Pmm.stop_scrubber topo.pmm (* idempotent *))

(* The scrubber's checksum table sits behind the region table in each
   metadata slot: slot [generation mod 2] of both devices, from byte
   [meta_reserve/8] of the slot.  These tests write crafted tables there
   (maintenance path) and check what a restarted manager's scrubber
   adopts; a quarantined chunk stays quarantined across passes, so the
   adopted list shows which generation won. *)
let scrub_chunk = 256 * 1024

let poke_scrub_table npmu ~generation quarantined =
  let off = (generation mod 2 * (Pmm.meta_reserve / 2)) + (Pmm.meta_reserve / 8) in
  Npmu.poke npmu ~off
    ~data:(Pmm.scrub_image ~generation ~chunk_bytes:scrub_chunk [] quarantined)

let reloaded_quarantine ~tear_newest =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create"
          (Pm_client.create_region c ~name:"r" ~size:(2 * scrub_chunk))
      in
      let base = (Pm_client.info h).Pm_types.net_base in
      Procpair.halt (Pmm.pair topo.pmm);
      Sim.sleep (Time.ms 1);
      List.iter
        (fun npmu -> poke_scrub_table npmu ~generation:4 [ (base, scrub_chunk) ])
        [ topo.npmu_a; topo.npmu_b ];
      (* Generation 5 only on the mirror: the reload reads all four
         candidates, not just the primary's. *)
      poke_scrub_table topo.npmu_b ~generation:5 [ (base + scrub_chunk, scrub_chunk) ];
      if tear_newest then begin
        poke_scrub_table topo.npmu_a ~generation:5 [ (base + scrub_chunk, scrub_chunk) ];
        let torn = (Pmm.meta_reserve / 2) + (Pmm.meta_reserve / 8) in
        List.iter
          (fun npmu -> Npmu.poke npmu ~off:torn ~data:(Bytes.make 64 '\xFF'))
          [ topo.npmu_a; topo.npmu_b ]
      end;
      let pmm2 =
        Pmm.start ~fabric:(Node.fabric topo.node) ~name:"$PMM2"
          ~primary_cpu:(Node.cpu topo.node 2) ~backup_cpu:(Node.cpu topo.node 3)
          ~primary_dev:(Pmm.device_of_npmu topo.npmu_a)
          ~mirror_dev:(Pmm.device_of_npmu topo.npmu_b) ()
      in
      Pmm.start_scrubber pmm2 ~cpu:(Node.cpu topo.node 2) ~interval:fast_scrub ();
      Sim.sleep (Time.ms 5);
      Pmm.stop_scrubber pmm2;
      check_int "no new quarantine" 0 (Pmm.scrub_quarantined pmm2);
      (base, Pmm.scrub_quarantined_chunks pmm2))

let check_chunks = Alcotest.(check (list (pair int int)))

let test_scrubber_reloads_newest_table () =
  let base, chunks = reloaded_quarantine ~tear_newest:false in
  check_chunks "generation 5 adopted" [ (base + scrub_chunk, scrub_chunk) ] chunks

let test_scrubber_reload_falls_back_a_generation () =
  let base, chunks = reloaded_quarantine ~tear_newest:true in
  check_chunks "generation 4 adopted" [ (base, scrub_chunk) ] chunks

(* --- Verified reads --- *)

let test_verified_read_repairs_decayed_primary () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client ~config:verified_config topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 4096 'v'));
      (* One scrub pass builds the trusted checksum table, then the
         scrubber stops — read repair must work on its own. *)
      Pmm.start_scrubber topo.pmm ~cpu:(Node.cpu topo.node 0) ~interval:fast_scrub ();
      Sim.sleep (Time.ms 5);
      Pmm.stop_scrubber topo.pmm;
      Sim.sleep (Time.ms 2);
      Npmu.decay topo.npmu_a ~off:(info.Pm_types.net_base + 50) ~bits:32;
      (match Pm_client.read c h ~off:0 ~len:4096 with
      | Ok data -> check_str "served repaired contents" (String.make 4096 'v') (Bytes.to_string data)
      | Error _ -> Alcotest.fail "verified read failed");
      check_int "read repair counted" 1 (Pm_client.read_repairs c);
      check_int "nothing unrepairable" 0 (Pm_client.verify_unrepaired c);
      check_str "primary healed from mirror"
        (Bytes.to_string (Npmu.peek topo.npmu_b ~off:info.Pm_types.net_base ~len:4096))
        (Bytes.to_string (Npmu.peek topo.npmu_a ~off:info.Pm_types.net_base ~len:4096)))

let test_verified_read_without_table_serves_primary () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client ~config:verified_config topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 256 'p'));
      (* No scrubber has ever run: divergence is detected but cannot be
         arbitrated, so the read counts it and serves the primary. *)
      Npmu.decay topo.npmu_b ~off:(info.Pm_types.net_base + 8) ~bits:8;
      (match Pm_client.read c h ~off:0 ~len:256 with
      | Ok data -> check_str "primary served" (String.make 256 'p') (Bytes.to_string data)
      | Error _ -> Alcotest.fail "read failed");
      check_bool "divergence seen" true (Pm_client.verify_divergences c >= 1);
      check_bool "counted unrepaired" true (Pm_client.verify_unrepaired c >= 1);
      check_int "no repair invented" 0 (Pm_client.read_repairs c))

(* A write acked while one device was dark leaves that device holding
   what the last clean scan blessed: its copy still matches the checksum
   table, but the device has power-cycled since the chunk was marked
   clean, so read repair must not copy it over the acked write. *)
let test_verified_read_keeps_degraded_write ~dark_primary () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client ~config:verified_config topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write old"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 4096 'o'));
      Pmm.start_scrubber topo.pmm ~cpu:(Node.cpu topo.node 0) ~interval:fast_scrub ();
      Sim.sleep (Time.ms 5);
      Pmm.stop_scrubber topo.pmm;
      Sim.sleep (Time.ms 2);
      let dark, lit =
        if dark_primary then (topo.npmu_a, topo.npmu_b) else (topo.npmu_b, topo.npmu_a)
      in
      Npmu.power_loss dark;
      Test_util.check_result_ok "write new"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 4096 'n'));
      check_int "acked degraded" 1 (Pm_client.degraded_writes c);
      Npmu.power_restore dark;
      (match Pm_client.read c h ~off:0 ~len:4096 with
      | Ok data when not dark_primary ->
          check_str "serves the acked write" (String.make 4096 'n') (Bytes.to_string data)
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "verified read failed");
      check_int "no read repair" 0 (Pm_client.read_repairs c);
      check_bool "counted unrepaired" true (Pm_client.verify_unrepaired c >= 1);
      check_str "acked write kept" (String.make 4096 'n')
        (Bytes.to_string (Npmu.peek lit ~off:info.Pm_types.net_base ~len:4096)))

(* --- Pm_queue: torn record beyond the tail --- *)

let test_pm_queue_ignores_corruption_beyond_tail () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create"
          (Pm_client.create_region c ~name:"q" ~size:32768)
      in
      let info = Pm_client.info h in
      let q = Test_util.ok_or_fail ~msg:"queue" (Pm_queue.create c h) in
      Test_util.check_result_ok "enq alpha" (Pm_queue.enqueue q (Bytes.of_string "alpha"));
      Test_util.check_result_ok "enq beta" (Pm_queue.enqueue q (Bytes.of_string "beta"));
      (* A crash mid-enqueue leaves a torn record past the tail; model
         it as garbage on both devices beyond the committed records. *)
      let beyond = info.Pm_types.net_base + info.Pm_types.length - 256 in
      Npmu.decay topo.npmu_a ~off:beyond ~bits:(8 * 64);
      Npmu.decay topo.npmu_b ~off:beyond ~bits:(8 * 64);
      (* A fresh consumer (as after the crash) drains exactly the
         committed records and never surfaces the garbage. *)
      let c2 = client topo 3 in
      let h2 = Test_util.ok_or_fail ~msg:"open" (Pm_client.open_region c2 ~name:"q") in
      let q2 = Test_util.ok_or_fail ~msg:"attach" (Pm_queue.attach c2 h2) in
      (match Pm_queue.dequeue q2 with
      | Ok (Some b) -> check_str "first" "alpha" (Bytes.to_string b)
      | _ -> Alcotest.fail "expected alpha");
      (match Pm_queue.dequeue q2 with
      | Ok (Some b) -> check_str "second" "beta" (Bytes.to_string b)
      | _ -> Alcotest.fail "expected beta");
      match Pm_queue.dequeue q2 with
      | Ok None -> ()
      | _ -> Alcotest.fail "torn bytes beyond the tail surfaced")

(* The meta block's [data_len] sizes every ring access: a decayed
   length must fail the attach, not hand out a queue that reads and
   writes past its data area. *)
let test_pm_queue_rejects_corrupt_meta () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"q" ~size:32768)
      in
      ignore (Test_util.ok_or_fail ~msg:"queue" (Pm_queue.create c h));
      (* [data_len] is the u32 after the 4-byte magic; set its third
         byte on both copies. *)
      let off = (Pm_client.info h).Pm_types.net_base + 6 in
      List.iter
        (fun d -> Npmu.poke d ~off ~data:(Bytes.of_string "\x7F"))
        [ topo.npmu_a; topo.npmu_b ];
      let c2 = client topo 3 in
      let h2 = Test_util.ok_or_fail ~msg:"open" (Pm_client.open_region c2 ~name:"q") in
      match Pm_queue.attach c2 h2 with
      | Error _ -> ()
      | Ok q ->
          Alcotest.failf "attached with a corrupt length (capacity %d)" (Pm_queue.capacity_bytes q))

(* --- Log backend: torn tails, torn headers, mirror salvage --- *)

let update_record key =
  Tp.Audit.Update
    { txn = 1; file = 0; partition = 0; key; payload_len = 64; payload_crc = 0; before_len = 0 }

let append_records log n =
  for i = 1 to n do
    Test_util.check_result_ok "append"
      (Tp.Log_backend.write_records log [ (i, update_record (100 + i)) ])
  done

let test_recovery_truncates_torn_tail () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"t" ~size:65536)
      in
      let info = Pm_client.info h in
      let log = Tp.Log_backend.pm c h in
      append_records log 2;
      let b2 = Tp.Log_backend.bytes_written log in
      append_records log 1;
      (* Corrupt the final frame's header bytes on BOTH copies — a true
         torn tail (power cut mid-append).  Recovery must truncate to
         the last valid frame, not error. *)
      let frame3 = info.Pm_types.net_base + 64 + b2 in
      Npmu.decay topo.npmu_a ~off:(frame3 + 10) ~bits:32;
      Npmu.decay topo.npmu_b ~off:(frame3 + 10) ~bits:32;
      match Tp.Log_backend.recovery_read log with
      | Error e -> Alcotest.fail ("recovery errored on a torn tail: " ^ e)
      | Ok records ->
          check_int "truncated to the valid prefix" 2 (List.length records);
          List.iteri
            (fun i (asn, _) -> check_int "asn order" (i + 1) asn)
            records)

let test_recovery_salvages_torn_frame_from_mirror () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client ~config:verified_config topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"t" ~size:65536)
      in
      let info = Pm_client.info h in
      let log = Tp.Log_backend.pm c h in
      append_records log 1;
      let b1 = Tp.Log_backend.bytes_written log in
      append_records log 2;
      (* Frame 2 torn on the primary only: every record reached both
         mirrors before its commit acked, so the replay salvages the
         rest of the trail from the mirror instead of truncating two
         acknowledged records away. *)
      Npmu.decay topo.npmu_a ~off:(info.Pm_types.net_base + 64 + b1 + 10) ~bits:32;
      match Tp.Log_backend.recovery_read log with
      | Error e -> Alcotest.fail ("recovery errored: " ^ e)
      | Ok records -> check_int "all three records recovered" 3 (List.length records))

let test_recovery_scans_past_torn_header () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"t" ~size:65536)
      in
      let info = Pm_client.info h in
      let log = Tp.Log_backend.pm c h in
      append_records log 3;
      (* Garble the ring header's magic: the write frontier cannot be
         trusted, so recovery falls back to a full-area scan and lets the
         per-frame CRCs find the end of the valid prefix. *)
      Npmu.decay topo.npmu_a ~off:info.Pm_types.net_base ~bits:16;
      Npmu.decay topo.npmu_b ~off:info.Pm_types.net_base ~bits:16;
      match Tp.Log_backend.recovery_read log with
      | Error e -> Alcotest.fail ("recovery errored on a torn header: " ^ e)
      | Ok records -> check_int "full scan finds every record" 3 (List.length records))

(* Wrap the ring over stale non-zero bytes: every frame's payload
   padding must read back as zero on both copies, the area behind the
   frontier must hold exactly the full-length frames, and the replay
   must return the records written since the wrap. *)
let test_ring_wrap_pads_over_stale_bytes () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let size = 4096 in
      let h = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"ring" ~size) in
      let base = (Pm_client.info h).Pm_types.net_base in
      Test_util.check_result_ok "stale fill"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make size '\xA5'));
      let log = Tp.Log_backend.pm c h in
      let record i =
        Tp.Audit.Update
          {
            txn = i;
            file = 0;
            partition = 0;
            key = i;
            payload_len = 40 + (i mod 7 * 30);
            payload_crc = 0;
            before_len = i mod 3 * 8;
          }
      in
      let total = 60 in
      let written = List.init total (fun i -> (i + 1, record (i + 1))) in
      List.iter
        (fun r -> Test_util.check_result_ok "append" (Tp.Log_backend.write_records log [ r ]))
        written;
      let frontier = Int32.to_int (Bytes.get_int32_le (Npmu.peek topo.npmu_a ~off:base ~len:8) 4) in
      match Tp.Log_backend.recovery_read log with
      | Error e -> Alcotest.fail ("recovery errored: " ^ e)
      | Ok records ->
          let n = List.length records in
          check_bool "the ring wrapped" true (n > 0 && n < total);
          let since_wrap = List.filteri (fun i _ -> i >= total - n) written in
          check_bool "replay returns the records since the wrap" true (records = since_wrap);
          let full_frame (asn, r) =
            let a = Bytes.create 8 in
            Bytes.set_int64_le a 0 (Int64.of_int asn);
            Bytes.cat a (Tp.Audit.encode_to_bytes r)
          in
          let expected = Bytes.concat Bytes.empty (List.map full_frame since_wrap) in
          check_int "frontier" (64 + Bytes.length expected) frontier;
          List.iter
            (fun d ->
              check_str "on-media frames equal the full encoding" (Bytes.to_string expected)
                (Bytes.to_string (Npmu.peek d ~off:(base + 64) ~len:(Bytes.length expected))))
            [ topo.npmu_a; topo.npmu_b ])

(* --- Streaming recovery at its fetch seams --- *)

(* The replay as one parse of a whole trail image: frames from [from]
   until the first that does not decode, and where that one starts. *)
let parse_trail buf ~from =
  let rec go pos acc =
    if pos >= Bytes.length buf then (List.rev acc, None)
    else
      match Tp.Audit.decode buf ~pos:(pos + 8) with
      | Some (r, next) -> go next ((Int64.to_int (Bytes.get_int64_le buf pos), r) :: acc)
      | None -> (List.rev acc, Some pos)
  in
  go from []

(* Recovery fetches the trail in 64 KiB chunks from offset 64 and parses
   each as it lands, keeping only a frame head the chunk cut off.  This
   trail puts a frame head across every fetch boundary — cut inside the
   ASN, inside the body length, and inside the CRC — holds a frame whose
   padding runs past the reused window, and ends in a tail that only the
   mirror holds: the primary keeps an older, intact ring header and
   never saw the later appends.  With [tear], the head that
   straddles the second boundary is torn on the primary.  Recovery must
   equal the same replay run on whole [Npmu.peek] images of both
   devices. *)
let streamed_recovery ~verified ~tear =
  let topo = make_topo ~capacity:(2 lsl 20) () in
  let chunk = 64 * 1024 and head = 49 (* ASN + an update frame's head *) in
  let out = ref ([], [], 0) in
  Test_util.run_in topo.sim (fun () ->
      let c = client ?config:(if verified then Some verified_config else None) topo 2 in
      let size = 1 lsl 20 in
      let h = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"t" ~size) in
      let base = (Pm_client.info h).Pm_types.net_base in
      let log = Tp.Log_backend.pm c h in
      let written = ref [] in
      let frontier () = 64 + Tp.Log_backend.bytes_written log in
      let append payload_len =
        let r =
          ( List.length !written + 1,
            Tp.Audit.Update
              { txn = 1; file = 0; partition = 0; key = frontier (); payload_len; payload_crc = 0; before_len = 0 } )
        in
        Test_util.check_result_ok "append" (Tp.Log_backend.write_records log [ r ]);
        written := r :: !written
      in
      (* Pad up to [b - cut], then a frame whose head runs across [b]. *)
      let straddle b cut =
        append (b - cut - frontier () - head);
        let at = frontier () in
        append 100;
        at
      in
      ignore (straddle (64 + chunk) 5 : int);
      let torn = straddle (64 + (2 * chunk)) 11 in
      ignore (straddle (64 + (3 * chunk)) 40 : int);
      append (3 * chunk);
      append 7;
      let routed = frontier () in
      let stale_header = Npmu.peek topo.npmu_a ~off:base ~len:64 in
      ignore (straddle (routed + chunk) 20 : int);
      append 0;
      append 3000;
      let limit = frontier () in
      Npmu.poke topo.npmu_a ~off:base ~data:stale_header;
      Npmu.poke topo.npmu_a ~off:(base + routed) ~data:(Bytes.make (limit - routed) '\000');
      if tear then Npmu.decay topo.npmu_a ~off:(base + torn + 12) ~bits:32;
      let image d = Npmu.peek d ~off:base ~len:limit in
      let prim = image topo.npmu_a and mirr = image topo.npmu_b in
      let spliced = Bytes.cat (Bytes.sub prim 0 routed) (Bytes.sub mirr routed (limit - routed)) in
      let expected =
        match parse_trail spliced ~from:64 with
        | records, Some bad when verified -> records @ fst (parse_trail mirr ~from:bad)
        | records, _ -> records
      in
      match Tp.Log_backend.recovery_read log with
      | Error e -> Alcotest.fail ("recovery errored: " ^ e)
      | Ok records ->
          check_bool "the replay equals the whole-image parse" true (records = expected);
          out := (records, List.rev !written, List.length (fst (parse_trail spliced ~from:64))));
  !out

let test_streamed_recovery_clean () =
  let records, written, _ = streamed_recovery ~verified:false ~tear:false in
  check_int "every record, the mirror-only tail included" (List.length written) (List.length records);
  check_bool "in order" true (records = written)

let test_streamed_recovery_salvages () =
  let records, written, before_tear = streamed_recovery ~verified:true ~tear:true in
  check_int "the torn head is the fourth frame" 3 before_tear;
  check_bool "the mirror salvage continues past it" true (records = written)

let test_streamed_recovery_truncates () =
  let records, written, _ = streamed_recovery ~verified:false ~tear:true in
  check_bool "the replay stops at the torn head" true
    (records = List.filteri (fun i _ -> i < 3) written)

(* --- On-media golden vectors --- *)

let hex b =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

(* A 64-byte sealed block in hex: [fields], zero fill, then [crc]. *)
let sealed64 fields crc = fields ^ String.make (120 - String.length fields) '0' ^ crc

(* Byte images the hand-rolled encoders wrote before the fixed blocks
   moved behind [Codec.seal]: the audit-ring header (magic "ADR0",
   frontier, wrapped flag, CRC; unwrapped and after a wrap), a fresh
   Pm_index header, a Pm_kv log header and a Pm_queue producer block.
   A layout change must not move them. *)
let test_sealed_blocks_golden () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let region name size =
        let h = Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name ~size) in
        (h, (Pm_client.info h).Pm_types.net_base)
      in
      let peek base len = hex (Npmu.peek topo.npmu_a ~off:base ~len) in
      let ring, ring_base = region "ring" 65536 in
      append_records (Tp.Log_backend.pm c ring) 2;
      check_str "ring header" ("30524441" ^ "22010000" ^ "00" ^ "65b3c6a8") (peek ring_base 13);
      let small, small_base = region "small" 4096 in
      append_records (Tp.Log_backend.pm c small) 50;
      check_str "wrapped ring header"
        ("30524441" ^ "df060000" ^ "01" ^ "a62fb2f2")
        (peek small_base 13);
      let ix, ix_base = region "ix" 65536 in
      ignore (Test_util.ok_or_fail ~msg:"index" (Pm_index.create c ix ()));
      check_str "fresh Pm_index header"
        (sealed64 ("58494d50" ^ "0800" ^ "00000000" ^ "40000000" ^ "0000000000000000") "99516091")
        (peek ix_base 64);
      let kix, _ = region "kix" 65536 in
      let klog, klog_base = region "klog" 65536 in
      let kv = Test_util.ok_or_fail ~msg:"kv" (Pm_kv.create c ~index:kix ~log:klog) in
      Test_util.check_result_ok "put" (Pm_kv.put kv ~key:7 (Bytes.of_string "seven"));
      check_str "Pm_kv log header"
        (sealed64 ("564b4d50" ^ "4500000000000000") "24fbf047")
        (peek klog_base 64);
      let qh, q_base = region "q" 32768 in
      let q = Test_util.ok_or_fail ~msg:"queue" (Pm_queue.create c qh) in
      Test_util.check_result_ok "enq" (Pm_queue.enqueue q (Bytes.of_string "alpha"));
      check_str "Pm_queue producer block"
        (sealed64 ("4b4c4251" ^ "0d00000000000000") "7e191dc6")
        (peek (q_base + 64) 64))

(* --- Faultplan validation --- *)

let test_faultplan_rejects_pm_faults_on_disk () =
  let sim = Sim.create ~seed:0x11L () in
  Test_util.run_in sim (fun () ->
      let system = Tp.System.build sim Tp.System.default_config in
      (match
         Tp.Faultplan.validate (Tp.Faultplan.Single system)
           [
             Tp.Faultplan.at (Time.ms 1)
               (Tp.Faultplan.Media_decay { device = 0; off = 0; bits = 8 });
           ]
       with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "media decay accepted on a disk-audit system");
      match
        Tp.Faultplan.validate (Tp.Faultplan.Single system)
          [ Tp.Faultplan.at (Time.ms 1) (Tp.Faultplan.Torn_write { device = 0 }) ]
      with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "torn write accepted on a disk-audit system")

(* --- The corruption drill --- *)

let drill_integrity r =
  match r.Tp.Drill.integrity with
  | Some i -> i
  | None -> Alcotest.fail "PM drill report carries no integrity audit"

let corruption ?(defenses = true) seed =
  Tp.Drill.exec { (Test_util.drill_spec ~defenses Tp.Drill.Corruption) with Tp.Drill.seed }

let test_corruption_drill_defended () =
  (* Two seeds: the gates must hold on each, not by luck on one. *)
  List.iter
    (fun seed ->
      match corruption seed with
      | Error e -> Alcotest.fail ("corruption drill failed: " ^ e)
      | Ok r ->
          let i = drill_integrity r in
          check_int "zero acked rows lost" 0 r.Tp.Drill.lost_rows;
          check_int "zero unrepaired divergence" 0 i.Tp.Drill.unrepaired_divergence;
          check_bool "scrubber repaired at least one decay" true
            (i.Tp.Drill.scrub_repairs >= 1);
          check_bool "a verified read repaired at least one decay" true
            (i.Tp.Drill.read_repairs >= 1);
          check_bool "invariant bundle" true (Tp.Drill.integrity_clean r))
    [ 0xD5177L; 42L ]

let test_corruption_drill_deterministic () =
  let run () =
    match corruption 7L with
    | Error e -> Alcotest.fail ("corruption drill failed: " ^ e)
    | Ok r ->
        let i = drill_integrity r in
        ( r.Tp.Drill.elapsed,
          r.Tp.Drill.acked_rows,
          r.Tp.Drill.lost_rows,
          i.Tp.Drill.scrub_repairs,
          i.Tp.Drill.scrub_quarantined,
          i.Tp.Drill.read_repairs,
          i.Tp.Drill.unrepaired_divergence )
  in
  check_bool "same seed, same report" true (run () = run ())

let test_corruption_drill_negative_control () =
  match corruption ~defenses:false 0xD5177L with
  | Error e -> Alcotest.fail ("negative control failed to run: " ^ e)
  | Ok r ->
      let i = drill_integrity r in
      check_bool "undefended run loses acked rows" true (r.Tp.Drill.lost_rows > 0);
      check_bool "divergence left behind" true (i.Tp.Drill.unrepaired_divergence > 0);
      check_int "no scrubber ran" 0 i.Tp.Drill.scrub_chunks;
      check_bool "invariant violated" true (not (Tp.Drill.integrity_clean r))

let suite =
  [
    ( "integrity.crc32",
      [
        Alcotest.test_case "known answers" `Quick test_crc32_known_answers;
        QCheck_alcotest.to_alcotest prop_crc32_matches_bitwise;
      ] );
    ( "integrity.injection",
      [
        Alcotest.test_case "decay flips bits silently" `Quick test_npmu_decay_flips_bits;
        Alcotest.test_case "decay validates arguments" `Quick test_npmu_decay_validates;
        Alcotest.test_case "torn store corrupts trailing half" `Quick
          test_npmu_tear_last_write;
        Alcotest.test_case "nothing to tear before any write" `Quick
          test_npmu_tear_without_write;
        Alcotest.test_case "decay and tear on fresh pages" `Quick
          test_npmu_injection_on_fresh_pages;
        Alcotest.test_case "counters and tears include padding" `Quick
          test_npmu_counts_padding;
        Alcotest.test_case "disk mode rejects PM faults" `Quick
          test_faultplan_rejects_pm_faults_on_disk;
      ] );
    ( "integrity.scrubber",
      [
        Alcotest.test_case "repairs a decayed mirror" `Quick
          test_scrubber_repairs_decayed_mirror;
        Alcotest.test_case "quarantines double corruption" `Quick
          test_scrubber_quarantines_double_corruption;
        Alcotest.test_case "restart reloads the newest table" `Quick
          test_scrubber_reloads_newest_table;
        Alcotest.test_case "torn newest table falls back a generation" `Quick
          test_scrubber_reload_falls_back_a_generation;
        Alcotest.test_case "single instance, idempotent stop" `Quick
          test_scrubber_restart_rejected;
      ] );
    ( "integrity.verified_reads",
      [
        Alcotest.test_case "repairs a decayed primary" `Quick
          test_verified_read_repairs_decayed_primary;
        Alcotest.test_case "no rollback after a mirror outage" `Quick
          (test_verified_read_keeps_degraded_write ~dark_primary:false);
        Alcotest.test_case "no rollback after a primary outage" `Quick
          (test_verified_read_keeps_degraded_write ~dark_primary:true);
        Alcotest.test_case "unarbitratable divergence serves primary" `Quick
          test_verified_read_without_table_serves_primary;
      ] );
    ( "integrity.torn",
      [
        Alcotest.test_case "queue ignores corruption beyond tail" `Quick
          test_pm_queue_ignores_corruption_beyond_tail;
        Alcotest.test_case "queue rejects a corrupt meta block" `Quick
          test_pm_queue_rejects_corrupt_meta;
        Alcotest.test_case "recovery truncates a torn tail" `Quick
          test_recovery_truncates_torn_tail;
        Alcotest.test_case "recovery salvages a torn frame from the mirror" `Quick
          test_recovery_salvages_torn_frame_from_mirror;
        Alcotest.test_case "recovery scans past a torn header" `Quick
          test_recovery_scans_past_torn_header;
        Alcotest.test_case "ring wrap pads over stale bytes" `Quick
          test_ring_wrap_pads_over_stale_bytes;
        Alcotest.test_case "streamed recovery across fetch seams" `Quick
          test_streamed_recovery_clean;
        Alcotest.test_case "streamed recovery salvages a torn head" `Quick
          test_streamed_recovery_salvages;
        Alcotest.test_case "streamed recovery truncates at a torn head" `Quick
          test_streamed_recovery_truncates;
      ] );
    ( "integrity.formats",
      [ Alcotest.test_case "sealed blocks keep their bytes" `Quick test_sealed_blocks_golden ] );
    ( "integrity.drill",
      [
        Alcotest.test_case "defended run holds every gate" `Slow
          test_corruption_drill_defended;
        Alcotest.test_case "bit-deterministic per seed" `Slow
          test_corruption_drill_deterministic;
        Alcotest.test_case "negative control surfaces corruption" `Slow
          test_corruption_drill_negative_control;
      ] );
  ]

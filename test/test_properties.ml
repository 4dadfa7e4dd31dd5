(* Cross-cutting property-based tests on core invariants. *)

open Simkit

(* --- Lock manager: never two exclusive holders --- *)

let prop_lock_exclusion =
  (* Random concurrent acquire/hold/release schedules must never grant
     the same key exclusively to two transactions at once. *)
  QCheck.Test.make ~name:"lockmgr never double-grants exclusive" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 2 6))
    (fun (seed, workers) ->
      let sim = Sim.create ~seed:(Int64.of_int (seed + 1)) () in
      let locks = Tp.Lockmgr.create sim ~timeout:(Time.sec 10) () in
      let violation = ref false in
      let inside = ref 0 in
      let rng = Rng.create (Int64.of_int (seed * 7 + 3)) in
      for w = 1 to workers do
        let (_ : Sim.pid) =
          Sim.spawn sim ~name:(Printf.sprintf "w%d" w) (fun () ->
              for _ = 1 to 5 do
                Sim.sleep (Rng.int rng 1000);
                match Tp.Lockmgr.acquire locks ~owner:w ~key:(0, 1) Tp.Lockmgr.Exclusive with
                | Ok () ->
                    incr inside;
                    if !inside > 1 then violation := true;
                    Sim.sleep (Rng.int rng 500);
                    decr inside;
                    Tp.Lockmgr.release_all locks ~owner:w
                | Error _ -> ()
              done)
        in
        ()
      done;
      Sim.run sim;
      not !violation)

let prop_lock_shared_coexist =
  QCheck.Test.make ~name:"shared locks never block each other" ~count:40
    QCheck.(int_range 2 8)
    (fun readers ->
      let sim = Sim.create () in
      let locks = Tp.Lockmgr.create sim ~timeout:(Time.ms 10) () in
      let granted = ref 0 in
      for w = 1 to readers do
        let (_ : Sim.pid) =
          Sim.spawn sim ~name:(Printf.sprintf "r%d" w) (fun () ->
              match Tp.Lockmgr.acquire locks ~owner:w ~key:(1, 1) Tp.Lockmgr.Shared with
              | Ok () -> incr granted
              | Error _ -> ())
        in
        ()
      done;
      Sim.run sim;
      !granted = readers)

(* --- AVT: translation stays within the mapped window --- *)

let prop_avt_translation_in_bounds =
  QCheck.Test.make ~name:"AVT translation lands inside the physical extent" ~count:200
    QCheck.(triple (int_bound 1000) (int_range 1 4096) (int_bound 8192))
    (fun (base, length, probe) ->
      let avt = Servernet.Avt.create () in
      let net_base = 4096 + base in
      let phys_base = 100_000 in
      match
        Servernet.Avt.map avt ~net_base ~length ~phys_base
          ~access:(Servernet.Avt.read_write Servernet.Avt.Any_initiator)
      with
      | Error _ -> false
      | Ok () -> (
          let addr = net_base + probe in
          match Servernet.Avt.translate avt ~initiator:0 ~op:`Read ~addr ~len:1 with
          | Ok phys -> probe < length && phys = phys_base + probe
          | Error Servernet.Avt.Unmapped -> probe >= length
          | Error Servernet.Avt.Crosses_window -> probe = length - 1 && false
          | Error _ -> false))

(* --- Audit: random record streams decode to themselves --- *)

let gen_record =
  QCheck.Gen.(
    oneof
      [
        map (fun txn -> Tp.Audit.Begin { txn }) small_nat;
        map (fun txn -> Tp.Audit.Commit { txn }) small_nat;
        map (fun txn -> Tp.Audit.Abort { txn }) small_nat;
        map
          (fun (txn, key, len) ->
            Tp.Audit.Update
              {
                txn;
                file = key mod 4;
                partition = key mod 16;
                key;
                payload_len = len;
                payload_crc = (len * 31) land 0xFFFF;
                before_len = 0;
              })
          (triple small_nat small_nat (int_bound 8192));
        map (fun active -> Tp.Audit.Control_point { active }) (list_size (int_bound 5) small_nat);
      ])

let prop_audit_stream_roundtrip =
  let gen_stream = QCheck.Gen.(list_size (int_bound 20) gen_record) in
  let arb = QCheck.make ~print:(fun l -> string_of_int (List.length l)) gen_stream in
  QCheck.Test.make ~name:"audit streams decode record-for-record" ~count:100 arb (fun records ->
      let enc = Pm.Codec.Enc.create () in
      List.iter (Tp.Audit.encode enc) records;
      let buf = Pm.Codec.Enc.to_bytes enc in
      let rec collect pos acc =
        if pos >= Bytes.length buf then List.rev acc
        else
          match Tp.Audit.decode buf ~pos with
          | Some (r, next) -> collect next (r :: acc)
          | None -> List.rev acc
      in
      collect 0 [] = records)

(* --- Mailbox: FIFO under random interleavings --- *)

let prop_mailbox_fifo =
  QCheck.Test.make ~name:"mailbox preserves send order" ~count:50
    QCheck.(pair (int_bound 10000) (int_range 1 40))
    (fun (seed, n) ->
      let sim = Sim.create ~seed:(Int64.of_int (seed + 11)) () in
      let rng = Rng.create (Int64.of_int seed) in
      let mb = Mailbox.create () in
      let got = ref [] in
      let (_ : Sim.pid) =
        Sim.spawn sim ~name:"tx" (fun () ->
            for i = 1 to n do
              Sim.sleep (Rng.int rng 100);
              Mailbox.send mb i
            done)
      in
      let (_ : Sim.pid) =
        Sim.spawn sim ~name:"rx" (fun () ->
            for _ = 1 to n do
              let v = Mailbox.recv mb in
              got := v :: !got;
              Sim.sleep (Rng.int rng 100)
            done)
      in
      Sim.run sim;
      List.rev !got = List.init n (fun i -> i + 1))

(* --- Pm metadata: random create/delete sequences keep extents disjoint --- *)

(* A mirrored PM volume (two NPMUs under a PMM pair): [f client
   devices] runs in a simulated process and its result is returned. *)
let with_pm_client ~seed f =
  let sim = Sim.create ~seed () in
  let node = Nsk.Node.create sim ~cpus:3 () in
  let fabric = Nsk.Node.fabric node in
  let a = Pm.Npmu.create sim fabric ~name:"a" ~capacity:(1 lsl 20) in
  let b = Pm.Npmu.create sim fabric ~name:"b" ~capacity:(1 lsl 20) in
  let da = Pm.Pmm.device_of_npmu a in
  let db = Pm.Pmm.device_of_npmu b in
  Pm.Pmm.format da db;
  let pmm =
    Pm.Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Nsk.Node.cpu node 0)
      ~backup_cpu:(Nsk.Node.cpu node 1) ~primary_dev:da ~mirror_dev:db ()
  in
  Test_util.run_in sim (fun () ->
      let client =
        Pm.Pm_client.attach ~cpu:(Nsk.Node.cpu node 2) ~fabric ~pmm:(Pm.Pmm.server pmm) ()
      in
      f client [ a; b ])

let prop_region_extents_disjoint =
  QCheck.Test.make ~name:"PMM allocations never overlap" ~count:20
    (QCheck.make
       ~print:(fun l -> string_of_int (List.length l))
       QCheck.Gen.(list_size (int_range 1 12) (int_range 1 40)))
    (fun sizes ->
      with_pm_client ~seed:77L (fun client _ ->
          (* Create regions of the random sizes (KiB), deleting every
             third one to fragment the space. *)
          List.iteri
            (fun i kib ->
              let name = Printf.sprintf "r%d" i in
              match Pm.Pm_client.create_region client ~name ~size:(kib * 1024) with
              | Ok h when i mod 3 = 2 ->
                  let (_ : (unit, Pm.Pm_types.error) result) =
                    Pm.Pm_client.close_region client h
                  in
                  let (_ : (unit, Pm.Pm_types.error) result) =
                    Pm.Pm_client.delete_region client ~name
                  in
                  ()
              | Ok _ -> ()
              | Error Pm.Pm_types.Out_of_space -> ()
              | Error e -> failwith (Pm.Pm_types.error_to_string e))
            sizes;
          (* Survivors must be pairwise disjoint. *)
          match Pm.Pm_client.list_regions client with
          | Error _ -> false
          | Ok regions ->
              let extents =
                List.map (fun r -> (r.Pm.Pm_types.net_base, r.Pm.Pm_types.length)) regions
              in
              let disjoint (b1, l1) (b2, l2) = b1 + l1 <= b2 || b2 + l2 <= b1 in
              let rec pairwise = function
                | [] -> true
                | e :: rest -> List.for_all (disjoint e) rest && pairwise rest
              in
              pairwise extents))

(* --- PMM slot frames: a flipped byte is caught, never misread --- *)

(* A region table, a scrub table, and where to flip one byte of each
   image (the xor is never 0). *)
let gen_slot_case =
  QCheck.Gen.(
    let* generation = int_range 1 1_000_000 in
    let* epoch = int_range 1 1_000 in
    let* regions =
      list_size (int_bound 4)
        (quad
           (string_size ~gen:printable (int_range 1 12))
           (int_bound (1 lsl 30))
           (int_bound (1 lsl 20))
           (list_size (int_bound 3) (int_bound 0xFFFF)))
    in
    let* entries = list_size (int_bound 8) (pair (int_bound (1 lsl 30)) ui32) in
    let* quarantined =
      list_size (int_bound 3) (pair (int_bound (1 lsl 30)) (int_bound (1 lsl 20)))
    in
    let* at = int_bound 10_000 in
    let* xor = int_range 1 255 in
    return (generation, epoch, regions, entries, quarantined, (at, xor)))

let flip_byte image (at, xor) =
  let b = Bytes.copy image in
  let i = at mod Bytes.length b in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor xor));
  b

(* Every parse either rejects the image or returns what was written:
   the frame's CRC covers its header, so even the scrub table's
   generation (which its payload does not repeat) cannot be misread. *)
let prop_slot_byte_flip =
  QCheck.Test.make ~name:"flipped PMM slot byte parses to None or the original" ~count:500
    (QCheck.make gen_slot_case)
    (fun (generation, epoch, regions, entries, quarantined, flip) ->
      let meta = Pm.Pmm.meta ~generation ~epoch regions in
      let meta_image = Pm.Pmm.slot_image meta in
      let meta_ok =
        Pm.Pmm.parse_slot meta_image = Some meta
        &&
        match Pm.Pmm.parse_slot (flip_byte meta_image flip) with
        | None -> true
        | Some m -> m = meta
      in
      let chunk_bytes = 65_536 in
      let table = (generation, chunk_bytes, entries, quarantined) in
      let scrub_image = Pm.Pmm.scrub_image ~generation ~chunk_bytes entries quarantined in
      let scrub_ok =
        Pm.Pmm.parse_scrub_slot scrub_image = Some table
        &&
        match Pm.Pmm.parse_scrub_slot (flip_byte scrub_image flip) with
        | None -> true
        | Some t -> t = table
      in
      meta_ok && scrub_ok)

(* --- Codec: sealed blocks and slot frames --- *)

(* A sealed block (magic, the u32 fields it carries, slack before the
   CRC), a slot frame (generation and payload), where to flip one byte,
   and where to cut a copy short. *)
let gen_codec_case =
  QCheck.Gen.(
    let* magic = int_range 0 0xFFFFFFFF in
    let* fields = list_size (int_bound 6) (int_range 0 0xFFFFFFFF) in
    let* slack = int_bound 40 in
    let* generation = int_range 0 (1 lsl 40) in
    let* payload = string_size (int_bound 200) in
    let* flip = pair (int_bound 10_000) (int_range 1 255) in
    let* cut = int_bound 10_000 in
    return (magic, fields, slack, generation, payload, flip, cut))

let prop_codec_sealed_formats =
  QCheck.Test.make ~name:"sealed blocks and slot frames: round trip, byte flip, truncation"
    ~count:500 (QCheck.make gen_codec_case)
    (fun (magic, fields, slack, generation, payload, flip, cut) ->
      let n = List.length fields in
      let size = 4 + (4 * n) + slack + 4 in
      let block =
        Pm.Codec.seal ~magic ~size (fun enc -> List.iter (Pm.Codec.Enc.u32 enc) fields)
      in
      let unseal =
        Pm.Codec.unseal ~magic ~size (fun dec -> List.init n (fun _ -> Pm.Codec.Dec.u32 dec))
      in
      let payload = Bytes.of_string payload in
      let unframe = Pm.Codec.unframe ~magic (fun g p -> Some (g, p)) in
      (* Intact parses to [v]; one flipped byte to [None] or [v]; any
         proper prefix to [None]. *)
      let holds parse image v =
        parse image = Some v
        && (match parse (flip_byte image flip) with None -> true | Some w -> w = v)
        && parse (Bytes.sub image 0 (cut mod Bytes.length image)) = None
      in
      Bytes.length block = size
      && holds unseal block fields
      && holds unframe (Pm.Codec.frame ~magic ~generation payload) (generation, payload))

(* --- Audit and Pm_queue records: a flipped byte never misreads --- *)

let prop_audit_byte_flip =
  QCheck.Test.make ~name:"audit frame with a flipped byte decodes to None or the original"
    ~count:500
    (QCheck.make QCheck.Gen.(triple gen_record (int_bound 10_000) (int_range 1 255)))
    (fun (record, at, xor) ->
      match Tp.Audit.decode (flip_byte (Tp.Audit.encode_to_bytes record) (at, xor)) ~pos:0 with
      | None -> true
      | Some (r, _) -> r = record)

(* One record in a fresh queue, one byte of its frame (length, data or
   CRC) flipped on both devices: the consumer gets an error or the
   record, never other bytes. *)
let prop_queue_record_byte_flip =
  QCheck.Test.make ~name:"queue record with a flipped byte dequeues to Error or the original"
    ~count:60
    QCheck.(triple (string_of_size (Gen.int_range 0 300)) (int_bound 10_000) (int_range 1 255))
    (fun (data, at, xor) ->
      with_pm_client ~seed:78L (fun client devices ->
          let h =
            Test_util.ok_or_fail ~msg:"region"
              (Pm.Pm_client.create_region client ~name:"q" ~size:8192)
          in
          let q = Test_util.ok_or_fail ~msg:"queue" (Pm.Pm_queue.create client h) in
          let data = Bytes.of_string data in
          Test_util.check_result_ok "enqueue" (Pm.Pm_queue.enqueue q data);
          (* The frame sits at the head of the data area, 192 bytes in. *)
          let off = (Pm.Pm_client.info h).Pm.Pm_types.net_base + 192 in
          let len = 8 + Bytes.length data in
          List.iter
            (fun d -> Pm.Npmu.poke d ~off ~data:(flip_byte (Pm.Npmu.peek d ~off ~len) (at, xor)))
            devices;
          match Pm.Pm_queue.dequeue q with
          | Error _ -> true
          | Ok got -> got = Some data))

let suite =
  [
    ( "properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_lock_exclusion;
          prop_lock_shared_coexist;
          prop_avt_translation_in_bounds;
          prop_audit_stream_roundtrip;
          prop_mailbox_fifo;
          prop_region_extents_disjoint;
          prop_slot_byte_flip;
          prop_codec_sealed_formats;
          prop_audit_byte_flip;
          prop_queue_record_byte_flip;
        ] );
  ]

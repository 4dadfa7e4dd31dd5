(* Tests for the ServerNet fabric simulation. *)

open Simkit
open Servernet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- AVT --- *)

let test_avt_map_translate () =
  let avt = Avt.create () in
  Test_util.check_result_ok "map"
    (Avt.map avt ~net_base:0x1000 ~length:0x1000 ~phys_base:0x8000
       ~access:(Avt.read_write Avt.Any_initiator));
  match Avt.translate avt ~initiator:3 ~op:`Write ~addr:0x1800 ~len:16 with
  | Ok phys -> check_int "translated" 0x8800 phys
  | Error _ -> Alcotest.fail "translate failed"

let test_avt_unmapped () =
  let avt = Avt.create () in
  match Avt.translate avt ~initiator:0 ~op:`Read ~addr:0x10 ~len:4 with
  | Error Avt.Unmapped -> ()
  | _ -> Alcotest.fail "expected Unmapped"

let test_avt_access_control () =
  let avt = Avt.create () in
  Test_util.check_result_ok "map"
    (Avt.map avt ~net_base:0 ~length:256 ~phys_base:0
       ~access:{ Avt.readers = Avt.Any_initiator; writers = Avt.Initiators [ 7 ] });
  (match Avt.translate avt ~initiator:7 ~op:`Write ~addr:0 ~len:8 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "authorized writer rejected");
  (match Avt.translate avt ~initiator:8 ~op:`Write ~addr:0 ~len:8 with
  | Error Avt.Access_denied -> ()
  | _ -> Alcotest.fail "unauthorized writer accepted");
  match Avt.translate avt ~initiator:8 ~op:`Read ~addr:0 ~len:8 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "any-reader rejected"

let test_avt_window_crossing () =
  let avt = Avt.create () in
  Test_util.check_result_ok "map"
    (Avt.map avt ~net_base:0 ~length:64 ~phys_base:0 ~access:(Avt.read_write Avt.Any_initiator));
  match Avt.translate avt ~initiator:0 ~op:`Read ~addr:60 ~len:8 with
  | Error Avt.Crosses_window -> ()
  | _ -> Alcotest.fail "expected Crosses_window"

let test_avt_overlap_rejected () =
  let avt = Avt.create () in
  Test_util.check_result_ok "map"
    (Avt.map avt ~net_base:100 ~length:100 ~phys_base:0
       ~access:(Avt.read_write Avt.Any_initiator));
  match
    Avt.map avt ~net_base:150 ~length:100 ~phys_base:0
      ~access:(Avt.read_write Avt.Any_initiator)
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overlapping map accepted"

let test_avt_32bit_bound () =
  let avt = Avt.create () in
  match
    Avt.map avt ~net_base:((1 lsl 32) - 10) ~length:100 ~phys_base:0
      ~access:(Avt.read_write Avt.Any_initiator)
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "window past 32-bit space accepted"

let test_avt_unmap_and_set_access () =
  let avt = Avt.create () in
  Test_util.check_result_ok "map"
    (Avt.map avt ~net_base:0 ~length:16 ~phys_base:0 ~access:(Avt.read_write (Avt.Initiators [])));
  check_bool "set_access" true (Avt.set_access avt ~net_base:0 (Avt.read_write Avt.Any_initiator));
  (match Avt.translate avt ~initiator:5 ~op:`Write ~addr:0 ~len:4 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "reprogrammed access not honored");
  check_bool "unmap" true (Avt.unmap avt ~net_base:0);
  check_bool "double unmap" false (Avt.unmap avt ~net_base:0)

(* --- Fabric --- *)

let make_fabric ?config sim =
  let fabric = Fabric.create sim ?config () in
  let host = Fabric.attach fabric ~name:"host" ~store:(Fabric.byte_store 4096) in
  let dev = Fabric.attach fabric ~name:"dev" ~store:(Fabric.byte_store 65536) in
  Test_util.check_result_ok "map dev window"
    (Avt.map (Fabric.avt dev) ~net_base:0 ~length:65536 ~phys_base:0
       ~access:(Avt.read_write Avt.Any_initiator));
  (fabric, host, dev)

let test_rdma_write_read_roundtrip () =
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      let data = Test_util.bytes_of_string "hello persistent world" in
      Test_util.check_result_ok "write"
        (Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0x100 ~data);
      match Fabric.rdma_read fabric ~src:host ~dst:(Fabric.id dev) ~addr:0x100
              ~len:(Bytes.length data)
      with
      | Ok back -> Alcotest.(check string) "payload" (Bytes.to_string data) (Bytes.to_string back)
      | Error _ -> Alcotest.fail "read failed")

(* Padding travels as a length: the wire, the AVT check and the counters
   see every byte, the target zero-fills the tail over whatever was
   there, and [rdma_read_into] lands a range inside a larger buffer. *)
let test_rdma_padded_write_and_read_into () =
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      let dst = Fabric.id dev in
      Test_util.check_result_ok "stale bytes"
        (Fabric.rdma_write fabric ~src:host ~dst ~addr:0 ~data:(Bytes.make 600 'x'));
      let before = Fabric.stats fabric in
      let t0 = Sim.now sim in
      Test_util.check_result_ok "padded write"
        (Fabric.rdma_write ~pad:500 fabric ~src:host ~dst ~addr:10
           ~data:(Bytes.of_string "head"));
      check_int "charged for data and pad" (Fabric.transfer_time fabric ~bytes:504)
        (Sim.now sim - t0);
      check_int "counted with the pad" 504
        ((Fabric.stats fabric).Fabric.bytes_written - before.Fabric.bytes_written);
      let buf = Bytes.make 700 '?' in
      Test_util.check_result_ok "read into"
        (Fabric.rdma_read_into fabric ~src:host ~dst ~addr:0 ~len:600 ~buf ~pos:50);
      check_string "pad zeroed the stale bytes; the buffer outside the range is untouched"
        (String.make 50 '?' ^ String.make 10 'x' ^ "head" ^ String.make 500 '\000'
       ^ String.make 86 'x' ^ String.make 50 '?')
        (Bytes.to_string buf);
      (match
         Fabric.rdma_write ~pad:10 fabric ~src:host ~dst ~addr:65530 ~data:(Bytes.make 4 'y')
       with
      | Error (Fabric.Avt_error Avt.Crosses_window) -> ()
      | _ -> Alcotest.fail "the window check ignored the pad");
      Alcotest.check_raises "negative pad" (Invalid_argument "Fabric.rdma_write: negative pad")
        (fun () ->
          ignore (Fabric.rdma_write ~pad:(-1) fabric ~src:host ~dst ~addr:0 ~data:Bytes.empty));
      Alcotest.check_raises "short destination"
        (Invalid_argument "Fabric.rdma_read_into: destination out of range") (fun () ->
          ignore
            (Fabric.rdma_read_into fabric ~src:host ~dst ~addr:0 ~len:8 ~buf:(Bytes.create 4)
               ~pos:0)))

let test_rdma_latency_model () =
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      let t0 = Sim.now sim in
      let data = Bytes.create 4096 in
      Test_util.check_result_ok "write"
        (Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data);
      let elapsed = Sim.now sim - t0 in
      let nominal = Fabric.transfer_time fabric ~bytes:4096 in
      check_int "matches nominal time" nominal elapsed;
      (* 4 KB at 125 MB/s plus 12 us latency: within [40, 60] us. *)
      check_bool "tens of microseconds" true (elapsed > Time.us 40 && elapsed < Time.us 60))

let test_rdma_access_enforced () =
  Test_util.run_process (fun sim ->
      let fabric = Fabric.create sim () in
      let host = Fabric.attach fabric ~name:"host" ~store:(Fabric.byte_store 64) in
      let intruder = Fabric.attach fabric ~name:"intruder" ~store:(Fabric.byte_store 64) in
      let dev = Fabric.attach fabric ~name:"dev" ~store:(Fabric.byte_store 4096) in
      Test_util.check_result_ok "map"
        (Avt.map (Fabric.avt dev) ~net_base:0 ~length:4096 ~phys_base:0
           ~access:(Avt.read_write (Avt.Initiators [ Fabric.id host ])));
      (match
         Fabric.rdma_write fabric ~src:intruder ~dst:(Fabric.id dev) ~addr:0
           ~data:(Bytes.create 8)
       with
      | Error (Fabric.Avt_error Avt.Access_denied) -> ()
      | _ -> Alcotest.fail "intruder write not rejected");
      match
        Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data:(Bytes.create 8)
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "authorized write rejected")

let test_rdma_dead_endpoint () =
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      Fabric.set_alive dev false;
      match Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data:(Bytes.create 8) with
      | Error Fabric.Unreachable -> ()
      | _ -> Alcotest.fail "write to dead endpoint succeeded")

let test_rail_failover () =
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      Fabric.set_rail fabric 0 false;
      (* Rail X down: traffic flows on Y. *)
      Test_util.check_result_ok "degraded write"
        (Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data:(Bytes.create 8));
      Fabric.set_rail fabric 1 false;
      match Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data:(Bytes.create 8) with
      | Error Fabric.No_path -> ()
      | _ -> Alcotest.fail "write with both rails down succeeded")

let test_nic_serialization () =
  (* Two writes from the same NIC must not overlap in time. *)
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      let one_transfer = Fabric.transfer_time fabric ~bytes:4096 in
      let done_at = ref Time.zero in
      let writer () =
        Test_util.check_result_ok "write"
          (Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0
             ~data:(Bytes.create 4096));
        done_at := max !done_at (Sim.now sim)
      in
      let g = Gate.create 2 in
      let spawn_writer () =
        ignore
          (Sim.spawn sim ~name:"w" (fun () ->
               writer ();
               Gate.arrive g))
      in
      spawn_writer ();
      spawn_writer ();
      Gate.await g;
      check_bool "serialized" true (!done_at >= 2 * one_transfer))

let test_crc_retries_slow_but_deliver () =
  Test_util.run_process (fun sim ->
      let config = { Fabric.default_config with crc_error_rate = 0.2 } in
      let fabric, host, dev = make_fabric ~config sim in
      let data = Bytes.create 8192 in
      let t0 = Sim.now sim in
      Test_util.check_result_ok "write with noise"
        (Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data);
      let noisy = Sim.now sim - t0 in
      let stats = Fabric.stats fabric in
      check_bool "some retries happened" true (stats.Fabric.packet_retries > 0);
      check_bool "slower than nominal" true (noisy > Fabric.transfer_time fabric ~bytes:8192))

let test_fabric_stats () =
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      Test_util.check_result_ok "write"
        (Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data:(Bytes.create 100));
      (match Fabric.rdma_read fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~len:50 with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "read");
      let s = Fabric.stats fabric in
      check_int "writes" 1 s.Fabric.writes;
      check_int "reads" 1 s.Fabric.reads;
      check_int "bytes written" 100 s.Fabric.bytes_written;
      check_int "bytes read" 50 s.Fabric.bytes_read)

let prop_transfer_time_monotone =
  QCheck.Test.make ~name:"transfer time grows with size" ~count:50
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (a, b) ->
      let sim = Sim.create () in
      let fabric = Fabric.create sim () in
      let small = min a b and large = max a b in
      Fabric.transfer_time fabric ~bytes:small <= Fabric.transfer_time fabric ~bytes:large)

let test_avt_epoch_fence () =
  let avt = Avt.create () in
  Test_util.check_result_ok "map"
    (Avt.map avt ~net_base:0 ~length:256 ~phys_base:0
       ~access:(Avt.read_write Avt.Any_initiator));
  check_int "epoch starts at zero" 0 (Avt.epoch avt);
  Avt.set_epoch avt 3;
  (* Epoch-less writes and reads are never fenced — only a descriptor
     that claims an older volume generation is. *)
  Test_util.check_result_ok "epoch-less write"
    (Avt.translate avt ~initiator:0 ~op:`Write ~addr:0 ~len:8);
  Test_util.check_result_ok "current-epoch write"
    (Avt.translate avt ~initiator:0 ~op:`Write ~epoch:3 ~addr:0 ~len:8);
  (match Avt.translate avt ~initiator:0 ~op:`Write ~epoch:2 ~addr:0 ~len:8 with
  | Error Avt.Stale_epoch -> ()
  | _ -> Alcotest.fail "stale-epoch write accepted");
  (match Avt.translate avt ~initiator:0 ~op:`Read ~epoch:2 ~addr:0 ~len:8 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "reads must not be fenced");
  check_int "fenced writes counted" 1 (Avt.fenced avt)

let test_avt_epoch_monotone () =
  let avt = Avt.create () in
  Avt.set_epoch avt 5;
  Avt.set_epoch avt 5;
  check_int "same epoch ok" 5 (Avt.epoch avt);
  match Avt.set_epoch avt 4 with
  | () -> Alcotest.fail "epoch decreased"
  | exception Invalid_argument _ -> ()

(* --- Pages: the page-sparse device memory --- *)

type page_op =
  | P_write of int * string * int  (** offset, data, trailing zero pad *)
  | P_fill_zero of int * int
  | P_read of int * int
  | P_get of int
  | P_set of int * char
  | P_clear

(* The store's table has one entry per 4 KiB, each holding 16 pages. *)
let entry_size = 4096

(* Three table entries and a ragged tail, so the last entry and its
   last page are partial. *)
let pages_size = (3 * entry_size) + 123

let pages_count = (pages_size + Fabric.Pages.page_size - 1) / Fabric.Pages.page_size

(* Offsets cluster around page and entry boundaries so ranges straddle
   them, and the ragged end. *)
let gen_page_off =
  let near unit k d = max 0 (min pages_size ((k * unit) + d)) in
  QCheck.Gen.(
    oneof
      [
        map2 (near Fabric.Pages.page_size) (int_range 0 pages_count) (int_range (-40) 40);
        map2 (near entry_size) (int_range 0 4) (int_range (-40) 40);
      ])

let gen_page_op =
  let open QCheck.Gen in
  let off = gen_page_off in
  (* Data is sometimes all zeros, the shape a resync copies out of
     never-written memory. *)
  let data o =
    let n = int_range 0 (min 9000 (pages_size - o)) in
    frequency
      [ (3, string_size ~gen:printable n); (1, map (fun k -> String.make k '\000') n) ]
  in
  frequency
    [
      ( 4,
        off >>= fun o ->
        data o >>= fun s ->
        let room = pages_size - o - String.length s in
        map
          (fun pad -> P_write (o, s, pad))
          (frequency [ (1, return 0); (1, int_range 0 (min 6000 room)) ]) );
      (1, off >>= fun o -> map (fun n -> P_fill_zero (o, n)) (int_range 0 (pages_size - o)));
      (3, off >>= fun o -> map (fun n -> P_read (o, n)) (int_range 0 (pages_size - o)));
      (2, map (fun o -> P_get (min o (pages_size - 1))) off);
      (2, map2 (fun o c -> P_set (min o (pages_size - 1), c)) off printable);
      (1, return P_clear);
    ]

let gen_page_ops = QCheck.Gen.(list_size (int_range 1 40) gen_page_op)

let show_page_op = function
  | P_write (o, s, pad) ->
      Printf.sprintf "write %d+%d%s pad %d" o (String.length s)
        (if String.exists (fun c -> c <> '\000') s then "" else " zeros")
        pad
  | P_fill_zero (o, n) -> Printf.sprintf "fill_zero %d+%d" o n
  | P_read (o, n) -> Printf.sprintf "read %d+%d" o n
  | P_get o -> Printf.sprintf "get %d" o
  | P_set (o, c) -> Printf.sprintf "set %d %C" o c
  | P_clear -> "clear"

let show_page_ops ops = String.concat "; " (List.map show_page_op ops)

(* Apply one op to the store and to its flat model; [false] when a read
   or get disagrees with the model. *)
let apply_page_op p model = function
  | P_write (o, s, pad) ->
      Fabric.Pages.write ~pad p ~off:o ~data:(Bytes.of_string s);
      Bytes.blit_string s 0 model o (String.length s);
      Bytes.fill model (o + String.length s) pad '\000';
      true
  | P_fill_zero (o, n) ->
      Fabric.Pages.fill_zero p ~off:o ~len:n;
      Bytes.fill model o n '\000';
      true
  | P_read (o, n) -> Bytes.equal (Fabric.Pages.read p ~off:o ~len:n) (Bytes.sub model o n)
  | P_get o -> Fabric.Pages.get p o = Bytes.get model o
  | P_set (o, c) ->
      Fabric.Pages.set p o c;
      Bytes.set model o c;
      true
  | P_clear ->
      Fabric.Pages.clear p;
      Bytes.fill model 0 pages_size '\000';
      true

(* Beside the flat-bytes contents, the model tracks which pages have
   taken a non-zero byte or a [set] since the last clear: exactly those
   are resident, so zero data and padding never create a page. *)
let prop_pages_match_flat_bytes =
  QCheck.Test.make ~name:"pages behave as one flat zeroed Bytes" ~count:300
    (QCheck.make ~print:show_page_ops gen_page_ops)
    (fun ops ->
      let p = Fabric.Pages.create pages_size in
      let model = Bytes.make pages_size '\000' in
      let touched = Array.make pages_count false in
      let touch o = touched.(o / Fabric.Pages.page_size) <- true in
      let resident_ok () =
        Fabric.Pages.resident_pages p
        = Array.fold_left (fun n b -> if b then n + 1 else n) 0 touched
      in
      List.for_all
        (fun op ->
          let ok = apply_page_op p model op in
          (match op with
          | P_write (o, s, _) -> String.iteri (fun i c -> if c <> '\000' then touch (o + i)) s
          | P_set (o, _) -> touch o
          | P_clear -> Array.fill touched 0 pages_count false
          | P_fill_zero _ | P_read _ | P_get _ -> ());
          ok && resident_ok ())
        ops
      && Bytes.equal (Fabric.Pages.read p ~off:0 ~len:pages_size) model)

(* Two stores, each driven by its own ops; often the second replays the
   first's ops and a few more, so equal resident ranges are common. *)
let gen_pages_equal_case =
  let open QCheck.Gen in
  gen_page_ops >>= fun ops_a ->
  frequency
    [
      (1, gen_page_ops);
      (2, map (fun more -> ops_a @ more) (list_size (int_range 0 3) gen_page_op));
    ]
  >>= fun ops_b ->
  gen_page_off >>= fun off ->
  map (fun len -> (ops_a, ops_b, off, len)) (int_range 0 (pages_size - off))

let prop_pages_equal_matches_flat_bytes =
  QCheck.Test.make ~name:"Pages.equal == Bytes.equal of the flat models" ~count:300
    (QCheck.make
       ~print:(fun (a, b, off, len) ->
         Printf.sprintf "a: %s\nb: %s\nrange %d+%d" (show_page_ops a) (show_page_ops b) off len)
       gen_pages_equal_case)
    (fun (ops_a, ops_b, off, len) ->
      let build ops =
        let p = Fabric.Pages.create pages_size in
        let model = Bytes.make pages_size '\000' in
        List.iter (fun op -> ignore (apply_page_op p model op)) ops;
        (p, model)
      in
      let a, ma = build ops_a and b, mb = build ops_b in
      Fabric.Pages.equal a b ~off ~len = Bytes.equal (Bytes.sub ma off len) (Bytes.sub mb off len))

let test_pages_equal_compares_content () =
  let page = Fabric.Pages.page_size in
  let a = Fabric.Pages.create (4 * page) and b = Fabric.Pages.create (4 * page) in
  check_bool "untouched stores" true (Fabric.Pages.equal a b ~off:0 ~len:(4 * page));
  Fabric.Pages.set a (page + 5) 'x';
  Fabric.Pages.fill_zero a ~off:page ~len:page;
  check_int "the zeroed page stays resident" 1 (Fabric.Pages.resident_pages a);
  check_bool "zeroed resident page = never-written page" true
    (Fabric.Pages.equal a b ~off:0 ~len:(4 * page));
  Fabric.Pages.write a ~off:(page - 2) ~data:(Bytes.of_string "abcd");
  Fabric.Pages.write b ~off:(page - 2) ~data:(Bytes.of_string "abcd");
  check_bool "same bytes in distinct pages" true (Fabric.Pages.equal a b ~off:0 ~len:(4 * page));
  Fabric.Pages.set b ((4 * page) - 1) 'y';
  check_bool "last byte differs" false (Fabric.Pages.equal a b ~off:0 ~len:(4 * page));
  check_bool "range stops short of it" true (Fabric.Pages.equal a b ~off:0 ~len:((4 * page) - 1));
  let small = Fabric.Pages.create page in
  List.iter
    (fun (what, off, len) ->
      Alcotest.check_raises what (Invalid_argument "Fabric.Pages.equal: out of range") (fun () ->
          ignore (Fabric.Pages.equal a small ~off ~len)))
    [
      ("negative offset", -1, 2);
      ("negative length", 0, -1);
      ("past the shorter store", 0, page + 1);
      ("past both", 4 * page, 1);
    ]

let test_pages_zero_writes_stay_shared () =
  let page = Fabric.Pages.page_size in
  let p = Fabric.Pages.create (16 * page) in
  Fabric.Pages.write p ~off:100 ~data:(Bytes.make (5 * page) '\000');
  check_int "zero data on fresh pages creates none" 0 (Fabric.Pages.resident_pages p);
  Fabric.Pages.write ~pad:(3 * page) p ~off:(8 * page) ~data:Bytes.empty;
  Fabric.Pages.fill_zero p ~off:0 ~len:(16 * page);
  check_int "padding and fill_zero create none" 0 (Fabric.Pages.resident_pages p);
  check_string "still reads zero" (String.make (16 * page) '\000')
    (Bytes.to_string (Fabric.Pages.read p ~off:0 ~len:(16 * page)));
  (* A chunk with one non-zero byte still lands, and its zero neighbour
     chunk on the next page stays shared. *)
  let data = Bytes.make (2 * page) '\000' in
  Bytes.set data 17 'x';
  Fabric.Pages.write p ~off:(4 * page) ~data;
  check_int "only the page with data" 1 (Fabric.Pages.resident_pages p);
  check_bool "the byte landed" true (Fabric.Pages.get p ((4 * page) + 17) = 'x');
  (* Padding over a resident page clears it in place. *)
  Fabric.Pages.write ~pad:page p ~off:(4 * page) ~data:(Bytes.of_string "ab");
  check_string "pad zeroes the old byte" "ab\000\000"
    (Bytes.to_string (Fabric.Pages.read p ~off:(4 * page) ~len:4));
  check_bool "old byte gone" true (Fabric.Pages.get p ((4 * page) + 17) = '\000');
  Alcotest.check_raises "negative pad" (Invalid_argument "Fabric.Pages.write: negative pad")
    (fun () -> Fabric.Pages.write ~pad:(-1) p ~off:0 ~data:Bytes.empty);
  Alcotest.check_raises "pad past the end" (Invalid_argument "Fabric.Pages.write: out of range")
    (fun () -> Fabric.Pages.write ~pad:2 p ~off:((16 * page) - 1) ~data:Bytes.empty)

(* An audit trail's frames: a 60-byte head every 4,156 bytes, the rest
   zero padding.  Each head costs at most the two small pages it lands
   on, not a 4 KiB page. *)
let test_pages_small_heads_stay_small () =
  let size = 1 lsl 20 and stride = 4156 and head = 60 in
  let p = Fabric.Pages.create size and model = Bytes.make size '\000' in
  let heads = (size - head) / stride + 1 in
  for i = 0 to heads - 1 do
    let off = i * stride in
    let data = Bytes.init head (fun j -> Char.chr (1 + ((off + j) mod 251))) in
    Fabric.Pages.write ~pad:(min (stride - head) (size - off - head)) p ~off ~data;
    Bytes.blit data 0 model off head
  done;
  check_bool "at most two 256-byte pages per head" true
    (Fabric.Pages.resident_pages p * Fabric.Pages.page_size <= 2 * 256 * heads);
  check_bool "the range reads back as the flat model" true
    (Bytes.equal (Fabric.Pages.read p ~off:0 ~len:size) model)

let test_pages_unwritten_read_zero () =
  let page = Fabric.Pages.page_size in
  let p = Fabric.Pages.create (1 lsl 30) in
  check_int "a 1 GiB store starts with no page" 0 (Fabric.Pages.resident_pages p);
  let zeros n = String.make n '\000' in
  check_string "never-written range" (zeros 10_000)
    (Bytes.to_string (Fabric.Pages.read p ~off:((1 lsl 30) - 10_000) ~len:10_000));
  check_bool "get of a never-written byte" true (Fabric.Pages.get p 12345 = '\000');
  check_int "reads create no page" 0 (Fabric.Pages.resident_pages p);
  Fabric.Pages.write p ~off:(page - 2) ~data:(Bytes.of_string "abcd");
  check_int "a straddling write creates two pages" 2 (Fabric.Pages.resident_pages p);
  check_string "neighbours of the write stay zero" "\000\000abcd\000\000"
    (Bytes.to_string (Fabric.Pages.read p ~off:(page - 4) ~len:8));
  check_bool "a third page is still zero" true (Fabric.Pages.get p (2 * page) = '\000');
  Alcotest.check_raises "past the end" (Invalid_argument "Fabric.Pages.read: out of range")
    (fun () -> ignore (Fabric.Pages.read p ~off:((1 lsl 30) - 1) ~len:2));
  Fabric.Pages.clear p;
  check_int "clear drops every page" 0 (Fabric.Pages.resident_pages p);
  check_string "cleared range reads zero" (zeros 8)
    (Bytes.to_string (Fabric.Pages.read p ~off:(page - 4) ~len:8))

let suite =
  [
    ( "servernet.avt",
      [
        Alcotest.test_case "map and translate" `Quick test_avt_map_translate;
        Alcotest.test_case "unmapped address" `Quick test_avt_unmapped;
        Alcotest.test_case "per-initiator access control" `Quick test_avt_access_control;
        Alcotest.test_case "window crossing rejected" `Quick test_avt_window_crossing;
        Alcotest.test_case "overlapping windows rejected" `Quick test_avt_overlap_rejected;
        Alcotest.test_case "32-bit space enforced" `Quick test_avt_32bit_bound;
        Alcotest.test_case "unmap and set_access" `Quick test_avt_unmap_and_set_access;
        Alcotest.test_case "epoch fences stale writes" `Quick test_avt_epoch_fence;
        Alcotest.test_case "epoch is monotone" `Quick test_avt_epoch_monotone;
      ] );
    ( "servernet.fabric",
      [
        Alcotest.test_case "write/read roundtrip" `Quick test_rdma_write_read_roundtrip;
        Alcotest.test_case "latency in tens of microseconds" `Quick test_rdma_latency_model;
        Alcotest.test_case "padded write, read into" `Quick test_rdma_padded_write_and_read_into;
        Alcotest.test_case "AVT enforced on the wire" `Quick test_rdma_access_enforced;
        Alcotest.test_case "dead endpoint unreachable" `Quick test_rdma_dead_endpoint;
        Alcotest.test_case "rail failover then no-path" `Quick test_rail_failover;
        Alcotest.test_case "NIC serializes concurrent transfers" `Quick test_nic_serialization;
        Alcotest.test_case "CRC errors retry and slow down" `Quick test_crc_retries_slow_but_deliver;
        Alcotest.test_case "statistics counters" `Quick test_fabric_stats;
        QCheck_alcotest.to_alcotest prop_transfer_time_monotone;
      ] );
    ( "servernet.pages",
      [
        QCheck_alcotest.to_alcotest prop_pages_match_flat_bytes;
        Alcotest.test_case "never-written ranges read zero" `Quick test_pages_unwritten_read_zero;
        Alcotest.test_case "zero writes keep pages shared" `Quick test_pages_zero_writes_stay_shared;
        QCheck_alcotest.to_alcotest prop_pages_equal_matches_flat_bytes;
        Alcotest.test_case "equal compares content" `Quick test_pages_equal_compares_content;
        Alcotest.test_case "small heads stay small" `Quick test_pages_small_heads_stay_small;
      ] );
  ]

open Simkit

type error = Unreachable | No_path | Avt_error of Avt.error | Crc_failure

let pp_error ppf = function
  | Unreachable -> Format.pp_print_string ppf "target endpoint unreachable"
  | No_path -> Format.pp_print_string ppf "no rail up between endpoints"
  | Avt_error e -> Format.fprintf ppf "AVT: %a" Avt.pp_error e
  | Crc_failure -> Format.pp_print_string ppf "CRC retries exhausted"

let error_to_string e = Format.asprintf "%a" pp_error e

(* One-way software+hardware latency per operation (the paper reports
   10-20 µs for ServerNet), maximum payload per packet, and the
   per-packet overhead. *)
let sw_latency = Time.us 12
let packet_bytes = 512
let per_packet_overhead = Time.ns 200

type config = {
  bytes_per_ns : float;
  crc_error_rate : float;
  max_retries : int;
  rails : int;
}

let default_config =
  {
    bytes_per_ns = 0.125 (* 125 MB/s *);
    crc_error_rate = 0.0;
    max_retries = 8;
    rails = 2;
  }

(* [a.[pa, pa + n)] and [b.[pb, pb + n)] hold the same bytes: 64-bit
   loads, then a byte tail. *)
let sub_equal a pa b pb n =
  let i = ref 0 in
  while !i + 8 <= n && Bytes.get_int64_ne a (pa + !i) = Bytes.get_int64_ne b (pb + !i) do
    i := !i + 8
  done;
  while !i < n && Bytes.get a (pa + !i) = Bytes.get b (pb + !i) do
    incr i
  done;
  !i >= n

module Pages = struct
  (* A store is a table with one entry per 4 KiB of its range; an entry
     holds 16 pages of 256 bytes.  A small write (an audit frame's head)
     thus costs one small page, while the table stays as long as a
     4 KiB-paged store's. *)
  let page_bits = 8 and entry_bits = 12

  let page_size = 1 lsl page_bits and entry_size = 1 lsl entry_bits

  let per_entry = entry_size / page_size

  (* Every untouched page of every store aliases [zero], and every
     untouched entry [zero_entry]; neither is ever written, because a
     write first swaps in a private copy. *)
  let zero = Bytes.make page_size '\000'

  let zero_entry = Array.make per_entry zero

  type t = { size : int; entries : Bytes.t array array; mutable resident : int }

  let create size =
    if size < 0 then invalid_arg "Fabric.Pages.create: negative size";
    { size; entries = Array.make ((size + entry_size - 1) lsr entry_bits) zero_entry; resident = 0 }

  let size t = t.size

  let resident_pages t = t.resident

  let check t what ~off ~len =
    if off < 0 || len < 0 || off > t.size - len then
      invalid_arg ("Fabric.Pages." ^ what ^ ": out of range")

  let entry t a = t.entries.(a lsr entry_bits)

  let page e a = e.((a lsr page_bits) land (per_entry - 1))

  (* Bytes from [a], capped at [rest], in [a]'s page or, when that is
     the zero page, in the run of zero pages it starts within [a]'s entry
     [e]: an untouched entry is one run. *)
  let run e a rest =
    let j = ref ((a lsr page_bits) land (per_entry - 1)) in
    if e == zero_entry then j := per_entry - 1
    else if e.(!j) == zero then
      while !j + 1 < per_entry && e.(!j + 1) == zero do
        incr j
      done;
    Int.min (((!j + 1) lsl page_bits) - (a land (entry_size - 1))) rest

  let page_rest a rest = Int.min (page_size - (a land (page_size - 1))) rest

  let writable t a =
    let i = a lsr entry_bits and j = (a lsr page_bits) land (per_entry - 1) in
    if t.entries.(i) == zero_entry then t.entries.(i) <- Array.make per_entry zero;
    let e = t.entries.(i) in
    if e.(j) == zero then begin
      e.(j) <- Bytes.make page_size '\000';
      t.resident <- t.resident + 1
    end;
    e.(j)

  (* [data.[pos, pos + n)] is all zero bytes; 64-bit loads, then a byte
     tail. *)
  let is_zero data pos n =
    let i = ref pos and stop = pos + n in
    while !i + 8 <= stop && Bytes.get_int64_ne data !i = 0L do
      i := !i + 8
    done;
    while !i < stop && Bytes.unsafe_get data !i = '\000' do
      incr i
    done;
    !i >= stop

  (* The loops below split [off, off + len) into resident pages and runs
     of zero pages; [pos] counts from [off].  They are written out rather
     than sharing an iterator so the RDMA hot path allocates no closure. *)
  let read_into t ~off ~len ~dst ~dst_off =
    check t "read_into" ~off ~len;
    if dst_off < 0 || dst_off > Bytes.length dst - len then
      invalid_arg "Fabric.Pages.read_into: destination out of range";
    let pos = ref 0 in
    while !pos < len do
      let a = off + !pos in
      let e = entry t a in
      let n = run e a (len - !pos) and p = page e a in
      if p == zero then Bytes.fill dst (dst_off + !pos) n '\000'
      else Bytes.blit p (a land (page_size - 1)) dst (dst_off + !pos) n;
      pos := !pos + n
    done

  let read t ~off ~len =
    check t "read" ~off ~len;
    let out = Bytes.create len in
    read_into t ~off ~len ~dst:out ~dst_off:0;
    out

  (* One pointer test per page, or per untouched entry: [run] steps over
     a whole run of zero pages at once. *)
  let untouched t ~off ~len =
    check t "untouched" ~off ~len;
    let pos = ref 0 and clean = ref true in
    while !clean && !pos < len do
      let a = off + !pos in
      let e = entry t a in
      clean := page e a == zero;
      pos := !pos + run e a (len - !pos)
    done;
    !clean

  (* Zero bytes landing on a page that still aliases [zero] change
     nothing, so the page stays shared: a resync copying never-written
     memory makes no page resident. *)
  let fill_zero t ~off ~len =
    check t "fill_zero" ~off ~len;
    let pos = ref 0 in
    while !pos < len do
      let a = off + !pos in
      let e = entry t a in
      let n = run e a (len - !pos) and p = page e a in
      if p != zero then Bytes.fill p (a land (page_size - 1)) n '\000';
      pos := !pos + n
    done

  let write ?(pad = 0) t ~off ~data =
    let len = Bytes.length data in
    if pad < 0 then invalid_arg "Fabric.Pages.write: negative pad";
    check t "write" ~off ~len:(len + pad);
    let pos = ref 0 in
    while !pos < len do
      let a = off + !pos in
      let n = page_rest a (len - !pos) in
      if not (page (entry t a) a == zero && is_zero data !pos n) then
        Bytes.blit data !pos (writable t a) (a land (page_size - 1)) n;
      pos := !pos + n
    done;
    if pad > 0 then fill_zero t ~off:(off + len) ~len:pad

  (* Entries or pages that are the same value — in practice both still
     the shared zero entry or page — are equal unread; any other pair of
     pages is compared in place, so a zeroed resident page equals an
     untouched one. *)
  let equal a b ~off ~len =
    check a "equal" ~off ~len;
    check b "equal" ~off ~len;
    let pos = ref 0 and same = ref true in
    while !same && !pos < len do
      let x = off + !pos in
      let ea = entry a x and eb = entry b x in
      let n =
        if ea == eb then Int.min (entry_size - (x land (entry_size - 1))) (len - !pos)
        else begin
          let n = page_rest x (len - !pos) and pa = page ea x and pb = page eb x in
          same := pa == pb || sub_equal pa (x land (page_size - 1)) pb (x land (page_size - 1)) n;
          n
        end
      in
      pos := !pos + n
    done;
    !same

  let get t off =
    check t "get" ~off ~len:1;
    Bytes.get (page (entry t off) off) (off land (page_size - 1))

  let set t off c =
    check t "set" ~off ~len:1;
    Bytes.set (writable t off) (off land (page_size - 1)) c

  let clear t =
    Array.fill t.entries 0 (Array.length t.entries) zero_entry;
    t.resident <- 0
end

type store = {
  size : int;
  read_into : off:int -> len:int -> dst:Bytes.t -> dst_off:int -> unit;
  write : off:int -> data:Bytes.t -> pad:int -> unit;
}

let pages_store p =
  {
    size = Pages.size p;
    read_into = Pages.read_into p;
    write = (fun ~off ~data ~pad -> Pages.write ~pad p ~off ~data);
  }

let byte_store size = pages_store (Pages.create size)

type endpoint = {
  ep_id : int;
  ep_store : store;
  ep_avt : Avt.t;
  mutable ep_alive : bool;
  mutable nic_free_at : Time.t;
  mutable ep_probe : Probe.t option;
  mutable ep_slow : float;  (** fail-slow latency multiplier, >= 1.0 *)
  mutable ep_jitter : Time.span;  (** max extra seeded jitter per transfer *)
}

type stats = {
  writes : int;
  reads : int;
  bytes_written : int;
  bytes_read : int;
  packet_retries : int;
  failures : int;
}

type t = {
  sim : Sim.t;
  cfg : config;
  rng : Rng.t;
  mutable endpoints : endpoint list;
  mutable next_id : int;
  rail_up : bool array;
  rail_slow : float array;  (** per-rail latency multiplier, >= 1.0 *)
  mutable crc_rate : float;
  mutable st_writes : int;
  mutable st_reads : int;
  mutable st_bytes_written : int;
  mutable st_bytes_read : int;
  mutable st_retries : int;
  mutable st_failures : int;
  obs : Obs.t option;
  xfer_stat : Stat.t option;
  rail_probe : Probe.t option;
  retry_counter : Stat.Counter.t option;
}

let create sim ?(config = default_config) ?obs () =
  if config.rails <= 0 then invalid_arg "Fabric.create: need at least one rail";
  let t =
    {
      sim;
      cfg = config;
      rng = Rng.split (Sim.rng sim);
      endpoints = [];
      next_id = 0;
      rail_up = Array.make config.rails true;
      rail_slow = Array.make config.rails 1.0;
      crc_rate = config.crc_error_rate;
      st_writes = 0;
      st_reads = 0;
      st_bytes_written = 0;
      st_bytes_read = 0;
      st_retries = 0;
      st_failures = 0;
      obs;
      xfer_stat = Obs.stat obs "fabric.xfer_ns";
      (* In-flight RDMA operations across the whole fabric; busy time is
         the initiator-observed duration, so an aggregate util above 1.0
         means concurrent transfers. *)
      rail_probe = Obs.probe obs "fabric.rail";
      retry_counter = Obs.counter obs "fabric.retries";
    }
  in
  Obs.gauge obs "fabric.rdma_writes" (fun () -> float_of_int t.st_writes);
  Obs.gauge obs "fabric.rdma_reads" (fun () -> float_of_int t.st_reads);
  Obs.gauge obs "fabric.bytes_written" (fun () -> float_of_int t.st_bytes_written);
  Obs.gauge obs "fabric.bytes_read" (fun () -> float_of_int t.st_bytes_read);
  Obs.gauge obs "fabric.packet_retries" (fun () -> float_of_int t.st_retries);
  Obs.gauge obs "fabric.failures" (fun () -> float_of_int t.st_failures);
  t

let set_endpoint_probe ep p = ep.ep_probe <- p

let start_op t ?parent name ~bytes =
  Obs.enqueue t.rail_probe;
  let sp = Obs.start t.obs ~track:"fabric" ?parent name in
  if not (Span.is_null sp) then Span.annotate sp ~key:"bytes" (string_of_int bytes);
  sp

let finish_op t sp ~t0 =
  let dt = Sim.now t.sim - t0 in
  Obs.note t.xfer_stat dt;
  Obs.served t.rail_probe dt;
  Obs.finish t.obs sp

let config t = t.cfg

let attach t ~name:_ ~store =
  let ep =
    {
      ep_id = t.next_id;
      ep_store = store;
      ep_avt = Avt.create ();
      ep_alive = true;
      nic_free_at = Time.zero;
      ep_probe = None;
      ep_slow = 1.0;
      ep_jitter = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.endpoints <- ep :: t.endpoints;
  ep

let id ep = ep.ep_id

let avt ep = ep.ep_avt

let find t i = List.find_opt (fun ep -> ep.ep_id = i) t.endpoints

let set_alive ep alive = ep.ep_alive <- alive

let set_rail t rail up =
  if rail < 0 || rail >= Array.length t.rail_up then invalid_arg "Fabric.set_rail: bad rail";
  t.rail_up.(rail) <- up

let rail_is_up t rail = t.rail_up.(rail)

let set_endpoint_slow ep ~factor ~jitter =
  if factor < 1.0 then invalid_arg "Fabric.set_endpoint_slow: factor >= 1.0";
  if jitter < 0 then invalid_arg "Fabric.set_endpoint_slow: negative jitter";
  ep.ep_slow <- factor;
  ep.ep_jitter <- jitter

let clear_endpoint_slow ep =
  ep.ep_slow <- 1.0;
  ep.ep_jitter <- 0

let endpoint_slow ep = ep.ep_slow

let set_rail_slow t rail factor =
  if rail < 0 || rail >= Array.length t.rail_slow then
    invalid_arg "Fabric.set_rail_slow: bad rail";
  if factor < 1.0 then invalid_arg "Fabric.set_rail_slow: factor >= 1.0";
  t.rail_slow.(rail) <- factor

let rail_slow t rail = t.rail_slow.(rail)

let set_crc_error_rate t rate =
  if rate < 0.0 || rate >= 1.0 then invalid_arg "Fabric.set_crc_error_rate: rate in [0,1)";
  t.crc_rate <- rate

let crc_error_rate t = t.crc_rate

let pick_rail t =
  let n = Array.length t.rail_up in
  let rec go i = if i >= n then None else if t.rail_up.(i) then Some i else go (i + 1) in
  go 0

let packets_of len = max 1 ((len + packet_bytes - 1) / packet_bytes)

let transfer_time t ~bytes =
  let packets = packets_of bytes in
  sw_latency
  + (packets * per_packet_overhead)
  + int_of_float (float_of_int bytes /. t.cfg.bytes_per_ns)

(* Sample the number of CRC retransmissions needed for [packets] packets;
   [None] means some packet exceeded max_retries. *)
let sample_retries t packets =
  if t.crc_rate <= 0.0 then Some 0
  else
    let total = ref 0 in
    let failed = ref false in
    for _ = 1 to packets do
      let tries = ref 0 in
      while (not !failed) && Rng.bool t.rng t.crc_rate do
        incr tries;
        if !tries > t.cfg.max_retries then failed := true
      done;
      total := !total + !tries
    done;
    if !failed then None else Some !total

(* Occupy both NICs and advance simulated time for one attempt over a rail;
   returns the chosen rail, or None if no rail was up. *)
let do_transfer t src dst bytes =
  match pick_rail t with
  | None -> Error No_path
  | Some rail ->
      let start = max (Sim.now t.sim) (max src.nic_free_at dst.nic_free_at) in
      let packets = packets_of bytes in
      Prof.bump_packets packets;
      let retries = sample_retries t packets in
      let retry_count, ok =
        match retries with Some r -> (r, true) | None -> (t.cfg.max_retries, false)
      in
      t.st_retries <- t.st_retries + retry_count;
      Obs.add t.retry_counter retry_count;
      let duration =
        transfer_time t ~bytes
        + (retry_count * (per_packet_overhead + Time.ns 4096))
      in
      (* Gray-failure injection: a degraded endpoint or rail stretches
         the whole attempt, plus seeded jitter so tails are noisy rather
         than a clean multiple.  The healthy path (all factors 1.0, no
         jitter) never touches the RNG, keeping event streams stable.
         A fail-slow *far end* stretches only the completion: the
         initiator's NIC issued the op and is free to pipeline others
         (hedged reads depend on this), while a slow rail or a slow
         local NIC holds the initiator for the whole attempt. *)
      let slow_src = src.ep_slow *. t.rail_slow.(rail) in
      let slow = slow_src *. dst.ep_slow in
      let src_hold =
        if slow_src > 1.0 then int_of_float (float_of_int duration *. slow_src) else duration
      in
      let duration =
        if slow > 1.0 then int_of_float (float_of_int duration *. slow) else duration
      in
      let jmax = src.ep_jitter + dst.ep_jitter in
      let duration = if jmax > 0 then duration + Rng.uniform_span t.rng jmax else duration in
      let finish = start + duration in
      src.nic_free_at <- start + src_hold;
      dst.nic_free_at <- finish;
      Sim.wait_until finish;
      if not ok then Error Crc_failure
      else if not (rail_is_up t rail) then
        (* The rail failed mid-transfer: hardware acks never arrived. *)
        Error No_path
      else Ok rail

let rec transfer_with_failover t src dst bytes ~attempts =
  match do_transfer t src dst bytes with
  | Ok _ -> Ok ()
  | Error No_path when attempts > 0 && pick_rail t <> None ->
      (* Another rail is up: the NIC retries the operation on it. *)
      transfer_with_failover t src dst bytes ~attempts:(attempts - 1)
  | Error e -> Error e

let fail t e =
  t.st_failures <- t.st_failures + 1;
  Error e

let resolve_target t dst =
  match find t dst with
  | None -> Error Unreachable
  | Some ep -> if ep.ep_alive then Ok ep else Error Unreachable

let rdma_write ?span ?epoch ?(pad = 0) t ~src ~dst ~addr ~data =
  if pad < 0 then invalid_arg "Fabric.rdma_write: negative pad";
  (* Trailing zero padding travels as a length: it is charged, checked
     and counted like any other byte, but never built or copied. *)
  let len = Bytes.length data + pad in
  let t0 = Sim.now t.sim in
  let sp = start_op t ?parent:span "fabric.rdma_write" ~bytes:len in
  let result =
    match resolve_target t dst with
    | Error e -> fail t e
    | Ok target ->
        Obs.enqueue target.ep_probe;
        let r =
          if not src.ep_alive then fail t Unreachable
          else
            match transfer_with_failover t src target len ~attempts:t.cfg.rails with
            | Error e -> fail t e
            | Ok () -> (
                (* Address validation happens in the target NIC on arrival. *)
                match
                  Avt.translate ?epoch target.ep_avt ~initiator:src.ep_id ~op:`Write
                    ~addr ~len
                with
                | Error e -> fail t (Avt_error e)
                | Ok phys ->
                    target.ep_store.write ~off:phys ~data ~pad;
                    t.st_writes <- t.st_writes + 1;
                    t.st_bytes_written <- t.st_bytes_written + len;
                    Ok ())
        in
        Obs.served target.ep_probe (Sim.now t.sim - t0);
        r
  in
  (match result with
  | Ok () -> ()
  | Error e ->
      if not (Span.is_null sp) then Span.annotate sp ~key:"error" (error_to_string e));
  finish_op t sp ~t0;
  result

let rdma_read_into ?span t ~src ~dst ~addr ~len ~buf ~pos =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Fabric.rdma_read_into: destination out of range";
  let t0 = Sim.now t.sim in
  let sp = start_op t ?parent:span "fabric.rdma_read" ~bytes:len in
  let result =
    match resolve_target t dst with
    | Error e -> fail t e
    | Ok target ->
        Obs.enqueue target.ep_probe;
        let r =
          if not src.ep_alive then fail t Unreachable
          else
            match
              Avt.translate target.ep_avt ~initiator:src.ep_id ~op:`Read ~addr ~len
            with
            | Error e -> fail t (Avt_error e)
            | Ok phys -> (
                match transfer_with_failover t src target len ~attempts:t.cfg.rails with
                | Error e -> fail t e
                | Ok () ->
                    (* The data lands only on completion: a failed or
                       still-running read leaves [buf] untouched. *)
                    target.ep_store.read_into ~off:phys ~len ~dst:buf ~dst_off:pos;
                    t.st_reads <- t.st_reads + 1;
                    t.st_bytes_read <- t.st_bytes_read + len;
                    Ok ())
        in
        Obs.served target.ep_probe (Sim.now t.sim - t0);
        r
  in
  (match result with
  | Ok () -> ()
  | Error e ->
      if not (Span.is_null sp) then Span.annotate sp ~key:"error" (error_to_string e));
  finish_op t sp ~t0;
  result

let rdma_read ?span t ~src ~dst ~addr ~len =
  let buf = Bytes.create len in
  match rdma_read_into ?span t ~src ~dst ~addr ~len ~buf ~pos:0 with
  | Ok () -> Ok buf
  | Error e -> Error e

let stats t =
  {
    writes = t.st_writes;
    reads = t.st_reads;
    bytes_written = t.st_bytes_written;
    bytes_read = t.st_bytes_read;
    packet_retries = t.st_retries;
    failures = t.st_failures;
  }

module Pages = Servernet.Fabric.Pages

type t = {
  npmu_name : string;
  capacity : int;
  mem : Pages.t;
  ep : Servernet.Fabric.endpoint;
  mutable powered : bool;
  mutable st_power_cycles : int;
  st_writes : int ref;
  st_reads : int ref;
  st_bytes_written : int ref;
  last_write : (int * int) option ref;
  mutable st_decay_events : int;
  mutable st_bits_flipped : int;
  mutable st_torn_writes : int;
  mutable st_degrade_events : int;
}

let create (_ : Simkit.Sim.t) fabric ~name ~capacity =
  if capacity <= 0 then invalid_arg "Npmu.create: capacity must be positive";
  let mem = Pages.create capacity in
  let st_writes = ref 0 and st_reads = ref 0 and st_bytes_written = ref 0 in
  let last_write = ref None in
  let store =
    {
      Servernet.Fabric.size = capacity;
      read_into =
        (fun ~off ~len ~dst ~dst_off ->
          incr st_reads;
          Pages.read_into mem ~off ~len ~dst ~dst_off);
      write =
        (fun ~off ~data ~pad ->
          let len = Bytes.length data + pad in
          incr st_writes;
          st_bytes_written := !st_bytes_written + len;
          last_write := Some (off, len);
          Pages.write ~pad mem ~off ~data);
    }
  in
  let ep = Servernet.Fabric.attach fabric ~name ~store in
  { npmu_name = name; capacity; mem; ep; powered = true;
    st_power_cycles = 0; st_writes; st_reads; st_bytes_written; last_write;
    st_decay_events = 0; st_bits_flipped = 0; st_torn_writes = 0;
    st_degrade_events = 0 }

let instrument ?obs t =
  let prefix = "npmu." ^ t.npmu_name in
  let gauge suffix fn = Simkit.Obs.gauge obs (prefix ^ suffix) fn in
  gauge ".writes" (fun () -> float_of_int !(t.st_writes));
  gauge ".reads" (fun () -> float_of_int !(t.st_reads));
  gauge ".bytes_written" (fun () -> float_of_int !(t.st_bytes_written));
  gauge ".fenced_writes" (fun () ->
      float_of_int (Servernet.Avt.fenced (Servernet.Fabric.avt t.ep)));
  gauge ".decay_events" (fun () -> float_of_int t.st_decay_events);
  gauge ".torn_writes" (fun () -> float_of_int t.st_torn_writes);
  (* Outstanding RDMA operations targeting this NPMU, accounted by the
     fabric at the target side. *)
  Servernet.Fabric.set_endpoint_probe t.ep (Simkit.Obs.probe obs prefix)

let writes t = !(t.st_writes)

let bytes_written t = !(t.st_bytes_written)

let name t = t.npmu_name

let capacity t = t.capacity

let id t = Servernet.Fabric.id t.ep

let avt t = Servernet.Fabric.avt t.ep

let mem t = t.mem

let is_powered t = t.powered

let power_loss t =
  if t.powered then begin
    t.powered <- false;
    t.st_power_cycles <- t.st_power_cycles + 1;
    Servernet.Fabric.set_alive t.ep false
  end

let power_cycles t = t.st_power_cycles

let fenced_writes t = Servernet.Avt.fenced (Servernet.Fabric.avt t.ep)

let power_restore t =
  if not t.powered then begin
    t.powered <- true;
    Servernet.Fabric.set_alive t.ep true
  end

let peek t ~off ~len =
  if off < 0 || len < 0 || off + len > t.capacity then invalid_arg "Npmu.peek: out of range";
  Pages.read t.mem ~off ~len

let poke t ~off ~data =
  let len = Bytes.length data in
  if off < 0 || off + len > t.capacity then invalid_arg "Npmu.poke: out of range";
  Pages.write t.mem ~off ~data

let flip t i mask =
  let v = Char.code (Pages.get t.mem i) in
  Pages.set t.mem i (Char.chr (v lxor mask))

let decay t ~off ~bits =
  if bits <= 0 then invalid_arg "Npmu.decay: bits must be positive";
  let span = (bits + 7) / 8 in
  if off < 0 || off + span > t.capacity then invalid_arg "Npmu.decay: out of range";
  for i = 0 to bits - 1 do
    flip t (off + (i / 8)) (1 lsl (i mod 8))
  done;
  t.st_decay_events <- t.st_decay_events + 1;
  t.st_bits_flipped <- t.st_bits_flipped + bits

let decay_events t = t.st_decay_events

let bits_flipped t = t.st_bits_flipped

let tear_last_write t =
  match !(t.last_write) with
  | None -> None
  | Some (_, len) when len < 2 -> None
  | Some (off, len) ->
      (* A power cut mid-store leaves the leading words of the last RDMA
         write intact and the trailing half garbled: the NIC pushes the
         payload in order, so the tear is always a suffix. *)
      let tear_off = off + (len / 2) in
      let tear_len = len - (len / 2) in
      for i = tear_off to tear_off + tear_len - 1 do
        flip t i 0x5A
      done;
      t.st_torn_writes <- t.st_torn_writes + 1;
      Some (tear_off, tear_len)

let torn_writes t = t.st_torn_writes

let degrade t ~factor ?(jitter = 0) () =
  Servernet.Fabric.set_endpoint_slow t.ep ~factor ~jitter;
  t.st_degrade_events <- t.st_degrade_events + 1

let restore_speed t = Servernet.Fabric.clear_endpoint_slow t.ep

let slow_factor t = Servernet.Fabric.endpoint_slow t.ep

let is_degraded t = slow_factor t > 1.0

let degrade_events t = t.st_degrade_events

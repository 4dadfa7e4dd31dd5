open Simkit

type error = Server_down | Timed_out

let pp_error ppf = function
  | Server_down -> Format.pp_print_string ppf "server down"
  | Timed_out -> Format.pp_print_string ppf "timed out"

type ('req, 'resp) envelope = {
  payload : 'req;
  resp_bytes : int;
  reply : ('resp, error) result Ivar.t;
  env_span : Span.span;
  env_sent : Time.t;  (** delivery into the inbox; dequeue minus this = queue wait *)
  env_seq : int;  (** per-port delivery number: this call's key in [outstanding] *)
}

type ('req, 'resp) server = {
  fabric : Servernet.Fabric.t;
  mutable cpu : Cpu.t;
  mutable inbox : ('req, 'resp) envelope Mailbox.t;
  outstanding : (int, ('resp, error) result Ivar.t) Hashtbl.t;
      (** delivered calls whose reply has not been filled, by delivery number *)
  mutable delivered : int;
  mutable epoch : int;
  mutable extra_latency : Time.span;
  mutable last_span : Span.span;
  mutable last_wait : Time.span;
  hop_stat : Stat.t option;
  req_counter : Stat.Counter.t option;
  inbox_probe : Probe.t option;
}

let create_server ?obs fabric ~cpu ~name:_ =
  {
    fabric;
    cpu;
    inbox = Mailbox.create ();
    outstanding = Hashtbl.create 16;
    delivered = 0;
    epoch = 0;
    extra_latency = 0;
    last_span = Span.null;
    last_wait = 0;
    hop_stat = Obs.stat obs "msg.hop_ns";
    req_counter = Obs.counter obs "msg.requests";
    (* One aggregate probe across every server: depth = total queued
       requests, busy = wire time spent moving envelopes. *)
    inbox_probe = Obs.probe obs "msgsys.inbox";
  }

let note_hop s dt =
  Obs.note s.hop_stat dt;
  Obs.busy s.inbox_probe dt

let set_extra_latency s span =
  if span < 0 then invalid_arg "Msgsys.set_extra_latency: negative span";
  s.extra_latency <- span

let call_async s ~from ?(req_bytes = 256) ?(resp_bytes = 256) ?span payload =
  let reply = Ivar.create () in
  if not (Cpu.is_up from) then Ivar.fill reply (Error Server_down)
  else begin
    let sect = Prof.section_begin () in
    let sim = Cpu.sim from in
    (* Request wire time, then delivery (if the target is still up). *)
    let dt = Servernet.Fabric.transfer_time s.fabric ~bytes:req_bytes + s.extra_latency in
    note_hop s dt;
    Obs.incr s.req_counter;
    let env_span = match span with Some sp -> sp | None -> Span.null in
    Sim.at sim ~after:dt (fun () ->
        if not (Cpu.is_up s.cpu) then ignore (Ivar.try_fill reply (Error Server_down))
        else begin
          let env_seq = s.delivered in
          s.delivered <- env_seq + 1;
          Hashtbl.replace s.outstanding env_seq reply;
          Obs.enqueue s.inbox_probe;
          Prof.bump_envelope ();
          Mailbox.send s.inbox
            { payload; resp_bytes; reply; env_span; env_sent = Sim.now sim; env_seq }
        end);
    Prof.section_end sect "msgsys"
  end;
  reply

let call s ~from ?req_bytes ?resp_bytes ?timeout ?span payload =
  let reply = call_async s ~from ?req_bytes ?resp_bytes ?span payload in
  match timeout with
  | None -> Ivar.read reply
  | Some span -> (
      match Ivar.read_timeout reply span with Some r -> r | None -> Error Timed_out)

let caller_span s = s.last_span

let caller_wait s = s.last_wait

(* Dequeue bookkeeping shared by both receive paths.  The reply closure
   is a no-op once the port has failed or moved since the dequeue; its
   scheduled fill retires the call's [outstanding] entry. *)
let accept s env =
  Obs.dequeue s.inbox_probe;
  s.last_span <- env.env_span;
  s.last_wait <- Sim.now (Cpu.sim s.cpu) - env.env_sent;
  let epoch = s.epoch in
  let respond resp =
    if s.epoch = epoch then begin
      (* Reply wire time, paid off the server's critical path. *)
      let dt =
        Servernet.Fabric.transfer_time s.fabric ~bytes:env.resp_bytes + s.extra_latency
      in
      note_hop s dt;
      Sim.at (Cpu.sim s.cpu) ~after:dt (fun () ->
          Hashtbl.remove s.outstanding env.env_seq;
          ignore (Ivar.try_fill env.reply (Ok resp)))
    end
  in
  (env.payload, respond)

let next_request s = accept s (Mailbox.recv s.inbox)

let outstanding s = Hashtbl.length s.outstanding

let fail_outstanding s =
  s.epoch <- s.epoch + 1;
  (* Drain messages still queued... *)
  let rec drain () =
    match Mailbox.try_recv s.inbox with
    | None -> ()
    | Some env ->
        Obs.dequeue s.inbox_probe;
        ignore (Ivar.try_fill env.reply (Error Server_down));
        drain ()
  in
  drain ();
  (* ... and fail calls whose requests were already dequeued, newest
     delivery first: seeded runs depend on this wake-up order. *)
  let out = Hashtbl.fold (fun seq iv acc -> (seq, iv) :: acc) s.outstanding [] in
  Hashtbl.reset s.outstanding;
  List.sort (fun (a, _) (b, _) -> compare b a) out
  |> List.iter (fun (_, iv) -> ignore (Ivar.try_fill iv (Error Server_down)))

let move s ~cpu =
  fail_outstanding s;
  s.cpu <- cpu;
  s.inbox <- Mailbox.create ()

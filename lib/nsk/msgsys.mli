open Simkit

(** The NSK message system: request/reply RPC between processes over the
    ServerNet fabric.

    A server owns a typed port on a CPU; clients {!call} it and block for
    the reply.  Message latency is the fabric's transfer time for the
    request and reply sizes.  When a server's CPU fails, queued and
    in-flight calls fail with [Server_down] so callers can retry against
    a promoted backup (see {!Procpair}). *)

type error = Server_down | Timed_out

val pp_error : Format.formatter -> error -> unit

type ('req, 'resp) server

val create_server :
  ?obs:Obs.t -> Servernet.Fabric.t -> cpu:Cpu.t -> name:string -> ('req, 'resp) server
(** [name] labels the call site only: the port keeps no copy.  With
    [obs], request/reply hop latencies feed the shared [msg.hop_ns]
    stat, requests bump [msg.requests], and a [msgsys.inbox] probe
    shared by every observed port tracks queued requests. *)

val set_extra_latency : ('req, 'resp) server -> Time.span -> unit
(** Additional one-way wire latency applied to every request and reply —
    how an inter-node (Expand-style) link is modelled when callers sit on
    another node's fabric. *)

val caller_span : ('req, 'resp) server -> Span.span
(** The span carried by the most recently dequeued request (the null span
    if the caller passed none).  Read it synchronously after
    {!next_request} returns — before blocking or spawning — to parent
    server-side spans under the client's. *)

val caller_wait : ('req, 'resp) server -> Time.span
(** Inbox residency of the most recently dequeued request: dequeue time
    minus delivery time — the queue-wait half of the server's hop.  Same
    read-synchronously caveat as {!caller_span}; feed it to
    {!Simkit.Span.note_queue} on the server-side span. *)

val call :
  ('req, 'resp) server ->
  from:Cpu.t ->
  ?req_bytes:int ->
  ?resp_bytes:int ->
  ?timeout:Time.span ->
  ?span:Span.span ->
  'req ->
  ('resp, error) result
(** Send a request and wait for the reply.  [req_bytes]/[resp_bytes]
    (default 256) drive the latency model.  [span] rides in the envelope
    so the server can parent its work under the caller (see
    {!caller_span}).  Process context only. *)

val call_async :
  ('req, 'resp) server ->
  from:Cpu.t ->
  ?req_bytes:int ->
  ?resp_bytes:int ->
  ?span:Span.span ->
  'req ->
  ('resp, error) result Ivar.t
(** Fire a request without blocking; the ivar fills with the reply (or
    [Server_down]).  How transaction drivers issue their boxcarred
    asynchronous inserts. *)

val next_request : ('req, 'resp) server -> 'req * ('resp -> unit)
(** Dequeue the next request, blocking if none.  The returned closure
    sends the reply (call it exactly once).  Process context only. *)

val outstanding : ('req, 'resp) server -> int
(** Calls delivered to this port whose reply has not been filled yet:
    queued, being served, or with the reply on the wire.  An entry is
    added at delivery and dropped when its reply lands or when
    {!fail_outstanding} / {!move} fails it, so a server that answers
    every request returns to 0. *)

val move : ('req, 'resp) server -> cpu:Cpu.t -> unit
(** Relocate the port to another CPU (backup takeover).  Queued and
    outstanding calls fail with [Server_down]; callers retry and reach
    the new location transparently, as NSK's fault-tolerant message
    routing provides. *)

val fail_outstanding : ('req, 'resp) server -> unit
(** Fail queued and in-flight calls without moving the port: queued
    requests in arrival order, then the remaining delivered calls newest
    delivery first. *)

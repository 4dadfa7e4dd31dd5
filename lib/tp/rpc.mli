open Simkit
open Nsk

(** Retrying RPC for calls that must ride out a process-pair takeover:
    the message system fails outstanding calls when a server dies, and
    the caller simply tries again — by the next attempt the port has
    moved to the promoted backup. *)

val call_retry :
  ('req, 'resp) Msgsys.server ->
  from:Cpu.t ->
  ?req_bytes:int ->
  ?attempts:int ->
  ?timeout:Time.span ->
  ?span:Span.span ->
  'req ->
  ('resp, Msgsys.error) result
(** Defaults: 6 attempts, 1 s per-call timeout; attempts are 200 ms
    apart — comfortably covering a sub-second takeover.  [span] rides in each
    attempt's envelope (see {!Msgsys.call}). *)

open Simkit
open Nsk

(** The Audit Data Process: NSK's log writer, as a process pair.

    Database writers send audit records to an ADP ({!request.Append});
    the transaction monitor asks it to make the trail durable through an
    ASN ({!request.Flush}).  With the classic disk backend, appends are
    buffered — and checkpointed to the backup so a takeover loses nothing
    — and a flush pays the audit volume's rotational miss; concurrent
    flush requests that arrive while a write is in flight are absorbed by
    the following one (group commit).  With the paper's persistent-memory
    backend the append itself is durable, flushes return immediately, and
    the buffered-record checkpoint disappears (§3.4: PM eliminates the
    repeated, uncoordinated persistence actions). *)

type request =
  | Append of Audit.record list
  | Flush of { through : Audit.asn; deadline : Time.t }
      (** [deadline] is the requesting transaction's absolute deadline
          ([0] = none): a flush wait that outlives it is shed —
          answered [A_failed] without staging — since the caller can no
          longer acknowledge the commit anyway *)
  | Trim of { through : Audit.asn }
      (** archive the trail prefix (only durable records may be trimmed) *)

type response =
  | Appended of { last_asn : Audit.asn }
  | Flushed of { durable : Audit.asn }
  | Trimmed of { records : int }
  | A_failed of string

type server = (request, response) Msgsys.server

type t

type state
(** The trail writer's state: next ASN, durable horizon, buffered records. *)

type ckpt

val start :
  fabric:Servernet.Fabric.t ->
  name:string ->
  primary:Cpu.t ->
  backup:Cpu.t ->
  backend:Log_backend.t ->
  ?obs:Obs.t ->
  unit ->
  t
(** With [obs]: flush-request waits feed the shared [adp.flush_latency]
    stat (zero for already-durable requests), appends and flushes get
    spans on a track named after the ADP, parented under the caller's
    span when the request carried one. *)

val server : t -> server

val pair : t -> (state, state, ckpt) Procpair.t
(** The process pair: takeovers, outage time, checkpoint bytes, fault
    injection.  A takeover keeps the checkpointed buffer. *)

val backend : t -> Log_backend.t

val durable_asn : t -> Audit.asn

val appended_records : t -> int

val flushes_performed : t -> int
(** Backend writes, not flush requests: with group commit several
    requests share one. *)

val flush_requests : t -> int

val shed_expired_count : t -> int
(** Flush waits dropped because their transaction deadline had already
    passed (exported as the [adp.<name>.shed_expired] gauge). *)

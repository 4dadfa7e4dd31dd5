open Pm

(** Audit-trail records: the database's redo/undo log (paper §1.2).

    Every state change a database writer makes is described by an audit
    record; the relevant records must be durable before a transaction may
    commit.  Records carry a CRC so recovery can detect torn writes.

    Payloads are represented by length and checksum rather than the bytes
    themselves — the simulator moves sizes, not contents — but records
    themselves serialize to exactly the number of bytes a real trail would
    carry, so log-volume and PM-region traffic is faithful. *)

type txn_id = int

type asn = int
(** Audit sequence number: position of a record in one ADP's trail. *)

type record =
  | Begin of { txn : txn_id }
  | Update of {
      txn : txn_id;
      file : int;
      partition : int;
      key : int;
      payload_len : int;
      payload_crc : int;
      before_len : int;  (** 0 for an insert; undo information otherwise *)
    }
  | Commit of { txn : txn_id }
  | Abort of { txn : txn_id }
  | Prepared of { txn : txn_id }
      (** two-phase commit: the transaction's updates are durable and its
          locks held, awaiting the coordinator's decision *)
  | Control_point of { active : txn_id list }
      (** periodic recovery horizon: redo scans start at the last one *)

val wire_size : record -> int
(** Bytes this record occupies in a trail, payload included. *)

val payload_padding : record -> int
(** The payload's share of [wire_size]: zero bytes that end the frame. *)

val encode_head : Codec.Enc.t -> record -> unit
(** Append the frame without its payload (header, body, CRC).  Followed
    by {!payload_padding} zero bytes it is exactly {!encode}'s output, so
    a writer that can zero-fill by length never builds the padding. *)

val encode : Codec.Enc.t -> record -> unit
(** Append the framed record (header, body, CRC, payload padding). *)

val encode_to_bytes : record -> Bytes.t

val decode : ?stop:int -> Bytes.t -> pos:int -> (record * int) option
(** [decode buf ~pos] parses the framed record at [pos] in place,
    returning it and the offset just past it; [None] if the bytes there
    are not a valid record (bad magic, bad CRC, truncated).  The trail
    ends at [stop] (default [Bytes.length buf]), possibly past [buf]'s
    end: the head must lie in both; the padding is skipped unread and
    must end by [stop]. *)

(** CRC-32 (IEEE 802.3 polynomial), used to checksum persistent-memory
    metadata records and audit-trail records so that recovery can tell a
    torn or corrupt record from a valid one. *)

val bytes : Bytes.t -> int32

val sub : Bytes.t -> pos:int -> len:int -> int32
(** Raises [Invalid_argument] if the slice is out of range. *)

val string : string -> int32

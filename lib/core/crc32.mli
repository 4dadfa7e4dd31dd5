(** CRC-32 (IEEE 802.3 polynomial), used to checksum persistent-memory
    metadata records and audit-trail records so that recovery can tell a
    torn or corrupt record from a valid one.

    Slicing-by-8, plus an exact shortcut for zero bytes: every whole
    4 KiB block of the input, counted from [pos], that is all zero bytes
    advances the register in four table lookups instead of 4096 byte
    steps, after a zero test of the block.  The result is the same CRC
    either way. *)

val bytes : Bytes.t -> int32

val sub : Bytes.t -> pos:int -> len:int -> int32
(** Raises [Invalid_argument] if the slice is out of range. *)

val string : string -> int32

val zeros : int -> int32
(** [zeros n] is [bytes (Bytes.make n '\000')], computed without
    bytes: four table lookups per whole 4 KiB, one per byte of the rest.
    The scrubber's checksum of a chunk it knows was never written.
    Raises [Invalid_argument] on a negative length. *)

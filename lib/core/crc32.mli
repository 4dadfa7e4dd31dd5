(** CRC-32 (IEEE 802.3 polynomial), used to checksum persistent-memory
    metadata records and audit-trail records so that recovery can tell a
    torn or corrupt record from a valid one.

    Slicing-by-8, plus an exact shortcut for never-written memory: every
    whole 4 KiB block of the input, counted from [pos], that is all zero
    bytes advances the register in four table lookups instead of 4096
    byte steps.  The result is the same CRC either way, so a scrub chunk
    of untouched PM costs a zero test, not a checksum. *)

val bytes : Bytes.t -> int32

val sub : Bytes.t -> pos:int -> len:int -> int32
(** Raises [Invalid_argument] if the slice is out of range. *)

val string : string -> int32

(** Little binary codec for durable structures (PMM metadata, audit-trail
    records).  Integers are little-endian; strings and byte blobs are
    length-prefixed.  Every fixed PM block is a sealed block and every
    PMM metadata slot a frame, so how such bytes prove they are intact
    is decided here alone. *)

module Enc : sig
  type t

  val create : ?size:int -> unit -> t
  (** [size] is the initial capacity (default 256); the buffer grows past
      it, so an exact size only saves the regrowth copies. *)

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int -> unit
  val str : t -> string -> unit
  (** u16 length prefix *)

  val blob : t -> Bytes.t -> unit
  (** u32 length prefix *)

  val raw : t -> Bytes.t -> unit
  (** append bytes with no prefix *)

  val pad : t -> int -> unit
  (** append that many zero bytes *)

  val to_bytes : t -> Bytes.t
end

module Dec : sig
  type t

  exception Truncated

  val of_bytes : Bytes.t -> t
  val of_sub : Bytes.t -> pos:int -> len:int -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int
  val str : t -> string
  val blob : t -> Bytes.t
  val remaining : t -> int
  val pos : t -> int
end

val seal : magic:int -> size:int -> (Enc.t -> unit) -> Bytes.t
(** [seal ~magic ~size fields] is a [size]-byte sealed block: the u32
    magic, the fields, zero fill, and in the last 4 bytes the CRC32 of
    everything before them.  Raises [Invalid_argument] when the fields
    leave no room for the CRC. *)

val unseal : magic:int -> size:int -> (Dec.t -> 'a) -> Bytes.t -> 'a option
(** Decode the fields of the sealed block at the front of a buffer.
    [None], never an exception, for a buffer shorter than [size], a bad
    CRC, the wrong magic, or fields that overrun the block. *)

val frame : magic:int -> generation:int -> Bytes.t -> Bytes.t
(** A slot frame: magic (u32), generation (u64), payload length (u32),
    CRC32 (u32), then the payload.  The CRC is taken over the whole frame
    with its own field read as zero, so it covers the header too. *)

val unframe : magic:int -> (int -> Bytes.t -> 'a option) -> Bytes.t -> 'a option
(** [unframe ~magic decode buf] runs [decode generation payload] only on
    a frame at the front of [buf] whose magic and CRC check out; a
    truncated frame, or a [decode] that raises {!Dec.Truncated}, gives
    [None]. *)

(** Little binary codec for durable structures (PMM metadata, audit-trail
    records).  Integers are little-endian; strings and byte blobs are
    length-prefixed. *)

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

  val length : t -> int
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

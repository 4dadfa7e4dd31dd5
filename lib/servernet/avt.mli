(** Address Validation and Translation table.

    Each ServerNet endpoint presents a 32-bit {e network virtual address}
    space to initiators on the fabric (paper §4).  An AVT maps windows of
    that space onto the endpoint's physical store and enforces a limited
    form of access control: which initiating endpoints may read or write
    each window.  The Persistent Memory Manager programs these windows
    when a client opens a region. *)

type initiator = int
(** Fabric endpoint id of the node initiating an RDMA operation. *)

type who =
  | Any_initiator
  | Initiators of initiator list

type access = { readers : who; writers : who }

val read_write : who -> access
(** Window readable and writable by the same set. *)

type error =
  | Unmapped  (** no window covers the address *)
  | Access_denied  (** window exists but the initiator lacks the right *)
  | Crosses_window  (** the access runs past the end of its window *)
  | Stale_epoch  (** write carried an epoch older than the table's current one *)

val pp_error : Format.formatter -> error -> unit

type t

val create : unit -> t

val map :
  t -> net_base:int -> length:int -> phys_base:int -> access:access -> (unit, string) result
(** Program a window.  Fails if the window leaves the 32-bit space, has
    non-positive length, or overlaps an existing window. *)

val unmap : t -> net_base:int -> bool
(** Remove the window starting exactly at [net_base]; [false] if none. *)

val set_access : t -> net_base:int -> access -> bool
(** Reprogram permissions of an existing window. *)

val translate :
  ?epoch:int ->
  t -> initiator:initiator -> op:[ `Read | `Write ] -> addr:int -> len:int ->
  (int, error) result
(** Validate an access of [len] bytes at network virtual address [addr]
    and return the physical base offset on success.  A write carrying
    [?epoch] older than {!epoch} is rejected with [Stale_epoch] before
    the access check; reads and epoch-less writes are never fenced. *)

val epoch : t -> int
(** Current volume epoch enforced against write descriptors; 0 initially. *)

val set_epoch : t -> int -> unit
(** Advance the fencing epoch (monotone; raises on decrease).  Writes
    stamped with an older epoch are rejected from then on. *)

val fenced : t -> int
(** Number of writes rejected with [Stale_epoch] since creation. *)


(** Write-once synchronization variables (futures).

    The standard way to wait for an asynchronous completion: an I/O
    request carries an ivar, the device fills it, the requester reads it. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Raises [Invalid_argument] if already filled. *)

val try_fill : 'a t -> 'a -> bool
(** Like {!fill} but returns [false] instead of raising. *)

val is_filled : 'a t -> bool

val peek : 'a t -> 'a option

val read : 'a t -> 'a
(** Block the calling process until the ivar is filled.  Must run in
    process context. *)

val read_timeout : 'a t -> Time.span -> 'a option
(** Like {!read} but gives up after the given span, returning [None].
    One {!Sim.suspend_for}: a fill wakes the reader and removes the
    deadline from the queue at once; a deadline that fires first
    retracts the reader's waker, so nothing of the wait is left behind
    either way.  A fill at the deadline's own instant still wins if it
    lands before the reader resumes. *)

(** Unbounded blocking mailboxes between simulated processes.

    Sends never block; receives block the calling process until a message
    is available.  Delivery order is FIFO. *)

type 'a t

val create : unit -> 'a t

val send : 'a t -> 'a -> unit

val length : 'a t -> int

val recv : 'a t -> 'a
(** Block until a message arrives.  Must run in process context. *)

val recv_timeout : 'a t -> Time.span -> 'a option
(** Like {!recv} but returns [None] after the given span.  Built on
    {!Sim.suspend_for}: a send removes the deadline from the queue; a
    receiver woken to find the message taken by another waits again for
    the time left to its original deadline; a deadline that fires first
    retracts the receiver's waker. *)

val try_recv : 'a t -> 'a option
(** Non-blocking receive. *)

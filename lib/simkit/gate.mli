(** Countdown latches for fan-out/fan-in.

    A gate opens once a fixed number of {!arrive} calls have happened —
    e.g. a transaction driver issues N asynchronous inserts and waits on a
    gate of size N. *)

type t

val create : int -> t
(** [create n] needs [n] arrivals to open.  [create 0] is already open. *)

val arrive : t -> unit
(** Raises [Invalid_argument] on arrival at an already-open gate. *)

val is_open : t -> bool

val await : t -> unit
(** Block the calling process until the gate opens. *)

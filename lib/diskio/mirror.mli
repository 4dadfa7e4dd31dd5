(** Mirrored volume pairs: writes go to both sides and complete when both
    have, reads are served by one side and fail over to the other.  This
    is how NonStop protects data volumes, and the same discipline the
    persistent-memory manager applies to NPMU pairs. *)

type t

val create : primary:Volume.t -> mirror:Volume.t -> t

val write : t -> block:int -> len:int -> (unit, Volume.error) result
(** Completes when both sides have written; if one side is down the write
    still succeeds on the survivor (degraded), failing only when both
    sides are down. *)

val read : t -> block:int -> len:int -> (unit, Volume.error) result

val degraded : t -> bool
(** True when exactly one side is up. *)

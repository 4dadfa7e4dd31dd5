(** In-memory B-trees: the keyed-file indices the database writers
    maintain (paper §3.4 lists "database indices" first among the
    structures worth persisting at fine grain).

    A classic order-[degree] B-tree with full insert/find/delete/range
    support.  Mutable, single-threaded — exactly one DP2 process owns
    each tree, the NonStop discipline. *)

type 'a t

val create : ?degree:int -> unit -> 'a t
(** [degree] is the minimum degree [t] (every node except the root holds
    between [t-1] and [2t-1] keys); default 16. *)

val insert : 'a t -> key:int -> 'a -> 'a option
(** Insert or replace; returns the previous binding if any. *)

val find : 'a t -> key:int -> 'a option


val remove : 'a t -> key:int -> 'a option
(** Delete; returns the removed binding if present. *)

val range : 'a t -> lo:int -> hi:int -> (int * 'a) list
(** Bindings with [lo <= key <= hi], ascending. *)

val min_binding : 'a t -> (int * 'a) option

val max_binding : 'a t -> (int * 'a) option

val cardinal : 'a t -> int

val height : 'a t -> int

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Ascending key order. *)

val check_invariants : 'a t -> (unit, string) result
(** Structural validation for tests: key ordering, node occupancy,
    uniform leaf depth, cardinality bookkeeping. *)

(** Indexed binary min-heap keyed by [(key, seq)] pairs.

    The sequence number breaks ties so that events scheduled for the same
    instant fire in insertion order, which keeps runs deterministic.

    {!push} returns the {e entry} it inserted.  The entry carries the key,
    the seq, the value and its current slot in the heap array, so
    {!remove} deletes any entry in O(log n) without a search, and taking
    the minimum hands back the entry itself with no allocation. *)

type 'a t

type 'a entry = private {
  key : int;
  seq : int;
  value : 'a;
  mutable slot : int;
      (** Index in the heap array while queued; [-1] once popped or
          removed.  An entry is live exactly when [slot >= 0]. *)
}

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of live entries. *)

val push : 'a t -> key:int -> seq:int -> 'a -> 'a entry
(** Insert one entry (one allocation) and return it. *)

val remove : 'a t -> 'a entry -> unit
(** Delete a live entry in O(log n): the last entry takes its slot and
    sifts up or down.  Removing an entry that was already popped or
    removed does nothing.  Raises [Invalid_argument] for a live entry of
    another heap. *)

val top : 'a t -> 'a entry
(** The minimum entry, left in place.  Raises [Invalid_argument] when
    empty. *)

val pop : 'a t -> 'a entry
(** [top] then [remove]: the returned entry is no longer live.  Raises
    [Invalid_argument] when empty. *)

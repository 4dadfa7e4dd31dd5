open Simkit

(** Key-range lock manager for the database writers (paper §1.1).

    Shared/exclusive locks on [(file, key)] pairs with FIFO wait queues.
    Deadlocks are broken by timeout, the discipline classic transaction
    monitors used.  A transaction's locks are released together at
    commit/abort (strict two-phase locking). *)

type key = int * int
(** [(file, key)] *)

type mode = Shared | Exclusive

type error = Lock_timeout

type t

val create : Sim.t -> ?timeout:Time.span -> ?obs:Obs.t -> unit -> t
(** [timeout] defaults to 5 simulated seconds.  With [obs], contended
    acquires feed the shared [lock.wait_ns] stat and conflict/timeout
    totals are exported as gauges. *)

val acquire :
  t ->
  ?span:Span.span ->
  ?deadline:Time.t ->
  owner:Audit.txn_id ->
  key:key ->
  mode ->
  (unit, error) result
(** Block until granted (re-entrant; a Shared holder may upgrade to
    Exclusive if it is the only holder).  Process context only.  A
    positive [deadline] (absolute sim time) tightens the wait bound to
    [min (now + timeout) deadline], so a transaction that cannot make
    its deadline stops camping on the queue; [0] (the default) means
    the lock timeout alone governs.  With
    [span], a contended acquire records the blocked stretch as the
    span's queue prefix and links it to each current holder's registered
    span ({!Simkit.Span.link}) — the waiting transaction's causal edge
    to the one it queued behind; on grant the span is registered as this
    owner's, for future waiters, until {!release_all}. *)

val release_all : t -> owner:Audit.txn_id -> unit
(** Drop every lock the transaction holds and wake compatible waiters.
    Safe outside process context. *)

val holders : t -> key -> (Audit.txn_id * mode) list

val held_total : t -> int
(** Locks currently held across all owners — zero once every
    transaction has finished or been resolved (the drills' no-orphaned-
    locks invariant). *)

val waiting : t -> int
(** Transactions currently blocked, across all keys. *)

val conflicts : t -> int
(** Cumulative count of acquires that had to wait at least once. *)

val timeouts : t -> int

(** Hierarchical spans over simulated time.

    A collector records [(track, name, start, end, args)] spans so that a
    single logical operation — one transaction commit, say — can be
    decomposed into the stages it spent its microseconds in, across every
    subsystem it touched.  Collectors are disabled by default: {!start}
    returns a shared null span and {!finish} is a no-op, so instrumented
    hot paths cost one flag check when tracing is off.

    Spans on the same track nest by time containment; spans caused by a
    request from another track carry an explicit parent id, exported as a
    flow arrow.

    A finished span becomes one {!record}, passed in one pass to every
    subscriber: analyzers such as {!Critpath} and the flight recorder
    stream it, and {!retain} keeps it for {!to_chrome_json}, which
    renders the Chrome trace-event format loadable by
    [chrome://tracing] and Perfetto. *)

type t
(** A span collector. *)

type span
(** An open (or finished) span.  Cheap to pass around; a null span (from
    a disabled collector) absorbs {!annotate} and {!finish} silently. *)

type record = {
  r_id : int;
  r_parent : int option;
  r_trace : int;  (** correlation id threaded from the root span; -1 = none *)
  r_track : string;
  r_name : string;
  r_start : Time.t;
  r_end : Time.t;
  r_args : (string * string) list;
}

val create : ?clock:(unit -> Time.t) -> ?capacity:int -> unit -> t
(** Disabled collector with no subscriber.  Once {!retain}ed it keeps at
    most [capacity] finished spans (default 1M); later spans are counted
    in {!dropped}.  [clock] supplies timestamps — typically
    [fun () -> Sim.now sim]. *)

val set_clock : t -> (unit -> Time.t) -> unit

val enable : t -> unit
(** Also raises the global {!Level} to [Spans] — an enabled collector is
    an explicit request for span data. *)

val start : t -> track:string -> ?parent:span -> ?trace:int -> string -> span
(** Open a span named [name] on [track].  [parent]
    links the span under another one, possibly on a different track.
    The span's trace id is [trace] when given, else inherited from
    [parent] — so a context threaded through message envelopes carries
    the root transaction's trace across every hop.  Returns {!null} —
    allocating nothing — unless the collector is enabled {e and} the
    global {!Level} is [Spans]; hot callers should check {!is_null}
    before formatting annotation strings. *)

val root : t -> track:string -> string -> span
(** {!start} with a fresh trace (correlation) id — the head of a new
    causal DAG (one per transaction).  Mints no trace id (and allocates
    nothing) when the collector or global level is off. *)

val annotate : span -> key:string -> string -> unit
(** Attach a key:value pair; no-op once finished or on a null span. *)

val link : span -> span -> unit
(** [link sp target] records a causal, non-parent edge: [sp] depended on
    [target]'s work — the group-commit flush a transaction piggybacked
    on, the lock holder a waiter blocked behind.  Stored as a ["link"]
    annotation carrying [target]'s span id; no-op when either side is
    null or [sp] is finished. *)

val note_queue : span -> Time.span -> unit
(** The request this span serves sat queued for [dt] {e before} the span
    opened (inbox residency): extend the span's start back over the wait
    and record a ["queue_ns"] annotation, so the span's interval covers
    queue + service and {!Critpath} can split the hop.  No-op on
    null/finished spans or [dt <= 0]. *)

val mark_queue : span -> Time.span -> unit
(** Like {!note_queue} for waits the span's interval {e already} covers
    (lock waits, group-commit parking): annotate the ["queue_ns"] prefix
    without moving the start. *)

val finish : t -> span -> unit
(** Close the span at the collector's current clock and pass its record
    to every subscriber, in subscription order.  With no subscriber the
    record is not even built.  Double-finish is a no-op. *)

val null : span
(** The shared no-op span: useful as a default before any context is
    known.  Annotating or finishing it does nothing. *)

val is_null : span -> bool

val trace_of : span -> int
(** The span's trace (correlation) id, -1 when untraced. *)

val start_time : span -> Time.t

val subscribe : t -> (record -> unit) -> unit
(** Pass every span finished from now on to [f], after the subscribers
    already there — how {!Critpath}, the flight recorder and {!retain}
    attach.  Subscribers are never replaced: one collector feeds them
    all from one stream. *)

val retain : t -> unit
(** Subscribe the collector's own bounded buffer, which {!records},
    {!count}, {!dropped} and {!to_chrome_json} read.  A collector that
    is never retained keeps nothing.  Retain a collector once. *)

val count : t -> int
val dropped : t -> int
val clear : t -> unit

val records : t -> record list
(** Retained spans, ordered by start time then id. *)

val to_chrome_json : t -> string
(** The retained spans as one Chrome trace-event JSON document.
    Cross-track parent/child edges and ["link"] annotations are emitted
    as flow arrows ([ph:"s"]/[ph:"f"]), so Perfetto draws the causal
    DAG across tracks; each complete event also carries its trace id. *)

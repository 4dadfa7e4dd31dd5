(** Critical-path attribution over causal span DAGs.

    Consumes finished span records (streaming, via {!attach} /
    {!Span.subscribe}) and, whenever a trace's root span arrives —
    the root of a transaction finishes last — walks its DAG backwards
    from the ack.  Every nanosecond of the root's interval is attributed
    to exactly one span (the deepest one covering it, with explicit
    ["link"] edges — group-commit flushes, lock holders — resolved like
    children), split into queue and service time from the ["queue_ns"]
    annotations.  The tiling is exact: a trace's hop durations sum to
    its measured ack latency, nanosecond for nanosecond.

    Memory is bounded everywhere: unfinalized traces are capped (oldest
    evicted, counted), link resolution uses a sliding window of recent
    records, and only the slowest transactions keep their full DAGs
    (bounds in {!create}). *)

type t

type hop = {
  h_name : string;  (** ["track:name"] *)
  h_count : int;  (** critical-path appearances across finalized traces *)
  h_queue : int;  (** summed queue ns attributed to this hop *)
  h_service : int;  (** summed service ns *)
}

type ex_hop = { xh_name : string; xh_queue : int; xh_service : int }

type exemplar = {
  ex_trace : int;
  ex_root : string;
  ex_ack : int;  (** root duration = measured ack latency, ns *)
  ex_hops : ex_hop list;  (** this txn's critical path, heaviest hop first *)
  ex_records : Span.record list;
      (** the full DAG: every trace record plus walk-reachable links *)
}

val create : unit -> t
(** The 32 slowest transactions keep full DAGs; at most 100k records
    are buffered for unfinalized traces; the link-resolution window
    holds the 8192 most recent finished spans. *)

val attach : t -> Span.t -> unit
(** Subscribe the analyzer to the collector, next to any other
    subscriber.  Untraced records only enter the link window; a traced
    parentless record is a root and finalizes its trace.  The collector
    itself keeps nothing unless it is {!Span.retain}ed. *)

val txns : t -> int
(** Traces finalized. *)

val evicted : t -> int
(** Unfinalized traces dropped by the pending-records cap. *)

val hops : t -> hop list
(** Aggregate attribution, ranked by total (queue + service) descending. *)

val exemplars : t -> exemplar list
(** Slowest transactions, slowest first. *)

val to_json : t -> Json.t
(** [{txns, evicted_traces, ack_latency:{...}, hops:[...],
    exemplars:[{trace, root, ack_ns, hop_sum_ns, spans, hops:[...]}]}] —
    each exemplar's [hop_sum_ns] equals its [ack_ns] by construction. *)

val pp : Format.formatter -> t -> unit
(** Ranked text table with queue/service columns and share. *)

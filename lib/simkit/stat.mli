(** Online statistics for latency and throughput measurements.

    A [Stat.t] keeps Welford running moments plus every sample (as a
    growable float array) so that exact percentiles can be reported at the
    end of a run.  Simulation scales here are small enough (≤ millions of
    samples) that keeping samples is cheap and exactness beats sketching. *)

type t

type summary = {
  n : int;
  mean : float;
  stdev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val create : ?name:string -> unit -> t

val add : t -> float -> unit

val add_span : t -> Time.span -> unit
(** Record a time span, stored in nanoseconds. *)

val count : t -> int

val mean : t -> float

val total : t -> float

val percentile : t -> float -> float
(** [percentile t 0.99] is the exact 99th percentile of the samples seen
    so far (nearest-rank).  Total: returns [nan] if no samples, so a
    metrics dump over instruments that recorded nothing never aborts. *)

val samples_from : t -> int -> float array
(** [samples_from t i] copies samples [i..count-1] in insertion order —
    the slice a periodic sampler needs to compute interval percentiles.
    Caveat: a {!percentile} call sorts the backing array in place, so a
    mid-run percentile read scrambles insertion order; the slice then
    still holds [count - i] of the recorded values, just not necessarily
    the latest ones. *)

val summary : t -> summary

val pp_summary : Format.formatter -> t -> unit

(** Monotonically increasing counters. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
end

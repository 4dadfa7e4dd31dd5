(** Open-loop arrival schedules.

    A schedule is a sequence of phases, each offering Poisson arrivals
    (exponential inter-arrival gaps) at a fixed mean rate for a fixed
    duration.  [run] dispatches one callback per arrival at the
    scheduled instants — the caller decides what an arrival does
    (typically spawn a transaction worker).  Crucially the schedule
    never waits for the work it dispatched: offered load is independent
    of service capacity, so queues can actually explode.

    All draws come from the caller's [Rng.t]; equal seeds give
    bit-equal arrival sequences. *)

type phase = {
  rate : float;  (** mean arrivals per second; [<= 0.] idles the phase *)
  duration : Time.span;
}

type schedule = phase list

val constant : rate:float -> duration:Time.span -> unit -> schedule
(** Single-phase schedule at a constant mean rate. *)

val flash_crowd :
  base:float ->
  spike:float ->
  cool:float ->
  warmup:Time.span ->
  spike_for:Time.span ->
  cooldown:Time.span ->
  unit ->
  schedule
(** The metastability shape: [base] rate during [warmup], then a
    [spike]-rate flash crowd for [spike_for], then back down to [cool]
    for [cooldown].  A healthy system recovers during the cool phase;
    a metastable one stays collapsed even though [cool] is below
    capacity. *)

val run : rng:Rng.t -> schedule -> f:(int -> unit) -> int
(** [run ~rng schedule ~f] must be called from inside a simulation
    process.  Walks the schedule, sleeping each inter-arrival gap and
    calling [f index] at each arrival (indices are 0-based and global
    across phases).  [f] must not block the schedule — spawn work,
    don't do it inline.  Returns the total number of arrivals. *)

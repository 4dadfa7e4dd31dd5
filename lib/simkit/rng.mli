(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in a simulation draws from one [Rng.t]
    seeded at construction, so a run is reproducible from its seed. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t]'s stream, for
    giving subsystems their own streams without coupling draw orders. *)

val int64 : t -> int64
(** Next raw 64-bit draw. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean. *)

val uniform_span : t -> Time.span -> Time.span
(** [uniform_span t s] is uniform in [\[0, s)] nanoseconds. *)


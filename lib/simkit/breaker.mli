(** Per-destination circuit breaker with half-open probing.

    Closed passes traffic and counts consecutive failures; at the
    threshold it trips Open and rejects everything for a cooldown;
    after the cooldown it goes Half-open and admits exactly one probe
    — probe success re-closes, probe failure re-opens for another
    cooldown.  Rejecting locally is what keeps a struggling server
    from being hammered by the very clients it is failing.

    Time is passed in explicitly ([~now]) so the breaker stays
    deterministic and clock-agnostic. *)

type t

val create : unit -> t
(** A Closed breaker.  Five consecutive failures trip it; it then stays
    Open for 100 ms. *)

val allow : t -> now:Time.t -> bool
(** May a request be sent now?  Closed: yes.  Open: no, until the
    cooldown elapses (which moves to Half-open).  Half-open: yes for
    the single probe, no while that probe is outstanding. *)

val record_success : t -> unit
(** Report a request outcome.  Resets the failure streak; a successful
    half-open probe re-closes the breaker. *)

val record_failure : t -> now:Time.t -> unit
(** Report a failed request.  May trip Closed→Open, and always returns
    a Half-open breaker to Open for a fresh cooldown. *)

val trips : t -> int
(** Closed/Half-open → Open transitions. *)

open Simkit

(** Network Persistent Memory Unit: the hardware device of the paper's
    architecture (§4.1).

    An NPMU is a ServerNet endpoint whose store is non-volatile RAM.  It
    has no CPU in the data path: initiators RDMA straight into its
    memory through the AVT windows the Persistent Memory Manager
    programs.  {!power_loss} drops it off the fabric but — unlike the
    {!Pmp} prototype — its contents survive and reappear on
    {!power_restore}. *)

type t

val create : Sim.t -> Servernet.Fabric.t -> name:string -> capacity:int -> t

val instrument : ?obs:Obs.t -> t -> unit
(** Export the device's cumulative store traffic as gauges under
    [npmu.<name>.*] ([writes], [reads], [bytes_written], ...), and the
    RDMA operations targeting it as an [npmu.<name>] probe.  Does
    nothing without [obs]. *)

val writes : t -> int
(** Stores performed through the NIC (RDMA-delivered writes). *)

val bytes_written : t -> int

val name : t -> string

val capacity : t -> int

val id : t -> int
(** Fabric endpoint id. *)

val avt : t -> Servernet.Avt.t

val mem : t -> Servernet.Fabric.Pages.t
(** The device memory itself, for maintenance-path access (no fabric
    traffic, no timing). *)

val is_powered : t -> bool

val power_cycles : t -> int
(** Number of {!power_loss} events since creation.  The PMM compares
    this across a resync copy to detect a blip that happened entirely
    inside one chunk transfer. *)

val fenced_writes : t -> int
(** Writes this device's AVT rejected with [Stale_epoch]. *)

val power_loss : t -> unit
(** The device disappears from the fabric; memory contents are retained
    (durable media, no refresh needed). *)

val power_restore : t -> unit
(** Back on the fabric with contents intact.  AVT windows survive too:
    the paper requires durable, self-consistent metadata for continued
    access after power loss. *)

val peek : t -> off:int -> len:int -> Bytes.t
(** Maintenance-path read of raw device memory (no fabric traffic, no
    timing).  Used by recovery tooling and tests. *)

val poke : t -> off:int -> data:Bytes.t -> unit
(** Maintenance-path write.  Tests only; production writes go through
    RDMA. *)

(** {2 Silent-corruption injection}

    Maintenance-path fault primitives for integrity drills.  Neither
    touches the fabric or advances time, and neither is observable to
    initiators except through the corrupted bytes themselves — that is
    what makes the corruption {e silent}. *)

val decay : t -> off:int -> bits:int -> unit
(** Media decay: flip [bits] consecutive bit positions starting at byte
    [off] (bit [i] of the run toggles bit [i mod 8] of byte
    [off + i/8]).  Deterministic — same arguments, same damage.  Raises
    [Invalid_argument] if the affected byte span is out of range. *)

val decay_events : t -> int
(** Number of {!decay} injections since creation. *)

val bits_flipped : t -> int
(** Total bits flipped by {!decay} since creation. *)

val tear_last_write : t -> (int * int) option
(** Torn store: corrupt the trailing half of the most recent
    RDMA-delivered write, modelling a power cut that lands mid-store
    (the NIC pushes payload in order, so the tear is a suffix).
    Returns [Some (off, len)] of the torn span, or [None] when no write
    has landed yet or the last write was a single byte. *)

val torn_writes : t -> int
(** Number of successful {!tear_last_write} injections. *)

(** {2 Fail-slow injection}

    Gray-failure primitives for the grayfail drill: the device keeps
    answering — correctly — but late, modelling worn media, a throttled
    controller, or an NIC in retry storms. *)

val degrade : t -> factor:float -> ?jitter:Time.span -> unit -> unit
(** Stretch every RDMA transfer touching this device by [factor]
    ([>= 1.0]) plus up to [jitter] seeded extra per transfer — delegated
    to the fabric endpoint ({!Servernet.Fabric.set_endpoint_slow}), since
    an NPMU has no CPU and all its latency lives on the fabric path. *)

val restore_speed : t -> unit
(** Back to full speed (factor 1.0, no jitter). *)

val slow_factor : t -> float
(** The multiplier currently in force (1.0 when healthy). *)

val is_degraded : t -> bool

val degrade_events : t -> int
(** Number of {!degrade} injections since creation. *)

open Simkit

(** A logical NSK processor.

    Each CPU is a ServerNet endpoint (NonStop CPUs talk to devices and to
    each other only through the fabric).  Processes spawned on a CPU die
    with it.  {!execute} models instruction-path cost with a simple
    serialization queue, so two busy processes on one CPU slow each other
    down. *)

type t

val create : ?obs:Obs.t -> Sim.t -> Servernet.Fabric.t -> index:int -> t
(** Attach CPU [index] to the fabric with a small RAM-backed store used
    for incoming RDMA (e.g. checkpoint pushes).  With [obs], {!execute}
    spans feed a [cpu.<index>] probe, so the time-series sampler can
    report per-CPU busy fraction. *)

val sim : t -> Sim.t

val endpoint : t -> Servernet.Fabric.endpoint

val endpoint_id : t -> int

val is_up : t -> bool

val spawn : t -> name:string -> (unit -> unit) -> Sim.pid
(** Spawn a process resident on this CPU.  Raises [Invalid_argument] if
    the CPU is down. *)

val execute : t -> Time.span -> unit
(** Consume CPU time: the calling process occupies the processor for the
    span, queueing behind other {!execute} calls on the same CPU.  Must
    run in process context. *)

val fail : t -> unit
(** Halt the CPU: every resident process is killed, the endpoint goes
    dead, and failure hooks run.  Idempotent. *)

val restart : t -> unit
(** Bring the CPU back up (processes are not resurrected). *)

val on_failure : t -> (unit -> unit) -> unit
(** Register a hook to run when the CPU fails, e.g. a process-pair
    monitor arranging takeover. *)

val busy_time : t -> Time.span
(** Total time consumed through {!execute}. *)

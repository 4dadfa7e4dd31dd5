open Nsk

(** Persistent Memory Process: the paper's prototype NPMU (§4.2).

    A PMP is an ordinary NSK process that allocates a large memory region
    and exposes it to ServerNet RDMA like a hardware NPMU would.  It has
    the performance characteristics of the real device but {e not} its
    non-volatility: if its hosting CPU fails or power is lost, the
    contents are gone.  The test suite uses this contrast to check that
    durability claims are properties of the device, not of the access
    path. *)

type t

val create : Cpu.t -> Servernet.Fabric.t -> name:string -> capacity:int -> t
(** Spawns the hosting process on [cpu]; the PMP dies with that CPU. *)

val name : t -> string

val id : t -> int

val avt : t -> Servernet.Avt.t

val is_alive : t -> bool

val power_loss : t -> unit
(** Simulated power loss: the process dies and, being DRAM-hosted, the
    memory contents are cleared. *)

val mem : t -> Servernet.Fabric.Pages.t
(** The pinned memory itself, for maintenance-path access (no fabric
    traffic, no timing). *)

val peek : t -> off:int -> len:int -> Bytes.t
(** Maintenance-path read (zeros after a power loss). *)

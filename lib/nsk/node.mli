open Simkit

(** A NonStop node: a set of CPUs on a shared ServerNet fabric, and the
    disk volumes added on its simulation.  Convenience container used by the transaction stack,
    examples and benchmarks. *)

type t

val create :
  Sim.t -> ?fabric_config:Servernet.Fabric.config -> ?obs:Obs.t -> cpus:int -> unit -> t
(** [obs] observes the fabric, every CPU and every volume added later. *)

val fabric : t -> Servernet.Fabric.t

val cpu : t -> int -> Cpu.t
(** Raises [Invalid_argument] for an out-of-range index. *)

val add_volume :
  t ->
  name:string ->
  ?geometry:Diskio.Disk.geometry ->
  ?cache:Diskio.Disk.cache_config ->
  ?scheduling:Diskio.Volume.scheduling ->
  unit ->
  Diskio.Volume.t

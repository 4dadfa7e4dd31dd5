(** Shared identifiers and errors of the persistent-memory system. *)

type error =
  | No_such_region
  | Region_exists
  | Out_of_space
  | Permission_denied
  | Region_busy  (** delete attempted while clients hold the region open *)
  | Device_failed  (** no NPMU of the mirrored pair could be reached *)
  | Manager_down  (** PMM pair lost or unreachable *)
  | Fenced  (** write rejected: region grant predates the volume epoch *)
  | Bad_request of string


val error_to_string : error -> string

type region_info = {
  region_name : string;
  net_base : int;  (** network virtual address of the region's window *)
  length : int;
  primary_npmu : int;  (** fabric endpoint id *)
  mirror_npmu : int;
  epoch : int;
      (** volume epoch when the grant was issued; stale-epoch writes are
          fenced by the NPMUs after takeover/resync *)
  mirror_active : bool;
      (** [false] while the PMM has demoted a persistently slow (or
          failed) mirror copy: the client writes single-copy under the
          degraded-durability contract and skips mirror reads until the
          resync path re-admits the device *)
}

val pp_region_info : Format.formatter -> region_info -> unit

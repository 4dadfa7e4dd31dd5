type initiator = int

type who = Any_initiator | Initiators of initiator list

type access = { readers : who; writers : who }

let read_write who = { readers = who; writers = who }

type error = Unmapped | Access_denied | Crosses_window | Stale_epoch

let pp_error ppf = function
  | Unmapped -> Format.pp_print_string ppf "unmapped address"
  | Access_denied -> Format.pp_print_string ppf "access denied"
  | Crosses_window -> Format.pp_print_string ppf "access crosses window boundary"
  | Stale_epoch -> Format.pp_print_string ppf "stale volume epoch (fenced)"

type window = { net_base : int; length : int; phys_base : int; mutable access : access }

type t = {
  mutable windows : window list; (* sorted by net_base *)
  mutable current_epoch : int;
  mutable fenced : int;
}

(* Network virtual addresses must fit in 32 bits. *)
let space_limit = 1 lsl 32

let create () = { windows = []; current_epoch = 0; fenced = 0 }

let epoch t = t.current_epoch

let set_epoch t e =
  if e < t.current_epoch then invalid_arg "Avt.set_epoch: epoch must not decrease";
  t.current_epoch <- e

let fenced t = t.fenced

let overlaps a b =
  a.net_base < b.net_base + b.length && b.net_base < a.net_base + a.length

let map t ~net_base ~length ~phys_base ~access =
  if length <= 0 then Error "window length must be positive"
  else if net_base < 0 || net_base + length > space_limit then
    Error "window outside 32-bit network virtual address space"
  else if phys_base < 0 then Error "negative physical base"
  else
    let w = { net_base; length; phys_base; access } in
    if List.exists (overlaps w) t.windows then Error "window overlaps an existing mapping"
    else begin
      t.windows <-
        List.sort (fun a b -> compare a.net_base b.net_base) (w :: t.windows);
      Ok ()
    end

let unmap t ~net_base =
  let before = List.length t.windows in
  t.windows <- List.filter (fun w -> w.net_base <> net_base) t.windows;
  List.length t.windows < before

let find t net_base = List.find_opt (fun w -> w.net_base = net_base) t.windows

let set_access t ~net_base access =
  match find t net_base with
  | None -> false
  | Some w ->
      w.access <- access;
      true

let allowed who initiator =
  match who with Any_initiator -> true | Initiators l -> List.mem initiator l

let translate ?epoch t ~initiator ~op ~addr ~len =
  match List.find_opt (fun w -> addr >= w.net_base && addr < w.net_base + w.length) t.windows with
  | None -> Error Unmapped
  | Some w ->
      if addr + len > w.net_base + w.length then Error Crosses_window
      else
        (* Fencing applies to mutations only: a stale reader is harmless,
           a stale writer can corrupt state owned by the new primary. *)
        let stale =
          match (op, epoch) with
          | `Write, Some e when e < t.current_epoch -> true
          | _ -> false
        in
        if stale then begin
          t.fenced <- t.fenced + 1;
          Error Stale_epoch
        end
        else
          let who = match op with `Read -> w.access.readers | `Write -> w.access.writers in
          if allowed who initiator then Ok (w.phys_base + (addr - w.net_base))
          else Error Access_denied


type t = Off | Spans

(* Default [Spans]: every call path records.  Lowering the level is an
   explicit act by a measurement harness. *)
let current = ref Spans

let set l = current := l

let get () = !current

let on () = match !current with Spans -> true | Off -> false

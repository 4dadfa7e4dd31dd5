type error = Pm_types.error

let header_magic = 0x504D4958 (* "PMIX" *)

let header_bytes = 64

let node_bytes = 1024

type header = {
  mutable degree : int;
  mutable root_off : int;  (** 0 = empty tree *)
  mutable alloc_off : int;
  mutable count : int;
}

type t = { client : Pm_client.t; handle : Pm_client.handle; hdr : header }

(* In-memory image of one node, decoded from its slot. *)
type node = {
  leaf : bool;
  keys : int array;  (* length n *)
  vals : int array;
  children : int array;  (* offsets; length n+1 for internal, [||] for leaf *)
}

let max_keys d = (2 * d) - 1

(* --- header i/o --- *)

let encode_header hdr =
  Codec.seal ~magic:header_magic ~size:header_bytes (fun enc ->
      Codec.Enc.u16 enc hdr.degree;
      Codec.Enc.u32 enc hdr.root_off;
      Codec.Enc.u32 enc hdr.alloc_off;
      Codec.Enc.u64 enc hdr.count)

let decode_header =
  Codec.unseal ~magic:header_magic ~size:header_bytes (fun dec ->
      let degree = Codec.Dec.u16 dec in
      let root_off = Codec.Dec.u32 dec in
      let alloc_off = Codec.Dec.u32 dec in
      let count = Codec.Dec.u64 dec in
      { degree; root_off; alloc_off; count })

let write_header t =
  Pm_client.write t.client t.handle ~off:0 ~data:(encode_header t.hdr)

(* --- node i/o --- *)

let encode_node node =
  let enc = Codec.Enc.create () in
  Codec.Enc.u8 enc (if node.leaf then 1 else 0);
  Codec.Enc.u16 enc (Array.length node.keys);
  Array.iter (Codec.Enc.u64 enc) node.keys;
  Array.iter (Codec.Enc.u64 enc) node.vals;
  if not node.leaf then Array.iter (Codec.Enc.u32 enc) node.children;
  let body = Codec.Enc.to_bytes enc in
  if Bytes.length body > node_bytes then invalid_arg "Pm_index: node overflows its slot";
  let out = Bytes.make node_bytes '\000' in
  Bytes.blit body 0 out 0 (Bytes.length body);
  out

let decode_node buf =
  let dec = Codec.Dec.of_bytes buf in
  let leaf = Codec.Dec.u8 dec = 1 in
  let n = Codec.Dec.u16 dec in
  let keys = Array.init n (fun _ -> Codec.Dec.u64 dec) in
  let vals = Array.init n (fun _ -> Codec.Dec.u64 dec) in
  let children = if leaf then [||] else Array.init (n + 1) (fun _ -> Codec.Dec.u32 dec) in
  { leaf; keys; vals; children }

let read_node t ~off =
  match Pm_client.read t.client t.handle ~off ~len:node_bytes with
  | Error e -> Error e
  | Ok buf -> ( try Ok (decode_node buf) with Codec.Dec.Truncated -> Error (Pm_types.Bad_request "corrupt index node"))

(* Allocate a slot and write the node into it (copy-on-write: slots are
   never overwritten while reachable from the old root). *)
let alloc_node t node =
  let region_len = (Pm_client.info t.handle).Pm_types.length in
  let off = t.hdr.alloc_off in
  if off + node_bytes > region_len then Error Pm_types.Out_of_space
  else
    match Pm_client.write t.client t.handle ~off ~data:(encode_node node) with
    | Ok () ->
        t.hdr.alloc_off <- off + node_bytes;
        Ok off
    | Error e -> Error e

(* --- construction --- *)

let create client handle ?(degree = 8) () =
  if degree < 2 then invalid_arg "Pm_index.create: degree must be >= 2";
  (* A degree-d node must fit its slot: 3 + d*(16) + (2d)*4 bytes approx. *)
  if 3 + (max_keys degree * 16) + ((2 * degree) * 4) > node_bytes then
    invalid_arg "Pm_index.create: degree too large for the node slot";
  let t =
    { client; handle; hdr = { degree; root_off = 0; alloc_off = header_bytes; count = 0 } }
  in
  match write_header t with Ok () -> Ok t | Error e -> Error e

let open_existing client handle =
  match Pm_client.read client handle ~off:0 ~len:header_bytes with
  | Error e -> Error e
  | Ok buf -> (
      match decode_header buf with
      | Some hdr -> Ok { client; handle; hdr }
      | None -> Error (Pm_types.Bad_request "no index in this region"))

let refresh t =
  match Pm_client.read t.client t.handle ~off:0 ~len:header_bytes with
  | Error e -> Error e
  | Ok buf -> (
      match decode_header buf with
      | Some hdr ->
          t.hdr.degree <- hdr.degree;
          t.hdr.root_off <- hdr.root_off;
          t.hdr.alloc_off <- hdr.alloc_off;
          t.hdr.count <- hdr.count;
          Ok ()
      | None -> Error (Pm_types.Bad_request "no index in this region"))

(* --- search --- *)

let lower_bound keys n k =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let find t ~key =
  let rec walk off =
    match read_node t ~off with
    | Error e -> Error e
    | Ok node ->
        let n = Array.length node.keys in
        let i = lower_bound node.keys n key in
        if i < n && node.keys.(i) = key then Ok (Some node.vals.(i))
        else if node.leaf then Ok None
        else walk node.children.(i)
  in
  if t.hdr.root_off = 0 then Ok None else walk t.hdr.root_off

(* --- copy-on-write insert --- *)

type push_up = No_split of int | Split of int * int * int * int
(* No_split new_off | Split (left_off, sep_key, sep_val, right_off) *)

let array_insert a i x =
  let n = Array.length a in
  Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

let maybe_split t node =
  let d = t.hdr.degree in
  let n = Array.length node.keys in
  if n <= max_keys d then
    match alloc_node t node with Ok off -> Ok (No_split off) | Error e -> Error e
  else begin
    (* n = 2d: split around index d. *)
    let mid = d in
    let left =
      {
        leaf = node.leaf;
        keys = Array.sub node.keys 0 mid;
        vals = Array.sub node.vals 0 mid;
        children = (if node.leaf then [||] else Array.sub node.children 0 (mid + 1));
      }
    in
    let right =
      {
        leaf = node.leaf;
        keys = Array.sub node.keys (mid + 1) (n - mid - 1);
        vals = Array.sub node.vals (mid + 1) (n - mid - 1);
        children = (if node.leaf then [||] else Array.sub node.children (mid + 1) (n - mid));
      }
    in
    match alloc_node t left with
    | Error e -> Error e
    | Ok left_off -> (
        match alloc_node t right with
        | Error e -> Error e
        | Ok right_off -> Ok (Split (left_off, node.keys.(mid), node.vals.(mid), right_off)))
  end

let insert t ~key ~value =
  let rec descend off =
    match read_node t ~off with
    | Error e -> Error e
    | Ok node -> (
        let n = Array.length node.keys in
        let i = lower_bound node.keys n key in
        if i < n && node.keys.(i) = key then begin
          (* Replace in place (CoW: a fresh copy of this node). *)
          let vals = Array.copy node.vals in
          vals.(i) <- value;
          match alloc_node t { node with vals } with
          | Ok off' -> Ok (No_split off', false)
          | Error e -> Error e
        end
        else if node.leaf then
          let grown =
            {
              node with
              keys = array_insert node.keys i key;
              vals = array_insert node.vals i value;
            }
          in
          match maybe_split t grown with Ok p -> Ok (p, true) | Error e -> Error e
        else
          match descend node.children.(i) with
          | Error e -> Error e
          | Ok (No_split child_off, added) -> (
              let children = Array.copy node.children in
              children.(i) <- child_off;
              match alloc_node t { node with children } with
              | Ok off' -> Ok (No_split off', added)
              | Error e -> Error e)
          | Ok (Split (l, sk, sv, r), added) -> (
              let keys = array_insert node.keys i sk in
              let vals = array_insert node.vals i sv in
              let children = Array.copy node.children in
              children.(i) <- l;
              let children = array_insert children (i + 1) r in
              match maybe_split t { node with keys; vals; children } with
              | Ok p -> Ok (p, added)
              | Error e -> Error e))
  in
  let finish root_off added =
    t.hdr.root_off <- root_off;
    if added then t.hdr.count <- t.hdr.count + 1;
    (* The header flip is the commit point. *)
    write_header t
  in
  if t.hdr.root_off = 0 then begin
    match alloc_node t { leaf = true; keys = [| key |]; vals = [| value |]; children = [||] } with
    | Error e -> Error e
    | Ok off -> finish off true
  end
  else
    match descend t.hdr.root_off with
    | Error e -> Error e
    | Ok (No_split off, added) -> finish off added
    | Ok (Split (l, sk, sv, r), added) -> (
        match
          alloc_node t { leaf = false; keys = [| sk |]; vals = [| sv |]; children = [| l; r |] }
        with
        | Error e -> Error e
        | Ok off -> finish off added)

let range t ~lo ~hi =
  let out = ref [] in
  let rec walk off =
    match read_node t ~off with
    | Error e -> Error e
    | Ok node ->
        let n = Array.length node.keys in
        if node.leaf then begin
          for i = 0 to n - 1 do
            if node.keys.(i) >= lo && node.keys.(i) <= hi then
              out := (node.keys.(i), node.vals.(i)) :: !out
          done;
          Ok ()
        end
        else begin
          let first = lower_bound node.keys n lo in
          let rec visit i =
            if i > n then Ok ()
            else
              match walk node.children.(i) with
              | Error e -> Error e
              | Ok () ->
                  if i < n && node.keys.(i) <= hi then begin
                    if node.keys.(i) >= lo then out := (node.keys.(i), node.vals.(i)) :: !out;
                    visit (i + 1)
                  end
                  else Ok ()
          in
          visit first
        end
  in
  if t.hdr.root_off = 0 then Ok []
  else match walk t.hdr.root_off with Ok () -> Ok (List.rev !out) | Error e -> Error e

let cardinal t = t.hdr.count

let height t =
  let rec walk off acc =
    match read_node t ~off with
    | Error _ -> acc
    | Ok node -> if node.leaf then acc else walk node.children.(0) (acc + 1)
  in
  if t.hdr.root_off = 0 then 0 else walk t.hdr.root_off 1

let bytes_allocated t = t.hdr.alloc_off

(* Classic CLR-style B-tree with preemptive splitting on descent for
   insert and the borrow/merge discipline for delete. *)

type 'a node = {
  mutable n : int;
  keys : int array;  (* length 2t-1; [0..n-1] in use *)
  vals : 'a option array;
  mutable children : 'a node array;  (* length 2t when internal; [||] when leaf *)
  mutable leaf : bool;
}

type 'a t = { degree : int; mutable root : 'a node; mutable size : int }

let max_keys t = (2 * t.degree) - 1

(* Children arrays of internal nodes are allocated lazily (on first
   attach) so every slot is initialized with a real node. *)
let new_node t ~leaf =
  {
    n = 0;
    keys = Array.make (max_keys t) 0;
    vals = Array.make (max_keys t) None;
    children = [||];
    leaf;
  }

let alloc_children t node first_child =
  if Array.length node.children = 0 then node.children <- Array.make (2 * t.degree) first_child

let create ?(degree = 16) () =
  if degree < 2 then invalid_arg "Btree.create: degree must be >= 2";
  let root =
    { n = 0; keys = Array.make ((2 * degree) - 1) 0; vals = Array.make ((2 * degree) - 1) None; children = [||]; leaf = true }
  in
  { degree; root; size = 0 }

(* Index of the first key >= k in [node], or [node.n]. *)
let lower_bound node k =
  let lo = ref 0 and hi = ref node.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if node.keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let rec find_in node k =
  let i = lower_bound node k in
  if i < node.n && node.keys.(i) = k then node.vals.(i)
  else if node.leaf then None
  else find_in node.children.(i) k

let find t ~key = find_in t.root key


(* Split the full child [child] = parent.children.(i); parent is not full. *)
let split_child t parent i child =
  let td = t.degree in
  let right = new_node t ~leaf:child.leaf in
  right.n <- td - 1;
  Array.blit child.keys td right.keys 0 (td - 1);
  Array.blit child.vals td right.vals 0 (td - 1);
  if not child.leaf then begin
    alloc_children t right child.children.(td);
    Array.blit child.children td right.children 0 td
  end;
  child.n <- td - 1;
  (* Shift the parent's keys/children right to make room. *)
  for j = parent.n - 1 downto i do
    parent.keys.(j + 1) <- parent.keys.(j);
    parent.vals.(j + 1) <- parent.vals.(j)
  done;
  for j = parent.n downto i + 1 do
    parent.children.(j + 1) <- parent.children.(j)
  done;
  parent.keys.(i) <- child.keys.(td - 1);
  parent.vals.(i) <- child.vals.(td - 1);
  child.vals.(td - 1) <- None;
  parent.children.(i + 1) <- right;
  parent.n <- parent.n + 1

let rec insert_nonfull t node k v =
  let i = lower_bound node k in
  if i < node.n && node.keys.(i) = k then begin
    let prev = node.vals.(i) in
    node.vals.(i) <- Some v;
    prev
  end
  else if node.leaf then begin
    for j = node.n - 1 downto i do
      node.keys.(j + 1) <- node.keys.(j);
      node.vals.(j + 1) <- node.vals.(j)
    done;
    node.keys.(i) <- k;
    node.vals.(i) <- Some v;
    node.n <- node.n + 1;
    t.size <- t.size + 1;
    None
  end
  else begin
    let i =
      if node.children.(i).n = max_keys t then begin
        split_child t node i node.children.(i);
        (* The separator moved up; pick the side (or the separator). *)
        if node.keys.(i) = k then -1 else if k > node.keys.(i) then i + 1 else i
      end
      else i
    in
    if i = -1 then begin
      (* k equals the promoted separator: replace in place. *)
      let j = lower_bound node k in
      let prev = node.vals.(j) in
      node.vals.(j) <- Some v;
      prev
    end
    else insert_nonfull t node.children.(i) k v
  end

let insert t ~key v =
  let root = t.root in
  if root.n = max_keys t then begin
    let new_root = new_node t ~leaf:false in
    alloc_children t new_root root;
    new_root.children.(0) <- root;
    t.root <- new_root;
    split_child t new_root 0 root
  end;
  insert_nonfull t t.root key v

(* --- Deletion --- *)

let rec max_entry node =
  if node.leaf then (node.keys.(node.n - 1), node.vals.(node.n - 1))
  else max_entry node.children.(node.n)

let rec min_entry node =
  if node.leaf then (node.keys.(0), node.vals.(0))
  else min_entry node.children.(0)

let remove_from_leaf node i =
  for j = i to node.n - 2 do
    node.keys.(j) <- node.keys.(j + 1);
    node.vals.(j) <- node.vals.(j + 1)
  done;
  node.vals.(node.n - 1) <- None;
  node.n <- node.n - 1

(* Merge children i and i+1 of [node] around separator i. *)
let merge_children t node i =
  let left = node.children.(i) in
  let right = node.children.(i + 1) in
  left.keys.(left.n) <- node.keys.(i);
  left.vals.(left.n) <- node.vals.(i);
  Array.blit right.keys 0 left.keys (left.n + 1) right.n;
  Array.blit right.vals 0 left.vals (left.n + 1) right.n;
  if not left.leaf then Array.blit right.children 0 left.children (left.n + 1) (right.n + 1);
  left.n <- left.n + 1 + right.n;
  for j = i to node.n - 2 do
    node.keys.(j) <- node.keys.(j + 1);
    node.vals.(j) <- node.vals.(j + 1)
  done;
  for j = i + 1 to node.n - 1 do
    node.children.(j) <- node.children.(j + 1)
  done;
  node.vals.(node.n - 1) <- None;
  node.n <- node.n - 1;
  ignore t

(* Ensure child [i] of [node] has at least [degree] keys before we
   descend into it. *)
let fix_child t node i =
  let td = t.degree in
  let child = node.children.(i) in
  if child.n >= td then i
  else begin
    let left_sibling = if i > 0 then Some node.children.(i - 1) else None in
    let right_sibling = if i < node.n then Some node.children.(i + 1) else None in
    match (left_sibling, right_sibling) with
    | Some ls, _ when ls.n >= td ->
        (* Borrow the greatest entry of the left sibling through the
           separator. *)
        for j = child.n - 1 downto 0 do
          child.keys.(j + 1) <- child.keys.(j);
          child.vals.(j + 1) <- child.vals.(j)
        done;
        if not child.leaf then begin
          for j = child.n downto 0 do
            child.children.(j + 1) <- child.children.(j)
          done;
          child.children.(0) <- ls.children.(ls.n)
        end;
        child.keys.(0) <- node.keys.(i - 1);
        child.vals.(0) <- node.vals.(i - 1);
        node.keys.(i - 1) <- ls.keys.(ls.n - 1);
        node.vals.(i - 1) <- ls.vals.(ls.n - 1);
        ls.vals.(ls.n - 1) <- None;
        ls.n <- ls.n - 1;
        child.n <- child.n + 1;
        i
    | _, Some rs when rs.n >= td ->
        (* Borrow the least entry of the right sibling. *)
        child.keys.(child.n) <- node.keys.(i);
        child.vals.(child.n) <- node.vals.(i);
        if not child.leaf then child.children.(child.n + 1) <- rs.children.(0);
        node.keys.(i) <- rs.keys.(0);
        node.vals.(i) <- rs.vals.(0);
        for j = 0 to rs.n - 2 do
          rs.keys.(j) <- rs.keys.(j + 1);
          rs.vals.(j) <- rs.vals.(j + 1)
        done;
        if not rs.leaf then
          for j = 0 to rs.n - 1 do
            rs.children.(j) <- rs.children.(j + 1)
          done;
        rs.vals.(rs.n - 1) <- None;
        rs.n <- rs.n - 1;
        child.n <- child.n + 1;
        i
    | Some _, _ ->
        merge_children t node (i - 1);
        i - 1
    | None, Some _ ->
        merge_children t node i;
        i
    | None, None -> i
  end

let rec delete_from t node k =
  let i = lower_bound node k in
  if i < node.n && node.keys.(i) = k then begin
    if node.leaf then begin
      let prev = node.vals.(i) in
      remove_from_leaf node i;
      prev
    end
    else begin
      let td = t.degree in
      let prev = node.vals.(i) in
      if node.children.(i).n >= td then begin
        (* Replace with the predecessor and delete it below. *)
        let pk, pv = max_entry node.children.(i) in
        node.keys.(i) <- pk;
        node.vals.(i) <- pv;
        ignore (delete_from t node.children.(i) pk)
      end
      else if node.children.(i + 1).n >= td then begin
        let sk, sv = min_entry node.children.(i + 1) in
        node.keys.(i) <- sk;
        node.vals.(i) <- sv;
        ignore (delete_from t node.children.(i + 1) sk)
      end
      else begin
        merge_children t node i;
        ignore (delete_from t node.children.(i) k)
      end;
      prev
    end
  end
  else if node.leaf then None
  else begin
    let i = fix_child t node i in
    (* fix_child may have pulled k into this node (borrow/merge moved
       separators); re-dispatch. *)
    let j = lower_bound node k in
    if j < node.n && node.keys.(j) = k then delete_from t node k
    else begin
      ignore i;
      delete_from t node.children.(j) k
    end
  end

let remove t ~key =
  let result = delete_from t t.root key in
  if result <> None then t.size <- t.size - 1;
  (* Shrink the root when it empties. *)
  if t.root.n = 0 && not t.root.leaf then t.root <- t.root.children.(0);
  result

(* --- Traversals --- *)

let rec iter_node node f =
  if node.leaf then
    for i = 0 to node.n - 1 do
      match node.vals.(i) with Some v -> f node.keys.(i) v | None -> ()
    done
  else begin
    for i = 0 to node.n - 1 do
      iter_node node.children.(i) f;
      match node.vals.(i) with Some v -> f node.keys.(i) v | None -> ()
    done;
    iter_node node.children.(node.n) f
  end

let iter t f = iter_node t.root f

let range t ~lo ~hi =
  let out = ref [] in
  let rec walk node =
    if node.leaf then
      for i = 0 to node.n - 1 do
        let k = node.keys.(i) in
        if k >= lo && k <= hi then
          match node.vals.(i) with Some v -> out := (k, v) :: !out | None -> ()
      done
    else begin
      let first = lower_bound node lo in
      (* Visit children/keys from [first] until past [hi]. *)
      let stop = ref false in
      let i = ref first in
      walk node.children.(first);
      while (not !stop) && !i < node.n do
        let k = node.keys.(!i) in
        if k > hi then stop := true
        else begin
          if k >= lo then (match node.vals.(!i) with Some v -> out := (k, v) :: !out | None -> ());
          walk node.children.(!i + 1);
          incr i
        end
      done
    end
  in
  walk t.root;
  List.rev !out

let min_binding t = if t.size = 0 then None else Some (let k, v = min_entry t.root in (k, Option.get v))

let max_binding t = if t.size = 0 then None else Some (let k, v = max_entry t.root in (k, Option.get v))

let cardinal t = t.size

let rec node_height node = if node.leaf then 1 else 1 + node_height node.children.(0)

let height t = node_height t.root

let check_invariants t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let counted = ref 0 in
  let rec walk node ~is_root ~depth ~lo ~hi =
    if node.n < 0 || node.n > max_keys t then err "node key count %d out of range" node.n;
    if (not is_root) && node.n < t.degree - 1 then
      err "underfull non-root node (%d keys, min %d)" node.n (t.degree - 1);
    for i = 0 to node.n - 1 do
      incr counted;
      let k = node.keys.(i) in
      if i > 0 && node.keys.(i - 1) >= k then err "keys out of order in node";
      (match lo with Some l when k <= l -> err "key %d violates lower bound" k | _ -> ());
      (match hi with Some h when k >= h -> err "key %d violates upper bound" k | _ -> ());
      if node.vals.(i) = None then err "missing value for key %d" k
    done;
    if node.leaf then [ depth ]
    else begin
      let depths = ref [] in
      for i = 0 to node.n do
        let child_lo = if i = 0 then lo else Some node.keys.(i - 1) in
        let child_hi = if i = node.n then hi else Some node.keys.(i) in
        depths :=
          !depths @ walk node.children.(i) ~is_root:false ~depth:(depth + 1) ~lo:child_lo ~hi:child_hi
      done;
      !depths
    end
  in
  let depths = walk t.root ~is_root:true ~depth:0 ~lo:None ~hi:None in
  (match depths with
  | [] -> ()
  | d :: rest -> if not (List.for_all (fun x -> x = d) rest) then err "leaves at unequal depth");
  if !counted <> t.size then err "cardinality mismatch: counted %d, recorded %d" !counted t.size;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

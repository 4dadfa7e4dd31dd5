type 'a entry = { key : int; seq : int; value : 'a; mutable slot : int }

type 'a t = { mutable a : 'a entry array; mutable n : int }

let create () = { a = [||]; n = 0 }

let is_empty t = t.n = 0

let length t = t.n

let less e1 e2 = e1.key < e2.key || (e1.key = e2.key && e1.seq < e2.seq)

let grow t e =
  let cap = Array.length t.a in
  if t.n = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let na = Array.make ncap e in
    Array.blit t.a 0 na 0 t.n;
    t.a <- na
  end

let[@inline] place a i e =
  a.(i) <- e;
  e.slot <- i

(* Both sifts carry [e] as a hole and write it once where it lands,
   keeping every moved entry's [slot] in step with its array index. *)
let sift_up t start e =
  let a = t.a in
  let i = ref start in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    less e a.(p)
  do
    let p = (!i - 1) / 2 in
    place a !i a.(p);
    i := p
  done;
  place a !i e

let sift_down t start e =
  let a = t.a and n = t.n in
  let i = ref start in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c = if l + 1 < n && less a.(l + 1) a.(l) then l + 1 else l in
      if less a.(c) e then begin
        place a !i a.(c);
        i := c
      end
      else continue := false
    end
  done;
  place a !i e

let push t ~key ~seq value =
  let e = { key; seq; value; slot = -1 } in
  grow t e;
  t.n <- t.n + 1;
  sift_up t (t.n - 1) e;
  e

let remove t e =
  let i = e.slot in
  if i >= 0 then begin
    if i >= t.n || t.a.(i) != e then invalid_arg "Heap.remove: entry of another heap";
    e.slot <- -1;
    let n = t.n - 1 in
    t.n <- n;
    if i < n then begin
      (* The last entry fills the hole; it may belong above or below. *)
      let last = t.a.(n) in
      if i > 0 && less last t.a.((i - 1) / 2) then sift_up t i last else sift_down t i last
    end
  end

let top t = if t.n = 0 then invalid_arg "Heap.top: empty heap" else t.a.(0)

let pop t =
  let e = top t in
  remove t e;
  e

(* Hash table plus an intrusive doubly-linked recency list.  The table
   maps a key to its node; the list threads the nodes newest to oldest.
   A missing neighbour is the constant [Nil], so relinking allocates
   nothing and only a fresh binding allocates (its node and the
   table's bucket cell). *)

type ('k, 'v) node =
  | Nil
  | Node of { key : 'k; mutable value : 'v; mutable newer : ('k, 'v) node; mutable older : ('k, 'v) node }

type ('k, 'v) t = {
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable newest : ('k, 'v) node;
  mutable oldest : ('k, 'v) node;
}

let create (n : int) : ('k, 'v) t = { tbl = Hashtbl.create n; newest = Nil; oldest = Nil }
let length (t : ('k, 'v) t) : int = Hashtbl.length t.tbl
let mem (t : ('k, 'v) t) (k : 'k) : bool = Hashtbl.mem t.tbl k

let unlink (t : ('k, 'v) t) : ('k, 'v) node -> unit = function
  | Nil -> ()
  | Node r ->
      (match r.newer with Nil -> t.newest <- r.older | Node p -> p.older <- r.older);
      (match r.older with Nil -> t.oldest <- r.newer | Node o -> o.newer <- r.newer)

let push_newest (t : ('k, 'v) t) : ('k, 'v) node -> unit = function
  | Nil -> ()
  | Node r as n ->
      r.newer <- Nil;
      r.older <- t.newest;
      (match t.newest with Nil -> t.oldest <- n | Node p -> p.newer <- n);
      t.newest <- n

let drop (t : ('k, 'v) t) : ('k, 'v) node -> unit = function
  | Nil -> ()
  | Node r as n ->
      unlink t n;
      Hashtbl.remove t.tbl r.key

let find (t : ('k, 'v) t) (k : 'k) : 'v option =
  match Hashtbl.find_opt t.tbl k with Some (Node r) -> Some r.value | Some Nil | None -> None

let promote (t : ('k, 'v) t) (k : 'k) : unit =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      unlink t n;
      push_newest t n
  | None -> ()

let replace (t : ('k, 'v) t) (k : 'k) (v : 'v) : unit =
  match Hashtbl.find_opt t.tbl k with
  | Some (Node r as n) ->
      r.value <- v;
      unlink t n;
      push_newest t n
  | Some Nil | None ->
      let n = Node { key = k; value = v; newer = Nil; older = Nil } in
      Hashtbl.add t.tbl k n;
      push_newest t n

let remove (t : ('k, 'v) t) (k : 'k) : unit =
  match Hashtbl.find_opt t.tbl k with Some n -> drop t n | None -> ()

let pop_oldest (t : ('k, 'v) t) : ('k * 'v) option =
  match t.oldest with
  | Nil -> None
  | Node r as n ->
      drop t n;
      Some (r.key, r.value)

let clear (t : ('k, 'v) t) : unit =
  Hashtbl.reset t.tbl;
  t.newest <- Nil;
  t.oldest <- Nil

let fold (f : 'k -> 'v -> 'a -> 'a) (t : ('k, 'v) t) (acc : 'a) : 'a =
  let rec go acc = function Nil -> acc | Node r -> go (f r.key r.value acc) r.older in
  go acc t.newest

let filter_inplace (keep : 'k -> 'v -> bool) (t : ('k, 'v) t) : unit =
  let rec go = function
    | Nil -> ()
    | Node r as n ->
        let older = r.older in
        if not (keep r.key r.value) then drop t n;
        go older
  in
  go t.newest

(* The shared recency table (Sfs_util.Lru) and the caches built on it.

   Two model tests pin the structure and the Diskmodel timing to
   executable oracles: Lru against the move-to-front list it replaced,
   and Diskmodel against a verbatim copy of its former list-based
   cache.  Tripwires bound the allocation of one access on a full
   cache, which the list versions rebuilt on every insert. *)

open Sfs_nfs
module Lru = Sfs_util.Lru
module Simclock = Sfs_net.Simclock

(* --- Lru against a list oracle --- *)

type op =
  | Replace of int * int
  | Find of int
  | Promote of int
  | Remove of int
  | Pop
  | Clear
  | Filter of int (* keep keys not congruent to this mod 3 *)

let show_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Promote k -> Printf.sprintf "promote %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Pop -> "pop"
  | Clear -> "clear"
  | Filter m -> Printf.sprintf "filter %d" m

let gen_op =
  let open QCheck.Gen in
  let key = int_range 0 9 in
  frequency
    [
      (6, map2 (fun k v -> Replace (k, v)) key (int_range 0 99));
      (3, map (fun k -> Find k) key);
      (3, map (fun k -> Promote k) key);
      (2, map (fun k -> Remove k) key);
      (2, return Pop);
      (1, return Clear);
      (1, map (fun m -> Filter m) (int_range 0 2));
    ]

(* The move-to-front list the caches used before, newest first. *)
module Oracle = struct
  let without k l = List.filter (fun (k', _) -> k' <> k) l

  let step (l : (int * int) list) : op -> (int * int) list * (int * int) option = function
    | Replace (k, v) -> ((k, v) :: without k l, None)
    | Find k -> (l, Option.map (fun v -> (k, v)) (List.assoc_opt k l))
    | Promote k -> (
        match List.assoc_opt k l with Some v -> ((k, v) :: without k l, None) | None -> (l, None))
    | Remove k -> (without k l, None)
    | Pop -> (
        match List.rev l with [] -> (l, None) | (k, v) :: _ -> (without k l, Some (k, v)))
    | Clear -> ([], None)
    | Filter m -> (List.filter (fun (k, _) -> k mod 3 <> m) l, None)
end

let lru_step (t : (int, int) Lru.t) : op -> (int * int) option = function
  | Replace (k, v) ->
      Lru.replace t k v;
      None
  | Find k -> Option.map (fun v -> (k, v)) (Lru.find t k)
  | Promote k ->
      Lru.promote t k;
      None
  | Remove k ->
      Lru.remove t k;
      None
  | Pop -> Lru.pop_oldest t
  | Clear ->
      Lru.clear t;
      None
  | Filter m ->
      Lru.filter_inplace (fun k _ -> k mod 3 <> m) t;
      None

let prop_lru_model =
  QCheck.Test.make ~count:500 ~name:"lru agrees with a move-to-front list"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 80) gen_op))
    (fun ops ->
      let t = Lru.create 2 in
      let _ =
        List.fold_left
          (fun l op ->
            let l', want = Oracle.step l op in
            let got = lru_step t op in
            let order = List.rev (Lru.fold (fun k v acc -> (k, v) :: acc) t []) in
            if got <> want || order <> l' || Lru.length t <> List.length l'
               || List.exists (fun (k, _) -> not (Lru.mem t k)) l'
            then QCheck.Test.fail_reportf "after %s: order and results diverge" (show_op op);
            l')
          [] ops
      in
      true)

(* --- Diskmodel against its former list-based cache --- *)

(* The list implementation Diskmodel used before the shared table,
   kept verbatim as the timing oracle. *)
module List_disk = struct
  type key = int * int

  type t = {
    clock : Simclock.t;
    params : Diskmodel.params;
    cache : (key, bool ref) Hashtbl.t;
    mutable lru : key list;
    mutable last_access : (int * int) option;
    mutable reads : int;
    mutable hits : int;
  }

  let block_size = Diskmodel.block_size

  let create params clock =
    { clock; params; cache = Hashtbl.create 16; lru = []; last_access = None; reads = 0; hits = 0 }

  let charge t us = Simclock.advance t.clock us
  let transfer_us t bytes = float_of_int bytes /. t.params.Diskmodel.bytes_per_us
  let memcpy_us t bytes = float_of_int bytes /. t.params.Diskmodel.memcpy_bytes_per_us
  let touch_lru t k = t.lru <- k :: List.filter (fun k' -> k' <> k) t.lru

  let evict_if_needed t =
    while Hashtbl.length t.cache > t.params.Diskmodel.cache_blocks do
      match List.rev t.lru with
      | [] -> Hashtbl.reset t.cache
      | victim :: _ ->
          (match Hashtbl.find_opt t.cache victim with
          | Some dirty when !dirty -> charge t (t.params.Diskmodel.position_us +. transfer_us t block_size)
          | _ -> ());
          Hashtbl.remove t.cache victim;
          t.lru <- List.filter (fun k -> k <> victim) t.lru
    done

  let insert t k ~dirty =
    (match Hashtbl.find_opt t.cache k with
    | Some d -> d := !d || dirty
    | None ->
        Hashtbl.replace t.cache k (ref dirty);
        touch_lru t k;
        evict_if_needed t);
    touch_lru t k

  let sequential t ~fileid ~block =
    match t.last_access with Some (f, b) -> f = fileid && (block = b + 1 || block = b) | None -> false

  let read t ~fileid ~off ~bytes =
    if bytes > 0 then
      for block = off / block_size to (off + bytes - 1) / block_size do
        t.reads <- t.reads + 1;
        let k = (fileid, block) in
        if Hashtbl.mem t.cache k then begin
          t.hits <- t.hits + 1;
          charge t (memcpy_us t (min bytes block_size))
        end
        else begin
          if not (sequential t ~fileid ~block) then charge t t.params.Diskmodel.position_us;
          charge t (transfer_us t block_size);
          insert t k ~dirty:false
        end;
        t.last_access <- Some (fileid, block)
      done

  let write t ~fileid ~off ~bytes ~stable =
    if bytes > 0 then
      for block = off / block_size to (off + bytes - 1) / block_size do
        let k = (fileid, block) in
        if stable then begin
          if not (sequential t ~fileid ~block) then charge t t.params.Diskmodel.position_us;
          charge t (transfer_us t (min bytes block_size));
          insert t k ~dirty:false
        end
        else begin
          charge t (memcpy_us t (min bytes block_size));
          insert t k ~dirty:true
        end;
        t.last_access <- Some (fileid, block)
      done

  let flush t ?fileid () =
    let dirty =
      Hashtbl.fold
        (fun (f, b) d acc -> if !d && (fileid = None || fileid = Some f) then ((f, b), d) :: acc else acc)
        t.cache []
    in
    if dirty <> [] then begin
      let files = List.sort_uniq compare (List.map (fun ((f, _), _) -> f) dirty) in
      charge t (float_of_int (List.length files) *. t.params.Diskmodel.position_us);
      charge t (transfer_us t (List.length dirty * block_size));
      List.iter (fun (_, d) -> d := false) dirty
    end

  let invalidate t =
    flush t ();
    Hashtbl.reset t.cache;
    t.lru <- [];
    t.last_access <- None
end

type dop =
  | D_read of int * int * int (* fileid, off, bytes *)
  | D_write of int * int * int * bool
  | D_flush of int option
  | D_invalidate

let show_dop = function
  | D_read (f, o, n) -> Printf.sprintf "read f%d @%d+%d" f o n
  | D_write (f, o, n, s) -> Printf.sprintf "write%s f%d @%d+%d" (if s then "(stable)" else "") f o n
  | D_flush None -> "flush all"
  | D_flush (Some f) -> Printf.sprintf "flush f%d" f
  | D_invalidate -> "invalidate"

let gen_dop =
  let open QCheck.Gen in
  let file = int_range 1 3 in
  (* Offsets over ten blocks, unaligned; up to three blocks per call. *)
  let off = int_range 0 (10 * Diskmodel.block_size) in
  let bytes = int_range 0 (3 * Diskmodel.block_size) in
  frequency
    [
      (6, map3 (fun f o n -> D_read (f, o, n)) file off bytes);
      (5, map3 (fun (f, s) o n -> D_write (f, o, n, s)) (pair file bool) off bytes);
      (2, map (fun f -> D_flush f) (opt file));
      (1, return D_invalidate);
    ]

let prop_diskmodel_model =
  QCheck.Test.make ~count:300 ~name:"diskmodel timing matches the list-based cache"
    (QCheck.make
       ~print:(fun (cap, ops) -> Printf.sprintf "cap %d: %s" cap (String.concat "; " (List.map show_dop ops)))
       QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 0 60) gen_dop)))
    (fun (cap, ops) ->
      let params = { Diskmodel.default_params with Diskmodel.cache_blocks = cap } in
      let c_new = Simclock.create () and c_old = Simclock.create () in
      let d_new = Diskmodel.create ~params c_new and d_old = List_disk.create params c_old in
      List.iter
        (fun op ->
          (match op with
          | D_read (fileid, off, bytes) ->
              Diskmodel.read d_new ~fileid ~off ~bytes;
              List_disk.read d_old ~fileid ~off ~bytes
          | D_write (fileid, off, bytes, stable) ->
              Diskmodel.write d_new ~fileid ~off ~bytes ~stable;
              List_disk.write d_old ~fileid ~off ~bytes ~stable
          | D_flush fileid ->
              Diskmodel.flush d_new ?fileid ();
              List_disk.flush d_old ?fileid ()
          | D_invalidate ->
              Diskmodel.invalidate d_new;
              List_disk.invalidate d_old);
          let t_new = Simclock.now_us c_new and t_old = Simclock.now_us c_old in
          if t_new <> t_old || Diskmodel.stats d_new <> (d_old.List_disk.reads, d_old.List_disk.hits) then
            QCheck.Test.fail_reportf "after %s: %.3f us vs %.3f us" (show_dop op) t_new t_old)
        ops;
      true)

let test_diskmodel_rejects_empty_cache () =
  let params = { Diskmodel.default_params with Diskmodel.cache_blocks = 0 } in
  Alcotest.check_raises "cache_blocks 0"
    (Invalid_argument "Diskmodel.create: cache_blocks must be >= 1") (fun () ->
      ignore (Diskmodel.create ~params (Simclock.create ())))

(* A read hit must not refresh recency: with room for three blocks,
   reading 0, 1, 2, then 0 again, then 3 evicts block 0 (the oldest
   insert), not block 1 (the least recently used). *)
let test_cachefs_insertion_order () =
  let clock = Simclock.create () in
  let fs = Memfs.create ~now:(fun () -> Nfs_types.time_of_us (Simclock.now_us clock)) () in
  let inner = Memfs_ops.make ~fs ~disk:(Diskmodel.create clock) in
  let wire_reads = ref 0 in
  let counted =
    {
      inner with
      Fs_intf.fs_read =
        (fun c h ~off ~count ->
          incr wire_reads;
          inner.Fs_intf.fs_read c h ~off ~count);
    }
  in
  let bs = Diskmodel.block_size in
  let policy = { Cachefs.nfs_policy with Cachefs.data_cache_bytes = 3 * bs } in
  let cops = Cachefs.ops (Cachefs.create ~clock ~policy counted) in
  let root = Sfs_os.Simos.cred_of_user Sfs_os.Simos.root_user in
  let ok = function Ok v -> v | Error _ -> Alcotest.fail "unexpected NFS error" in
  let f, _ = ok (inner.Fs_intf.fs_create root ~dir:inner.Fs_intf.fs_root "f" ~mode:0o644) in
  ignore (ok (inner.Fs_intf.fs_write root f ~off:0 ~stable:true (String.make (4 * bs) 'x')));
  let read b =
    let before = !wire_reads in
    ignore (ok (cops.Fs_intf.fs_read root f ~off:(b * bs) ~count:bs));
    !wire_reads > before
  in
  List.iter (fun b -> Testkit.check_bool (Printf.sprintf "block %d misses" b) true (read b)) [ 0; 1; 2 ];
  Testkit.check_bool "block 0 hits" false (read 0);
  Testkit.check_bool "block 3 misses" true (read 3);
  Testkit.check_bool "block 1 survived" false (read 1);
  Testkit.check_bool "block 0 was evicted" true (read 0)

(* --- Allocation tripwires --- *)

let minor_words_per_call (n : int) (f : int -> unit) : float =
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_diskmodel_access_alloc () =
  let disk = Diskmodel.create (Simclock.create ()) in
  let cap = Diskmodel.default_params.Diskmodel.cache_blocks in
  let read b = Diskmodel.read disk ~fileid:1 ~off:(b * Diskmodel.block_size) ~bytes:Diskmodel.block_size in
  for b = 0 to cap - 1 do
    read b
  done;
  (* Each access misses, inserts and evicts the oldest block. *)
  let words = minor_words_per_call 1000 (fun i -> read (cap + i)) in
  if words > 64.0 then Alcotest.failf "one access on a full %d-block cache: %.1f words" cap words

let test_lru_insert_alloc () =
  let cap = 3200 in
  let t = Lru.create 16 in
  let insert k =
    Lru.replace t k k;
    if Lru.length t > cap then ignore (Lru.pop_oldest t)
  in
  for k = 0 to cap - 1 do
    insert k
  done;
  let words = minor_words_per_call 1000 (fun i -> insert (cap + i)) in
  if words > 64.0 then Alcotest.failf "one insert into a full %d-entry table: %.1f words" cap words

let suite =
  ( "lru",
    [
      Alcotest.test_case "diskmodel rejects an empty cache" `Quick test_diskmodel_rejects_empty_cache;
      Alcotest.test_case "cachefs evicts in insertion order" `Quick test_cachefs_insertion_order;
      Alcotest.test_case "diskmodel access allocation" `Quick test_diskmodel_access_alloc;
      Alcotest.test_case "lru insert allocation" `Quick test_lru_insert_alloc;
    ]
    @ Testkit.to_alcotest [ prop_lru_model; prop_diskmodel_model ] )

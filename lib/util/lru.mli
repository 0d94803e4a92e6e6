(** A recency-ordered hash table, the one structure behind the block
    and object caches (Diskmodel, Cachefs, Vcache).  Every operation
    but {!fold} and {!filter_inplace} is O(1), and only a fresh
    binding allocates.  There is no built-in bound: each cache evicts
    with {!pop_oldest} by its own measure (blocks, bytes, objects) and
    decides itself which accesses count as use.  Keys are hashed and
    compared structurally, as by [Hashtbl]. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** Empty; the hash table starts at about [n] buckets and grows. *)

val length : ('k, 'v) t -> int
val mem : ('k, 'v) t -> 'k -> bool

val find : ('k, 'v) t -> 'k -> 'v option
(** Recency is left unchanged. *)

val promote : ('k, 'v) t -> 'k -> unit
(** Make a bound key the newest; no-op when unbound. *)

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Bind or rebind a key and make it the newest. *)

val remove : ('k, 'v) t -> 'k -> unit
val pop_oldest : ('k, 'v) t -> ('k * 'v) option

val clear : ('k, 'v) t -> unit
(** Also shrinks the hash table back to its initial size. *)

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** Newest to oldest; [f] must not modify the table. *)

val filter_inplace : ('k -> 'v -> bool) -> ('k, 'v) t -> unit
(** Keep the bindings the predicate accepts, in their recency order;
    the predicate must not modify the table. *)

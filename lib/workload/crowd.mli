(** The crowd engine under {!Fleet} and {!Flashcrowd} (DESIGN.md §15):
    thousands of simulated clients, each connecting, running [n] ops
    and finishing, as events on one {!Sfs_net.Simclock} queue.  Every
    action is re-accounted so its serving slice queues on the serving
    host's run queue.  A client kind supplies only its connect, its op
    and its retry policy per failure class. *)

module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Sketch = Sfs_obs.Sketch
module Obs = Sfs_obs.Obs

(** Why a client action failed. *)
type cause =
  | Raised of exn  (** an exception escaped the action *)
  | Mount of Sfs_core.Client.mount_error
  | Status of Sfs_nfs.Nfs_types.nfsstat  (** an NFS reply carried an error *)
  | Missing_entry of string  (** a name absent from a directory the client walked *)
  | Unexpected of string  (** verified data the workload never published *)

type failure =
  | Transport  (** timeout, no route, host unreachable: the peer may come back *)
  | Verification  (** served bytes failed a hash or signature check *)
  | Fatal  (** everything else, a failed key negotiation included *)

val classify : cause -> failure

(** What to do when an op fails. *)
type 'st recovery =
  | Skip  (** count the op failed and go on to the next *)
  | Give_up  (** abandon the client and its remaining ops *)
  | Reconnect  (** back off, then connect again *)
  | Repair of ('st -> unit)  (** run the repair (timed), back off, retry the op *)

type ('cl, 'st) kind = {
  host : 'cl -> Simnet.host;  (** where an action's serving slice queues *)
  connect : 'cl -> 'st option -> ('st, cause) result;  (** [Some]: an earlier connect's state *)
  op : 'cl -> 'st -> int -> (unit, cause) result;  (** op [k], 0-based *)
  finish : 'cl -> 'st -> unit;  (** after the last op; timed *)
  abandon : 'cl -> unit;  (** after giving up *)
  retry_connect : failure -> bool;
  on_op_failure : failure -> 'st recovery;
  on_reconnect : 'cl -> unit;  (** before each re-dial is scheduled *)
  max_retries : int;  (** consecutive failures retried before giving up *)
}

(** One run's world and tallies. *)
type t = private {
  clock : Simclock.t;
  obs : Obs.registry;  (** span retention bounded; counters kept *)
  net : Simnet.t;
  mutable last_ready_us : float;
  mutable connects : int;  (** successful connects, re-dials included *)
  mutable gave_up : int; mutable finished : int;
  mutable ops_ok : int;
  mutable ops_failed : int;  (** [Skip]ped ops *)
  mutable ops_abandoned : int;  (** ops never run by clients that gave up *)
  mutable reconnects : int; mutable repairs : int; mutable events : int;
  op_lat : Sketch.t;  (** per-op latency, microseconds *)
  connect_lat : Sketch.t;
}

val create : max_spans:int -> t

val arm_faults : t -> on_restart:(string * (unit -> unit)) list -> Sfs_fault.Fault.spec option -> unit
(** Arm a chaos plan over the whole run; {!run} disarms it. *)

val note_ready : t -> float -> unit
(** Extend [last_ready_us] (for events a kind charges itself). *)

(** Client [i] of [n] arrives at [i * spacing], or at
    [ramp_us * sqrt((i+1)/n)]: a rate growing linearly until all are in. *)
type arrival = Stagger of float | Ramp of float

val run : ?event:float * (unit -> unit) -> t -> ('cl, 'st) kind -> arrival -> ops:int -> 'cl array -> unit
(** Schedule every arrival (then [event]), pump the queue dry, disarm
    faults.  Deterministic. *)

val ledger : string list -> last_ready_us:float -> (string * Sketch.t) list -> Obs.registry -> string
(** The byte-identity artifact: the header lines, the last-ready
    instant, the named sketches, then every obs counter, one sorted
    line each. *)

val zipf_cdf : n:int -> theta:float -> float array
(** CDF over [n] items, hottest first. *)

val zipf_sample : float array -> Sfs_crypto.Prng.t -> int

val file_char : int -> char
(** Contents of tree file [i] (flat index), so readers can check bytes. *)

val setup : 'a Sfs_nfs.Nfs_types.res -> 'a
(** Unwrap a world-building step.  @raise Sfs_nfs.Nfs_types.Nfs_error *)

val seed_tree :
  Sfs_nfs.Memfs.t -> Sfs_os.Simos.cred -> dir:int -> dirs:int -> files_per_dir:int -> file_bytes:int -> int array
(** Create [dir/d<i>/f<j>] holding {!file_char} of the flat index
    [i * files_per_dir + j]; returns the file inodes by flat index. *)

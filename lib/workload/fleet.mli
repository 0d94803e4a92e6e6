(** Fleet-scale simulation: thousands of concurrent read-write clients
    against a farm of sfssd servers fronted by a sharded authserv ring
    ({!Sfs_core.Authshard}), run as one client kind of the {!Crowd}
    engine — DESIGN.md §15.

    Each client mounts (key negotiation, agent authentication, handle
    lookups), runs its micro-ops and unmounts.  Only transport failures
    at mount are re-dialled; ops never retry. *)

module Simnet = Sfs_net.Simnet
module Sketch = Sfs_obs.Sketch
module Core = Sfs_core

(** What each client does after mounting: the hot-file lease fan-in
    mix, or Zipf reads over the [dirs] x [files_per_dir] tree that
    {!Flashcrowd} serves from read-only mirrors (the CDN figure's rw arm). *)
type workload =
  | Hotfile
  | Zipf of { dirs : int; files_per_dir : int; file_bytes : int; theta : float }

(** Arrival spacing: fixed [Stagger] ([stagger_us]), or a flash-crowd
    [Ramp] whose rate grows linearly until the whole crowd is in. *)
type arrival = Stagger | Ramp of float

type config = {
  clients : int;
  servers : int;
  auth_shards : int;
  user_pool : int;  (** distinct users/keys, shared round-robin *)
  window : int;  (** rpc window; 1 = fully serial clients *)
  readahead : int;
  ops_per_client : int;
  admit_per_server : int option;  (** connection admission cap *)
  hot_write_every : int;  (** every k-th client also writes the hot file *)
  lease_s : int;
  drc_size : int;
  server_key_bits : int;
  user_key_bits : int;
  stagger_us : float;  (** arrival spacing between client mounts *)
  mount_attempt_limit : int;
  max_spans : int;
  seed : string;
  fault : Sfs_fault.Fault.spec option;
  workload : workload;
  arrival : arrival;
}

val default : config
(** A small smoke-sized fleet (8 clients, 2 servers, 2 shards). *)

type result = {
  r_cfg : config;
  r_completed : int;
  r_failed : int;
  r_mount_ok : int;
  r_mount_failed : int;
  r_mount_retries : int;
  r_last_ready_us : float;
  r_op_lat : Sketch.t;  (** per-op latency, microseconds *)
  r_mount_lat : Sketch.t;
  r_dropped_invals : int;  (** invalidations pending at unmount *)
  r_events : int;
  r_servers : Core.Server.t array;
  r_hosts : Simnet.host array;
  r_obs : Sfs_obs.Obs.registry;
}

val run : config -> result
(** Build the world (servers, shards, seeded files, clients), schedule
    every client's mount (staggered by [stagger_us]) and pump the event
    queue dry.  Deterministic: same config, byte-identical {!ledger}. *)

val throughput_ops_s : result -> float
(** Completed ops over the full simulated span (mounts included). *)

val reconcile : result -> (string * bool) list
(** Named invariants balancing obs counters against live state: DRC
    insert/evict vs entries, lease invalidations sent vs applied +
    pending (both sides), admission/connection closure, authshard
    routing.  All must hold on fault-free runs. *)

val ledger : result -> string
(** Counters, sketches and tallies, one sorted line each — the
    byte-identity artifact for the determinism gates. *)

val server_loc : int -> string
(** Server host names, for soak fault plans targeting the farm. *)

(** Flash-crowd simulation: the read-only dialect as a CDN tier.

    A publisher signs a snapshot, fans it out to N untrusted mirrors
    ({!Sfs_core.Replica}), and a crowd of read-only clients arrives on
    an accelerating ramp, reading Zipf-popular files through per-client
    verification caches with least-loaded failover across mirrors.
    Per-client state is deliberately slim — no key negotiation, no
    encrypted channel, no Cachefs — which is what lets the crowd scale
    past the read-write fleet's 10^4 clients toward 10^5.  A client
    kind of the {!Crowd} engine: reads fail over on transport failures
    and refresh the root on verification failures. *)

module Simnet = Sfs_net.Simnet
module Sketch = Sfs_obs.Sketch
module Core = Sfs_core

type config = {
  clients : int;
  replicas : int;  (** mirrors serving the snapshot *)
  dirs : int;
  files_per_dir : int;
  file_bytes : int;
  theta : float;  (** Zipf exponent for file popularity *)
  reads_per_client : int;
  vcache_objs : int;  (** per-client verification cache bound *)
  admit_per_mirror : int option;
  ramp_us : float;  (** the whole crowd arrives within this window *)
  republish_at_us : float option;
      (** mid-crowd incremental publish + fan-out (tests eviction and
          client root refresh under load) *)
  attempt_limit : int;
  key_bits : int;
  duration_s : int;
  max_spans : int;
  seed : string;
  fault : Sfs_fault.Fault.spec option;
}

val default : config
(** A smoke-sized crowd (64 clients, 2 mirrors). *)

type result = {
  r_cfg : config;
  r_reads_ok : int;
  r_reads_failed : int;
  r_clients_ok : int;
  r_clients_failed : int;
  r_failovers : int;  (** re-dials to a different (or the same) mirror *)
  r_retries : int;  (** verify-failure retries (refresh + re-walk) *)
  r_bad_content : int;  (** reads matching no published generation *)
  r_republishes : int;
  r_fanout_failures : int;
  r_last_ready_us : float;
  r_read_lat : Sketch.t;  (** per-read latency, microseconds *)
  r_connect_lat : Sketch.t;
  r_events : int;
  r_mirrors : Core.Replica.mirror array;
  r_mhosts : Simnet.host array;
  r_publisher : Core.Replica.publisher;
  r_obs : Sfs_obs.Obs.registry;
}

val run : config -> result
(** Publish, fan out, ramp the crowd in, pump the event queue dry.
    Deterministic: same config, byte-identical {!ledger}. *)

val throughput_reads_s : result -> float

val reconcile : result -> (string * bool) list
(** Named invariants, exact on fault-free runs.  The load-bearing one
    is [no_unverified_bytes]: nothing an application read escaped the
    hash chain — objects served by mirrors balance against
    verifications, bytes served balance against bytes verified. *)

val ledger : result -> string
(** Byte-identity artifact for the determinism gates (config, tallies,
    sketches, sorted counters). *)

val publisher_loc : string
val mirror_loc : int -> string
(** Host names, for soak fault plans targeting the RO tier. *)

(* Fleet-scale simulation: thousands of concurrent read-write clients
   against a farm of sfssd servers fronted by a sharded authserv, one
   client kind of the Crowd engine (DESIGN.md §15).  Everything is
   deterministic: two same-config runs produce byte-identical ledgers
   (the scale figure's byte-diff gate and the chaos soak check this). *)

module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Simos = Sfs_os.Simos
module Memfs = Sfs_nfs.Memfs
module Memfs_ops = Sfs_nfs.Memfs_ops
module Diskmodel = Sfs_nfs.Diskmodel
module Fs_intf = Sfs_nfs.Fs_intf
module Lease = Sfs_proto.Lease
module Prng = Sfs_crypto.Prng
module Rabin = Sfs_crypto.Rabin
module Core = Sfs_core
module Obs = Sfs_obs.Obs
module Sketch = Sfs_obs.Sketch

(* [Zipf] reads the same tree Flashcrowd serves from read-only
   mirrors, so the two arms of the CDN figure are apples-to-apples. *)
type workload =
  | Hotfile
  | Zipf of { dirs : int; files_per_dir : int; file_bytes : int; theta : float }

type arrival = Stagger | Ramp of float

type config = {
  clients : int;
  servers : int;
  auth_shards : int;
  user_pool : int; (* distinct users (and keys) shared round-robin *)
  window : int; (* rpc window; 1 = fully serial clients *)
  readahead : int;
  ops_per_client : int;
  admit_per_server : int option; (* connection admission cap per server *)
  hot_write_every : int; (* every k-th client also writes the hot file *)
  lease_s : int;
  drc_size : int; (* per-server duplicate-request cache bound *)
  server_key_bits : int;
  user_key_bits : int;
  stagger_us : float; (* arrival spacing between client mounts *)
  mount_attempt_limit : int;
  max_spans : int; (* obs retention bound: fleets drop spans, keep counters *)
  seed : string;
  fault : Sfs_fault.Fault.spec option;
  workload : workload;
  arrival : arrival;
}

let default : config =
  {
    clients = 8;
    servers = 2;
    auth_shards = 2;
    user_pool = 4;
    window = 16;
    readahead = 16;
    ops_per_client = 4;
    admit_per_server = None;
    hot_write_every = 4;
    lease_s = 60;
    drc_size = 512;
    server_key_bits = 512; (* encryption target: OAEP needs >= 512 bits *)
    user_key_bits = 384; (* signing only, so the smaller modulus is fine *)
    stagger_us = 200.0;
    mount_attempt_limit = 1000;
    max_spans = 20_000;
    seed = "fleet";
    fault = None;
    workload = Hotfile;
    arrival = Stagger;
  }

type result = {
  r_cfg : config;
  r_completed : int; (* micro-ops that returned Ok *)
  r_failed : int; (* micro-ops that errored or raised *)
  r_mount_ok : int;
  r_mount_failed : int;
  r_mount_retries : int; (* re-dials after admission refusal / crash *)
  r_last_ready_us : float;
  r_op_lat : Sketch.t; (* per-op latency, microseconds *)
  r_mount_lat : Sketch.t;
  r_dropped_invals : int; (* invalidations still pending at unmount *)
  r_events : int;
  r_servers : Core.Server.t array;
  r_hosts : Simnet.host array;
  r_obs : Obs.registry;
}

let throughput_ops_s (r : result) : float =
  if r.r_last_ready_us <= 0.0 then 0.0
  else float_of_int r.r_completed /. (r.r_last_ready_us /. 1_000_000.0)

let server_loc (s : int) : string = Printf.sprintf "srv%d.fleet.lcs.mit.edu" s
let client_loc (i : int) : string = Printf.sprintf "c%d.client.fleet" i

(* A client before it mounts, and after: the mount plus its resolved
   working handles.  [chost] is the serving host, for re-accounting. *)
type cl = {
  idx : int; cc : Core.Client.t; path : Core.Pathname.t; chost : Simnet.host;
  agent : Core.Agent.t; cred : Simos.cred;
}
type mounted = { m : Core.Client.mount; bench : string; hot : string; own : string }
type 'a step = ('a, Crowd.cause) Stdlib.result

let hot_read_bytes = 4096
let own_write_bytes = 1024
let ( let* ) r f = match r with Ok v -> f v | Error st -> Error (Crowd.Status st)

(* Mount, authenticate, resolve the working handles.  Admission
   refusals and crash windows surface as Host_unreachable or a timeout
   (transport); a failed key negotiation is fatal, never retried. *)
let connect (c : cl) (_ : mounted option) : mounted step =
  match Core.Client.mount c.cc c.path with
  | Error e -> Error (Crowd.Mount e)
  | Ok m ->
      ignore (Core.Client.authenticate c.cc m c.agent);
      let o = Core.Client.ops m in
      let* bench, _ = o.Fs_intf.fs_lookup c.cred ~dir:o.Fs_intf.fs_root "bench" in
      let* hot, _ = o.Fs_intf.fs_lookup c.cred ~dir:bench "hot" in
      let* own, _ = o.Fs_intf.fs_lookup c.cred ~dir:bench ("c" ^ string_of_int c.idx) in
      Ok { m; bench; hot; own }

(* Reads of the shared hot file dominate (lease fan-in: every client
   holds it); writes go to the client's own file; every
   [hot_write_every]-th client's last op writes the hot file,
   triggering an invalidation to every holder. *)
let hotfile_op (cfg : config) (c : cl) (st : mounted) (k : int) : unit step =
  let o = Core.Client.ops st.m in
  if cfg.hot_write_every > 0 && c.idx mod cfg.hot_write_every = 0 && k = cfg.ops_per_client - 1 then
    let* _ = o.Fs_intf.fs_write c.cred st.hot ~off:(c.idx mod 16 * 256) ~stable:true (String.make 256 'w') in
    Ok ()
  else if k land 1 = 0 then
    let* _ = o.Fs_intf.fs_read c.cred st.hot ~off:0 ~count:hot_read_bytes in
    Ok ()
  else
    let* _ = o.Fs_intf.fs_write c.cred st.own ~off:0 ~stable:false (String.make 64 'o') in
    Ok ()

(* Draw a file by Zipf popularity, resolve its handle through the
   protocol once (then a per-client name cache), read it whole.
   All-read: the rw arm of the CDN figure measures serving cost. *)
let zipf_op (cfg : config) ~dirs ~files_per_dir ~file_bytes ~theta : cl -> mounted -> int -> unit step =
  let cdf = Crowd.zipf_cdf ~n:(dirs * files_per_dir) ~theta in
  let rngs = Array.init cfg.clients (fun i -> Prng.create [ cfg.seed; "zipf"; string_of_int i ]) in
  let names = Array.init cfg.clients (fun _ -> Hashtbl.create 8) in
  fun c st _ ->
    let o = Core.Client.ops st.m in
    let file = Crowd.zipf_sample cdf rngs.(c.idx) in
    let resolved =
      match Hashtbl.find_opt names.(c.idx) file with
      | Some fh -> Ok fh
      | None ->
          let* d, _ = o.Fs_intf.fs_lookup c.cred ~dir:st.bench ("d" ^ string_of_int (file / files_per_dir)) in
          let* fh, _ = o.Fs_intf.fs_lookup c.cred ~dir:d ("f" ^ string_of_int (file mod files_per_dir)) in
          Hashtbl.replace names.(c.idx) file fh;
          Ok fh
    in
    Result.bind resolved (fun fh ->
        let* data, _, _ = o.Fs_intf.fs_read c.cred fh ~off:0 ~count:file_bytes in
        if String.length data = file_bytes then Ok () else Error (Crowd.Unexpected "short read"))

let run (cfg : config) : result =
  if cfg.clients < 1 || cfg.servers < 1 || cfg.auth_shards < 1 || cfg.user_pool < 1 then
    invalid_arg "Fleet.run: counts must be positive";
  let e = Crowd.create ~max_spans:cfg.max_spans in
  let clock = e.Crowd.clock and obs = e.Crowd.obs and net = e.Crowd.net in
  let now () = Sfs_nfs.Nfs_types.time_of_us (Simclock.now_us clock) in
  (* --- the authserv ring --- *)
  let shards =
    Array.init cfg.auth_shards (fun i ->
        Core.Authserv.create ~obs (Prng.create [ cfg.seed; "authshard"; string_of_int i ]))
  in
  let ring = Core.Authshard.create ~obs shards in
  let auth_backend = Core.Authshard.backend ring in
  (* --- users: a pool of keys shared round-robin by the clients --- *)
  let os = Simos.create () in
  let root_cred = Simos.cred_of_user Simos.root_user in
  let users =
    Array.init cfg.user_pool (fun j ->
        let name = "u" ^ string_of_int j in
        let user = Simos.add_user os name in
        let cred = Simos.cred_of_user user in
        let rng = Prng.create [ cfg.seed; "userkey"; string_of_int j ] in
        let key = Rabin.generate ~bits:cfg.user_key_bits rng in
        ignore (Core.Authshard.add_user_key ring ~user:name ~cred key.Rabin.pub);
        let agent = Core.Agent.create ~now_us:(fun () -> Simclock.now_us clock) ~obs user in
        Core.Agent.add_key agent key;
        (cred, agent))
  in
  (* --- the server farm: the hot file and each resident client's own
     file are pre-seeded, so the measured phase is pure steady-state
     traffic (no create storm) --- *)
  let mk_server s =
    let location = server_loc s in
    let host = Simnet.add_host net location in
    let fs = Memfs.create ~fsid:(100 + s) ~now () in
    let backend = Memfs_ops.make ~fs ~disk:(Diskmodel.create ~params:Diskmodel.default_params clock) in
    let bench, _ = Crowd.setup (Memfs.mkdir fs root_cred ~dir:Memfs.root_id "bench" ~mode:0o777) in
    let seed_file name bytes =
      let ino, _ = Crowd.setup (Memfs.create_file fs root_cred ~dir:bench name ~mode:0o666) in
      ignore (Crowd.setup (Memfs.write fs root_cred ino ~off:0 (String.make bytes 'x')))
    in
    seed_file "hot" hot_read_bytes;
    let i = ref s in
    while !i < cfg.clients do
      seed_file ("c" ^ string_of_int !i) own_write_bytes;
      i := !i + cfg.servers
    done;
    (match cfg.workload with
    | Hotfile -> ()
    | Zipf { dirs; files_per_dir; file_bytes; theta = _ } ->
        ignore (Crowd.seed_tree fs root_cred ~dir:bench ~dirs ~files_per_dir ~file_bytes));
    let rng = Prng.create [ cfg.seed; "server"; string_of_int s ] in
    let key = Rabin.generate ~bits:cfg.server_key_bits rng in
    let srv =
      Core.Server.create ~lease_s:cfg.lease_s ~drc_size:cfg.drc_size ~auth_backend ~obs net ~host
        ~location ~key ~rng ~backend ~authserv:shards.(s mod cfg.auth_shards) ()
    in
    Simnet.set_admission host cfg.admit_per_server;
    (srv, host)
  in
  let farm = Array.init cfg.servers mk_server in
  let servers = Array.map fst farm and hosts = Array.map snd farm in
  (* --- the clients: one shared temp key (generating thousands of
     K_C's is real CPU for no model fidelity), private rngs --- *)
  let temp_key = Rabin.generate ~bits:512 (Prng.create [ cfg.seed; "tempkey" ]) in
  let mk_client i =
    let from = client_loc i and s = i mod cfg.servers in
    ignore (Simnet.add_host net from);
    let cred, agent = users.(i mod cfg.user_pool) in
    let rng = Prng.create [ cfg.seed; "client"; string_of_int i ] in
    let cc =
      Core.Client.create ~temp_key ~rpc_window:cfg.window ~readahead:cfg.readahead ~obs net ~from_host:from ~rng ()
    in
    { idx = i; cc; path = Core.Server.self_path servers.(s); chost = hosts.(s); agent; cred }
  in
  let cls = Array.init cfg.clients mk_client in
  let on_restart =
    List.init cfg.servers (fun s -> (server_loc s, fun () -> Core.Server.crash_recover servers.(s)))
  in
  Crowd.arm_faults e ~on_restart cfg.fault;
  let dropped_invals = ref 0 in
  let finish c st =
    dropped_invals := !dropped_invals + Core.Client.pending_invalidations st.m;
    Core.Client.unmount c.cc st.m
  in
  let op =
    match cfg.workload with
    | Hotfile -> hotfile_op cfg
    | Zipf { dirs; files_per_dir; file_bytes; theta } -> zipf_op cfg ~dirs ~files_per_dir ~file_bytes ~theta
  in
  (* Only transport failures at mount are re-dialled; ops never retry. *)
  let kind =
    { Crowd.host = (fun c -> c.chost); connect; op; finish; abandon = ignore;
      retry_connect = (fun f -> f = Crowd.Transport); on_op_failure = (fun _ -> Crowd.Skip);
      on_reconnect = ignore; max_retries = cfg.mount_attempt_limit - 1 }
  in
  let arrival = match cfg.arrival with Stagger -> Crowd.Stagger cfg.stagger_us | Ramp r -> Crowd.Ramp r in
  (* sfstaint: allow TNT004 — the engine's absorb re-raises an action's exception untouched after restoring the clock; no secret-derived value is interpolated *)
  Crowd.run e kind arrival ~ops:cfg.ops_per_client cls;
  {
    r_cfg = cfg;
    r_completed = e.Crowd.ops_ok;
    r_failed = e.Crowd.ops_failed;
    r_mount_ok = e.Crowd.connects;
    r_mount_failed = e.Crowd.gave_up;
    r_mount_retries = e.Crowd.reconnects;
    r_last_ready_us = e.Crowd.last_ready_us;
    r_op_lat = e.Crowd.op_lat;
    r_mount_lat = e.Crowd.connect_lat;
    r_dropped_invals = !dropped_invals;
    r_events = e.Crowd.events;
    r_servers = servers;
    r_hosts = hosts;
    r_obs = obs;
  }

(* The obs counters must balance against live state, or the fan-in
   machinery lost something: exact on fault-free runs. *)
let reconcile (r : result) : (string * bool) list =
  let snap = Obs.snapshot r.r_obs in
  let ctr name = Obs.snap_counter snap name in
  let drc_live = Array.fold_left (fun a s -> a + Core.Server.drc_entries s) 0 r.r_servers in
  let lease_pending =
    Array.fold_left (fun a s -> a + Lease.pending_count (Core.Server.leases s)) 0 r.r_servers
  in
  let shard_validates =
    List.fold_left
      (fun a (name, v) -> if String.starts_with ~prefix:"authshard." name then a + v else a)
      0 snap.Obs.snap_counters
  in
  [
    ("ops_accounted", r.r_completed + r.r_failed = r.r_mount_ok * r.r_cfg.ops_per_client);
    ("drc_balance", ctr "server.drc_insert" - ctr "server.drc_evict" = drc_live);
    ( "invalidations_balance",
      ctr "lease.invalidations" = ctr "cache.invalidations" + r.r_dropped_invals + lease_pending );
    ("no_retransmits", ctr "recover.retransmit_hit" = 0);
    ("all_conns_closed", Array.for_all (fun h -> Simnet.host_active_conns h = 0) r.r_hosts);
    ("auth_routed", shard_validates = r.r_mount_ok);
    ("all_mounted", r.r_mount_ok + r.r_mount_failed = r.r_cfg.clients);
  ]

let ledger (r : result) : string =
  Crowd.ledger
    [
      Printf.sprintf "fleet clients=%d servers=%d shards=%d window=%d ops=%d" r.r_cfg.clients
        r.r_cfg.servers r.r_cfg.auth_shards r.r_cfg.window r.r_cfg.ops_per_client;
      Printf.sprintf "tally completed=%d failed=%d mount_ok=%d mount_failed=%d retries=%d"
        r.r_completed r.r_failed r.r_mount_ok r.r_mount_failed r.r_mount_retries;
    ]
    ~last_ready_us:r.r_last_ready_us
    [ ("op_lat", r.r_op_lat); ("mount_lat", r.r_mount_lat) ]
    r.r_obs

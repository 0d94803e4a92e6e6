(* Fleet-scale simulation: thousands of concurrent clients against a
   farm of sfssd servers fronted by a sharded authserv.

   The single-client stacks (Stacks) run workloads synchronously on one
   simulated clock.  At fleet scale that breaks down: 10,000 clients'
   operations overlap in simulated time, so the engine here is
   discrete-event — every client action is an event on the shared
   clock's queue (Simclock.schedule / run_all), executed under
   Simclock.absorb and re-accounted:

     T      the instant the event fires (the op's submit time)
     d      total simulated time the action charged (absorb measures it)
     s      the slice of d spent inside the serving host's handlers
            (read off the host's served-time accumulator)
     c      d - s: client-side compute plus wire time

   The client's own work starts immediately (each client has its own
   machine), but the server slice must queue on the serving host's run
   queue behind every other client's slices:

     ready = Simnet.host_occupy host ~at_us:(T + c) ~dur_us:s

   and the op's latency is ready - T.  With one client the host queue
   is always free at T + c, so ready = T + d: the fleet model
   degenerates exactly to the serial one.

   Everything is deterministic: seeded Prngs, the simulated clock, and
   counters/sketches keyed to it.  Two same-config runs must produce
   byte-identical ledgers (the scale figure's byte-diff gate and the
   chaos-soak job both check this). *)

module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Costmodel = Sfs_net.Costmodel
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
module Fault = Sfs_fault.Fault

(* What each client does after mounting.  [Hotfile] is the original
   lease fan-in workload.  [Zipf] is the flash-crowd read mix: a
   two-level tree of [dirs] x [files_per_dir] files read with Zipf
   popularity — the same layout Flashcrowd serves from read-only
   mirrors, so the two arms of the CDN figure are apples-to-apples. *)
type workload =
  | Hotfile
  | Zipf of { dirs : int; files_per_dir : int; file_bytes : int; theta : float }

(* How client arrivals are spaced: the original fixed [Stagger], or an
   accelerating flash-crowd [Ramp] where client i mounts at
   ramp_us * sqrt((i+1)/n) — arrival rate grows linearly with time. *)
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
  fault : Fault.spec option;
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

(* Zipf CDF over [n] items with exponent [theta], hottest first.
   Sampling is a uniform draw plus binary search — deterministic given
   the client's seeded Prng. *)
let zipf_cdf ~(n : int) ~(theta : float) : float array =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** theta));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  Array.map (fun v -> v /. total) cdf

let zipf_sample (cdf : float array) (rng : Prng.t) : int =
  let r = float_of_int (Prng.random_int rng 1_000_000) /. 1_000_000.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < r then lo := mid + 1 else hi := mid
  done;
  !lo

(* Deterministic file contents for the Zipf tree; Flashcrowd seeds the
   publisher's tree with the same function so reads are checkable. *)
let zipf_file_char (file : int) : char = Char.chr (Char.code 'a' + (file mod 26))

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

(* Per-client progress; the event callbacks close over this. *)
type cl = {
  idx : int;
  cc : Core.Client.t;
  path : Core.Pathname.t;
  chost : Simnet.host; (* the serving host, for occupancy accounting *)
  agent : Core.Agent.t;
  cred : Simos.cred;
  mutable mount : Core.Client.mount option;
  mutable fh_hot : string;
  mutable fh_own : string;
  mutable fh_bench : string;
  mutable ops_done : int;
  mutable attempts : int;
  zrng : Prng.t option; (* Zipf draw stream; None under Hotfile *)
  zfh : (int, string) Hashtbl.t; (* file index -> resolved handle *)
}

let hot_read_bytes = 4096
let own_write_bytes = 1024

let run (cfg : config) : result =
  if cfg.clients < 1 || cfg.servers < 1 || cfg.auth_shards < 1 || cfg.user_pool < 1 then
    invalid_arg "Fleet.run: counts must be positive";
  let clock = Simclock.create () in
  let obs = Obs.create ~max_spans:cfg.max_spans ~now_us:(fun () -> Simclock.now_us clock) () in
  let net = Simnet.create ~costs:Costmodel.default ~obs clock in
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
        let key =
          Rabin.generate ~bits:cfg.user_key_bits
            (Prng.create [ cfg.seed; "userkey"; string_of_int j ])
        in
        ignore (Core.Authshard.add_user_key ring ~user:name ~cred key.Rabin.pub);
        let agent = Core.Agent.create ~now_us:(fun () -> Simclock.now_us clock) ~obs user in
        Core.Agent.add_key agent key;
        (cred, agent))
  in
  (* --- the server farm --- *)
  let mk_server s =
    let location = server_loc s in
    let host = Simnet.add_host net location in
    let fs = Memfs.create ~fsid:(100 + s) ~now () in
    let disk = Diskmodel.create ~params:Diskmodel.default_params clock in
    let backend = Memfs_ops.make ~fs ~disk in
    let bench =
      match Memfs.mkdir fs root_cred ~dir:Memfs.root_id "bench" ~mode:0o777 with
      | Ok (ino, _) -> ino
      | Error _ -> assert false
    in
    (* Seed the shared hot file and each resident client's own file so
       the measured phase is pure steady-state traffic (no create
       storm). *)
    let seed_file name bytes =
      match Memfs.create_file fs root_cred ~dir:bench name ~mode:0o666 with
      | Ok (ino, _) -> (
          match Memfs.write fs root_cred ino ~off:0 (String.make bytes 'x') with
          | Ok _ -> ()
          | Error _ -> assert false)
      | Error _ -> assert false
    in
    seed_file "hot" hot_read_bytes;
    let i = ref s in
    while !i < cfg.clients do
      seed_file ("c" ^ string_of_int !i) own_write_bytes;
      i := !i + cfg.servers
    done;
    (match cfg.workload with
    | Hotfile -> ()
    | Zipf z ->
        (* The flash-crowd tree: bench/d<i>/f<j>, contents a pure
           function of the flat file index. *)
        for d = 0 to z.dirs - 1 do
          let dir =
            match Memfs.mkdir fs root_cred ~dir:bench ("d" ^ string_of_int d) ~mode:0o777 with
            | Ok (ino, _) -> ino
            | Error _ -> assert false
          in
          for f = 0 to z.files_per_dir - 1 do
            let file = (d * z.files_per_dir) + f in
            match Memfs.create_file fs root_cred ~dir ("f" ^ string_of_int f) ~mode:0o666 with
            | Ok (ino, _) -> (
                match
                  Memfs.write fs root_cred ino ~off:0
                    (String.make z.file_bytes (zipf_file_char file))
                with
                | Ok _ -> ()
                | Error _ -> assert false)
            | Error _ -> assert false
          done
        done);
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
  let servers = Array.map fst farm in
  let hosts = Array.map snd farm in
  (* --- the clients: one shared temp key (generating thousands of
     K_C's is real CPU for no model fidelity), private rngs --- *)
  let temp_key = Rabin.generate ~bits:512 (Prng.create [ cfg.seed; "tempkey" ]) in
  let mk_client i =
    let from = client_loc i in
    ignore (Simnet.add_host net from);
    let s = i mod cfg.servers in
    let cred, agent = users.(i mod cfg.user_pool) in
    let cc =
      Core.Client.create ~temp_key ~rpc_window:cfg.window
        ~readahead:cfg.readahead ~obs net ~from_host:from
        ~rng:(Prng.create [ cfg.seed; "client"; string_of_int i ])
        ()
    in
    {
      idx = i;
      cc;
      path = Core.Server.self_path servers.(s);
      chost = hosts.(s);
      agent;
      cred;
      mount = None;
      fh_hot = "";
      fh_own = "";
      fh_bench = "";
      ops_done = 0;
      attempts = 0;
      zrng =
        (match cfg.workload with
        | Hotfile -> None
        | Zipf _ -> Some (Prng.create [ cfg.seed; "zipf"; string_of_int i ]));
      zfh = Hashtbl.create 8;
    }
  in
  let cls = Array.init cfg.clients mk_client in
  let cdf =
    match cfg.workload with
    | Hotfile -> [||]
    | Zipf z -> zipf_cdf ~n:(z.dirs * z.files_per_dir) ~theta:z.theta
  in
  (* --- fault plan (chaos soak): armed over the whole run --- *)
  (match cfg.fault with
  | None -> ()
  | Some spec ->
      let on_restart =
        Array.to_list
          (Array.mapi (fun s srv -> (server_loc s, fun () -> Core.Server.crash_recover srv)) servers)
      in
      let inj = Fault.injector ~obs ~on_restart ~now_us:(fun () -> Simclock.now_us clock) spec in
      Simnet.set_injector net (Some inj));
  (* --- engine state --- *)
  let completed = ref 0 and failed = ref 0 in
  let mount_ok = ref 0 and mount_failed = ref 0 and mount_retries = ref 0 in
  let dropped_invals = ref 0 in
  let last_ready = ref 0.0 in
  let op_lat = Sketch.create () and mount_lat = Sketch.create () in
  let seen_ready us = if us > !last_ready then last_ready := us in
  (* Run [action] at the current event instant and re-account it: the
     serving host's slice queues on its run queue, the rest is the
     client's own machine and the wire.  Exceptions become [Error]. *)
  let exec_timed :
      'a. cl -> (unit -> ('a, string) Stdlib.result) -> ('a, string) Stdlib.result * float * float
      =
   fun c action ->
    let t0 = Simclock.now_us clock in
    let s0 = Simnet.host_served_us c.chost in
    let r, d =
      (* sfstaint: allow TNT004 — absorb re-raises the action's exception untouched after restoring the clock; no secret-derived value is interpolated *)
      Simclock.absorb clock (fun () ->
          try action () with
          | Simnet.Timeout -> Error "timeout"
          | Sfs_nfs.Nfs_client.Rpc_failure e -> Error ("rpc: " ^ e)
          (* sfstaint: allow TNT004 — harness-fatal exceptions pass through verbatim; nothing secret-derived is attached *)
          | Stack_overflow | Out_of_memory | Assert_failure _ as e -> raise e
          | e ->
              (* Chaos plans can push failures out of exotic corners
                 (corrupted negotiation frames, mid-handshake crashes);
                 a fleet client that dies takes only its own ops with
                 it.  Printexc strings are deterministic for these. *)
              Error ("exn: " ^ Printexc.to_string e))
    in
    let s = Simnet.host_served_us c.chost -. s0 in
    let s = if s < 0.0 then 0.0 else s in
    let cpu = if d -. s < 0.0 then 0.0 else d -. s in
    let ready =
      if s > 0.0 then Simnet.host_occupy c.chost ~at_us:(t0 +. cpu) ~dur_us:s else t0 +. d
    in
    seen_ready ready;
    (r, t0, ready)
  in
  (* Micro-op k for client i.  Reads of the shared hot file dominate
     (lease fan-in: every client holds it); writes go to the client's
     own pre-seeded file; every [hot_write_every]-th client's last op
     writes the hot file, triggering an invalidation to every holder. *)
  (* The flash-crowd micro-op: draw a file by Zipf popularity, resolve
     its handle through the protocol once (then a client-side name
     cache), and read it whole.  All-read by construction — the rw arm
     of the CDN figure measures serving cost, not write contention. *)
  let do_zipf_op (c : cl) ~(files_per_dir : int) ~(file_bytes : int) () :
      (unit, string) Stdlib.result =
    let m = match c.mount with Some m -> m | None -> assert false in
    let o = Core.Client.ops m in
    let rng = match c.zrng with Some r -> r | None -> assert false in
    let file = zipf_sample cdf rng in
    let ( let* ) r f =
      match r with Ok v -> f v | Error e -> Error (Sfs_nfs.Nfs_types.status_to_string e)
    in
    let fh_res =
      match Hashtbl.find_opt c.zfh file with
      | Some fh -> Ok fh
      | None ->
          let dname = "d" ^ string_of_int (file / files_per_dir) in
          let fname = "f" ^ string_of_int (file mod files_per_dir) in
          let* d, _ = o.Fs_intf.fs_lookup c.cred ~dir:c.fh_bench dname in
          let* fh, _ = o.Fs_intf.fs_lookup c.cred ~dir:d fname in
          Hashtbl.replace c.zfh file fh;
          Stdlib.Result.Ok fh
    in
    match fh_res with
    | Error e -> Error e
    | Ok fh ->
        let* data, _, _ = o.Fs_intf.fs_read c.cred fh ~off:0 ~count:file_bytes in
        if String.length data = file_bytes then Ok () else Error "short read"
  in
  let do_hotfile_op (c : cl) (k : int) () : (unit, string) Stdlib.result =
    let m = match c.mount with Some m -> m | None -> assert false in
    let o = Core.Client.ops m in
    let hot_writer = cfg.hot_write_every > 0 && c.idx mod cfg.hot_write_every = 0 in
    if hot_writer && k = cfg.ops_per_client - 1 then
      match
        o.Fs_intf.fs_write c.cred c.fh_hot
          ~off:(c.idx mod 16 * 256)
          ~stable:true (String.make 256 'w')
      with
      | Ok _ -> Ok ()
      | Error e -> Error (Sfs_nfs.Nfs_types.status_to_string e)
    else if k land 1 = 0 then
      match o.Fs_intf.fs_read c.cred c.fh_hot ~off:0 ~count:hot_read_bytes with
      | Ok _ -> Ok ()
      | Error e -> Error (Sfs_nfs.Nfs_types.status_to_string e)
    else
      match o.Fs_intf.fs_write c.cred c.fh_own ~off:0 ~stable:false (String.make 64 'o') with
      | Ok _ -> Ok ()
      | Error e -> Error (Sfs_nfs.Nfs_types.status_to_string e)
  in
  let do_op (c : cl) (k : int) () : (unit, string) Stdlib.result =
    match cfg.workload with
    | Hotfile -> do_hotfile_op c k ()
    | Zipf { dirs = _; files_per_dir; file_bytes; theta = _ } ->
        do_zipf_op c ~files_per_dir ~file_bytes ()
  in
  let do_unmount (c : cl) () : (unit, string) Stdlib.result =
    (match c.mount with
    | Some m ->
        dropped_invals := !dropped_invals + Core.Client.pending_invalidations m;
        Core.Client.unmount c.cc m;
        c.mount <- None
    | None -> ());
    Ok ()
  in
  let rec ev_op (c : cl) () =
    if c.ops_done >= cfg.ops_per_client then begin
      let _, _, _ = exec_timed c (do_unmount c) in
      ()
    end
    else begin
      let k = c.ops_done in
      c.ops_done <- k + 1;
      let r, t0, ready = exec_timed c (do_op c k) in
      (match r with
      | Ok () ->
          incr completed;
          Sketch.observe op_lat (int_of_float (ready -. t0))
      | Error _ -> incr failed);
      Simclock.schedule clock ~at_us:ready (ev_op c)
    end
  in
  (* Mount, authenticate, resolve the working handles: one setup action.
     Admission refusals and crash windows surface as Host_unreachable /
     timeout; those back off and re-dial (counted). *)
  let do_mount (c : cl) () : (Core.Client.mount, string) Stdlib.result =
    match Core.Client.mount c.cc c.path with
    | Error e -> Error (Core.Client.mount_error_to_string e)
    | Ok m -> (
        ignore (Core.Client.authenticate c.cc m c.agent);
        let o = Core.Client.ops m in
        let ( let* ) r f =
          match r with
          | Ok v -> f v
          | Error e -> Error (Sfs_nfs.Nfs_types.status_to_string e)
        in
        let* bench, _ = o.Fs_intf.fs_lookup c.cred ~dir:o.Fs_intf.fs_root "bench" in
        let* hot, _ = o.Fs_intf.fs_lookup c.cred ~dir:bench "hot" in
        let* own, _ = o.Fs_intf.fs_lookup c.cred ~dir:bench ("c" ^ string_of_int c.idx) in
        c.fh_hot <- hot;
        c.fh_own <- own;
        c.fh_bench <- bench;
        Ok m)
  in
  let retryable (e : string) : bool =
    (* admission refusal / crash window / torn negotiation *)
    String.length e >= 4 && (String.sub e 0 4 = "host" || String.sub e 0 4 = "time")
  in
  let rec ev_mount (c : cl) () =
    c.attempts <- c.attempts + 1;
    let r, t0, ready = exec_timed c (do_mount c) in
    match r with
    | Ok m ->
        incr mount_ok;
        c.mount <- Some m;
        Sketch.observe mount_lat (int_of_float (ready -. t0));
        Simclock.schedule clock ~at_us:ready (ev_op c)
    | Error e when retryable e && c.attempts < cfg.mount_attempt_limit ->
        incr mount_retries;
        (* capped linear backoff; deterministic, spreads re-dials *)
        let backoff = Float.min 500_000.0 (20_000.0 *. float_of_int c.attempts) in
        Simclock.schedule clock ~at_us:(ready +. backoff) (ev_mount c)
    | Error _ ->
        incr mount_failed;
        let _, _, _ = exec_timed c (do_unmount c) in
        ()
  in
  let arrival_at (i : int) : float =
    match cfg.arrival with
    | Stagger -> float_of_int i *. cfg.stagger_us
    | Ramp ramp_us ->
        (* accelerating arrivals: rate grows linearly until the whole
           crowd is in by [ramp_us] *)
        ramp_us *. sqrt (float_of_int (i + 1) /. float_of_int cfg.clients)
  in
  Array.iter (fun c -> Simclock.schedule clock ~at_us:(arrival_at c.idx) (ev_mount c)) cls;
  let events = Simclock.run_all clock in
  Simnet.set_injector net None;
  {
    r_cfg = cfg;
    r_completed = !completed;
    r_failed = !failed;
    r_mount_ok = !mount_ok;
    r_mount_failed = !mount_failed;
    r_mount_retries = !mount_retries;
    r_last_ready_us = !last_ready;
    r_op_lat = op_lat;
    r_mount_lat = mount_lat;
    r_dropped_invals = !dropped_invals;
    r_events = events;
    r_servers = servers;
    r_hosts = hosts;
    r_obs = obs;
  }

(* --- reconciliation: the obs counters must balance against live
   state, or the fan-in machinery lost something.  Exact equalities on
   fault-free runs (the 10k smoke test asserts them all). *)
let reconcile (r : result) : (string * bool) list =
  let snap = Obs.snapshot r.r_obs in
  let ctr name = Obs.snap_counter snap name in
  let drc_live = Array.fold_left (fun a s -> a + Core.Server.drc_entries s) 0 r.r_servers in
  let lease_pending =
    Array.fold_left (fun a s -> a + Lease.pending_count (Core.Server.leases s)) 0 r.r_servers
  in
  let shard_validates =
    List.fold_left
      (fun a (name, v) ->
        if String.length name > 10 && String.sub name 0 10 = "authshard." then a + v else a)
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

(* The determinism artifact: every counter, the latency sketches and
   the tallies, one line each, sorted — two same-config runs must
   produce byte-identical ledgers. *)
let ledger (r : result) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "fleet clients=%d servers=%d shards=%d window=%d ops=%d\n" r.r_cfg.clients
       r.r_cfg.servers r.r_cfg.auth_shards r.r_cfg.window r.r_cfg.ops_per_client);
  Buffer.add_string b
    (Printf.sprintf "tally completed=%d failed=%d mount_ok=%d mount_failed=%d retries=%d\n"
       r.r_completed r.r_failed r.r_mount_ok r.r_mount_failed r.r_mount_retries);
  Buffer.add_string b (Printf.sprintf "last_ready_us %.3f\n" r.r_last_ready_us);
  Buffer.add_string b ("sketch op_lat " ^ Sketch.to_json r.r_op_lat ^ "\n");
  Buffer.add_string b ("sketch mount_lat " ^ Sketch.to_json r.r_mount_lat ^ "\n");
  let snap = Obs.snapshot r.r_obs in
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "counter %s %d\n" name v))
    snap.Obs.snap_counters;
  Buffer.contents b

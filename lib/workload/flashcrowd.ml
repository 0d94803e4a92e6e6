(* Flash-crowd simulation: the read-only dialect as a CDN tier, one
   client kind of the Crowd engine (DESIGN.md §15).

   A publisher signs a snapshot of a two-level file tree and fans it
   out to N untrusted mirrors (Replica); a crowd of up to 10^5
   read-only clients arrives on an accelerating ramp, each fetching
   Zipf-popular files and verifying every object against the hash
   chain ending at the signed root.  Mirrors burn no cryptography per
   request, so aggregate capacity scales with the replica count;
   clients pay SHA-1 once per object, then hit their verification
   cache. *)

module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Costmodel = Sfs_net.Costmodel
module Simos = Sfs_os.Simos
module Memfs = Sfs_nfs.Memfs
module Prng = Sfs_crypto.Prng
module Rabin = Sfs_crypto.Rabin
module Core = Sfs_core
module Ro = Sfs_proto.Readonly_proto
module Obs = Sfs_obs.Obs
module Sketch = Sfs_obs.Sketch

type config = {
  clients : int;
  replicas : int; (* mirrors serving the snapshot *)
  dirs : int;
  files_per_dir : int;
  file_bytes : int;
  theta : float; (* Zipf exponent for file popularity *)
  reads_per_client : int;
  vcache_objs : int; (* per-client verification cache bound *)
  admit_per_mirror : int option;
  ramp_us : float; (* the whole crowd arrives within this window *)
  republish_at_us : float option;
      (* mid-crowd update: the publisher rewrites the hottest file in
         every directory, publishes incrementally, and fans the delta
         out — exercising eviction and client root refresh under load *)
  attempt_limit : int;
  key_bits : int;
  duration_s : int;
  max_spans : int;
  seed : string;
  fault : Sfs_fault.Fault.spec option;
}

let default : config =
  {
    clients = 64;
    replicas = 2;
    dirs = 4;
    files_per_dir = 16;
    file_bytes = 2048;
    theta = 1.0;
    reads_per_client = 4;
    vcache_objs = 4096;
    admit_per_mirror = None;
    ramp_us = 50_000.0;
    republish_at_us = None;
    attempt_limit = 1000;
    key_bits = 512;
    duration_s = 24 * 3600;
    max_spans = 20_000;
    seed = "flashcrowd";
    fault = None;
  }

type result = {
  r_cfg : config;
  r_reads_ok : int;
  r_reads_failed : int;
  r_clients_ok : int; (* finished all their reads *)
  r_clients_failed : int; (* gave up (attempt limit) *)
  r_failovers : int; (* re-dials to a different mirror *)
  r_retries : int; (* verify-failure retries against the same tree *)
  r_bad_content : int; (* reads whose bytes matched no published generation *)
  r_republishes : int;
  r_fanout_failures : int;
  r_last_ready_us : float;
  r_read_lat : Sketch.t; (* per-read latency, microseconds *)
  r_connect_lat : Sketch.t;
  r_events : int;
  r_mirrors : Core.Replica.mirror array;
  r_mhosts : Simnet.host array;
  r_publisher : Core.Replica.publisher;
  r_obs : Obs.registry;
}

let throughput_reads_s (r : result) : float =
  if r.r_last_ready_us <= 0.0 then 0.0
  else float_of_int r.r_reads_ok /. (r.r_last_ready_us /. 1_000_000.0)

let publisher_loc : string = "publisher.ro.fleet"
let mirror_loc (m : int) : string = Printf.sprintf "mirror%d.ro.fleet" m
let client_loc (i : int) : string = Printf.sprintf "c%d.ro.client" i

(* Slim per-client state: this record plus a bounded Vcache (the
   connected state, a Readonly.client) is the whole footprint — compare
   Fleet's, which drags a full Core.Client (keyed channel, Cachefs,
   agent, mux) per connection.  [pending] is the file mid-retry, or -1. *)
type rcl = {
  from : string; rng : Prng.t; mutable conn : Simnet.conn option; mutable mirror : int; mutable pending : int;
}

let ( let* ) = Result.bind

let dir_entries : Ro.obj -> (Ro.entry list, Crowd.cause) Stdlib.result = function
  | Ro.O_dir entries -> Ok entries
  | _ -> Error (Crowd.Unexpected "not a directory")

let find_entry (entries : Ro.entry list) (name : string) : (string, Crowd.cause) Stdlib.result =
  match List.find_opt (fun e -> e.Ro.e_name = name) entries with
  | Some e -> Ok e.Ro.e_hash
  | None -> Error (Crowd.Missing_entry name)

let drop_conn (c : rcl) : unit =
  Option.iter Simnet.close c.conn;
  c.conn <- None

let run (cfg : config) : result =
  if cfg.clients < 1 || cfg.replicas < 1 || cfg.dirs < 1 || cfg.files_per_dir < 1 then
    invalid_arg "Flashcrowd.run: counts must be positive";
  let e = Crowd.create ~max_spans:cfg.max_spans in
  let clock = e.Crowd.clock and obs = e.Crowd.obs and net = e.Crowd.net in
  let costs = Costmodel.default in
  let now () = Sfs_nfs.Nfs_types.time_of_us (Simclock.now_us clock) in
  let root_cred = Simos.cred_of_user Simos.root_user in
  (* --- the publisher: file tree, private key, snapshot --- *)
  ignore (Simnet.add_host net publisher_loc);
  let fs = Memfs.create ~fsid:7 ~now () in
  let { dirs; files_per_dir; file_bytes; _ } = cfg in
  let files = Crowd.seed_tree fs root_cred ~dir:Memfs.root_id ~dirs ~files_per_dir ~file_bytes in
  let key = Rabin.generate ~bits:cfg.key_bits (Prng.create [ cfg.seed; "rokey" ]) in
  let publisher =
    Core.Replica.publisher ~obs ~costs ~duration_s:cfg.duration_s ~net ~host:publisher_loc ~key ~clock fs
  in
  ignore (Core.Replica.publish publisher);
  (* --- the mirror tier --- *)
  let mirrors = Array.init cfg.replicas (fun m -> Core.Replica.mirror ~obs ~costs ~clock ~name:(mirror_loc m) ()) in
  let mhosts =
    Array.init cfg.replicas (fun m ->
        let h = Simnet.add_host net (mirror_loc m) in
        Core.Replica.attach net mirrors.(m) h;
        Simnet.set_admission h cfg.admit_per_mirror;
        h)
  in
  let targets = Array.to_list (Array.init cfg.replicas (fun m -> Core.Replica.target ~addr:(mirror_loc m))) in
  let fanout_failures = ref (Core.Replica.fan_out publisher targets) in
  let pubkey = Core.Replica.pubkey publisher in
  (* --- fault plan (chaos soak): mirrors keep their stores across
     crash epochs (the store models a disk), so no on_restart hook --- *)
  Crowd.arm_faults e ~on_restart:[] cfg.fault;
  let cdf = Crowd.zipf_cdf ~n:(dirs * files_per_dir) ~theta:cfg.theta in
  let bad_content = ref 0 and republishes = ref 0 in
  let cls =
    Array.init cfg.clients (fun i ->
        let from = client_loc i and rng = Prng.create [ cfg.seed; "roclient"; string_of_int i ] in
        ignore (Simnet.add_host net from);
        { from; rng; conn = None; mirror = i mod cfg.replicas; pending = -1 })
  in
  (* Least-loaded failover: the mirror with the fewest live connections
     (lowest index on ties) — the admission counter is the load signal. *)
  let pick_mirror () : int =
    let best = ref 0 in
    for m = 1 to cfg.replicas - 1 do
      if Simnet.host_active_conns mhosts.(m) < Simnet.host_active_conns mhosts.(!best) then
        best := m
    done;
    !best
  in
  (* Reads [c.conn] at call time, so one Readonly.client (and its
     verification cache) survives re-dials and mirror switches: a
     content hash names the same bytes everywhere. *)
  let exchange (c : rcl) (bytes : string) : string =
    match c.conn with
    | None -> raise Simnet.Timeout
    | Some conn ->
        Simclock.advance clock costs.Costmodel.userlevel_us_per_side;
        (* sfslint: allow SL010 — read-only dialect: every fetch is hash-verified against the previous, so the chain is serial *)
        Simnet.call conn bytes
  in
  (* Dial the current mirror; the first connect also fetches and
     verifies the signed root, a re-dial keeps the verified client. *)
  let connect (c : rcl) (prev : Core.Readonly.client option) =
    let conn =
      (* sfstaint: allow TNT003 TNT004 — Simnet.connect interpolates only host names and ports into its errors and span labels; the client's Zipf Prng stays out of both *)
      Simnet.connect net ~from_host:c.from ~addr:(mirror_loc c.mirror) ~port:Core.Replica.ro_port
        ~proto:Costmodel.Tcp
    in
    c.conn <- Some conn;
    match prev with
    | Some ro -> Ok ro
    | None ->
        Ok
          (* sfstaint: allow TNT004 — connect raises plain Simnet/Verification errors; the per-client Zipf Prng never reaches the exchange or the message *)
          (Core.Readonly.connect ~obs ~cache_objs:cfg.vcache_objs ~costs ~exchange:(exchange c)
             ~pubkey ~clock ())
  in
  (* One flash-crowd read: walk root dir -> subdir -> file through the
     verification cache and check every byte against the published
     generations.  A wrong byte here would mean unverified data reached
     the application — counted, and asserted zero by [reconcile]. *)
  let read (c : rcl) (ro : Core.Readonly.client) (_ : int) =
    let file = if c.pending >= 0 then c.pending else Crowd.zipf_sample cdf c.rng in
    c.pending <- file;
    let d = file / files_per_dir and f = file mod files_per_dir in
    let info = Core.Readonly.current_fsinfo ro in
    let* root = dir_entries (Core.Readonly.fetch ro info.Ro.root_hash) in
    let* dh = find_entry root ("d" ^ string_of_int d) in
    let* dir = dir_entries (Core.Readonly.fetch ro dh) in
    let* fh = find_entry dir ("f" ^ string_of_int f) in
    match Core.Readonly.fetch ro fh with
    | Ro.O_file data ->
        (* Either generation of the file is fine (a republish rewrites
           the hottest file per directory with 'Z'); anything else is
           bytes the hash chain never vouched for. *)
        let stale = String.make file_bytes (Crowd.file_char file) in
        if String.equal data stale || String.equal data (String.make file_bytes 'Z') then begin
          c.pending <- -1;
          Obs.incr (Some obs) "ro.reads";
          Ok ()
        end
        else (incr bad_content; Error (Crowd.Unexpected "bad content"))
    | _ -> Error (Crowd.Unexpected "not a file")
  in
  let refresh ro =
    Obs.incr (Some obs) "ro.client.retry";
    (* sfstaint: allow TNT004 — refresh raises Verification_failed with protocol text only; the client's Zipf Prng is not part of the exception *)
    Core.Readonly.refresh ro
  in
  let fail_over c =
    Obs.incr (Some obs) "ro.client.failover";
    drop_conn c;
    c.mirror <- pick_mirror ()
  in
  (* Reads fail over on transport failures and refresh the root on
     verification failures (a republish may have evicted what the old
     root referenced; nothing wrong ever got cached). *)
  let on_op_failure = function
    | Crowd.Transport -> Crowd.Reconnect
    | Crowd.Verification -> Crowd.Repair refresh
    | Crowd.Fatal -> Crowd.Give_up
  in
  let kind =
    { Crowd.host = (fun c -> mhosts.(c.mirror)); connect; op = read; finish = (fun c _ -> drop_conn c);
      abandon = drop_conn; retry_connect = (fun f -> f <> Crowd.Fatal); on_op_failure;
      on_reconnect = fail_over; max_retries = cfg.attempt_limit }
  in
  (* Mid-crowd republish: rewrite each directory's hottest file, publish
     incrementally, fan the delta out.  Its own charge: the serving
     slices land on every mirror's run queue at t0, competing with the crowd. *)
  let republish () =
    let t0 = Simclock.now_us clock in
    let s0 = Array.map Simnet.host_served_us mhosts in
    let (), d =
      (* sfstaint: allow TNT004 — absorb re-raises the action's exception untouched after restoring the clock; the signing key never appears in a message *)
      Simclock.absorb clock (fun () ->
          for dir = 0 to dirs - 1 do
            let hottest = files.(dir * files_per_dir) in
            ignore (Crowd.setup (Memfs.write fs root_cred hottest ~off:0 (String.make file_bytes 'Z')))
          done;
          ignore (Core.Replica.publish publisher);
          fanout_failures := !fanout_failures + Core.Replica.fan_out publisher targets;
          incr republishes)
    in
    Array.iteri
      (fun m h ->
        let s = Simnet.host_served_us h -. s0.(m) in
        if s > 0.0 then ignore (Simnet.host_occupy h ~at_us:t0 ~dur_us:s))
      mhosts;
    Crowd.note_ready e (t0 +. d)
  in
  Crowd.run
    ?event:(Option.map (fun at -> (at, republish)) cfg.republish_at_us)
    e kind (Crowd.Ramp cfg.ramp_us) ~ops:cfg.reads_per_client cls;
  List.iter Core.Replica.disconnect targets;
  {
    r_cfg = cfg;
    r_reads_ok = e.Crowd.ops_ok;
    r_reads_failed = e.Crowd.ops_abandoned;
    r_clients_ok = e.Crowd.finished;
    r_clients_failed = e.Crowd.gave_up;
    r_failovers = e.Crowd.reconnects;
    r_retries = e.Crowd.repairs;
    r_bad_content = !bad_content;
    r_republishes = !republishes;
    r_fanout_failures = !fanout_failures;
    r_last_ready_us = e.Crowd.last_ready_us;
    r_read_lat = e.Crowd.op_lat;
    r_connect_lat = e.Crowd.connect_lat;
    r_events = e.Crowd.events;
    r_mirrors = mirrors;
    r_mhosts = mhosts;
    r_publisher = publisher;
    r_obs = obs;
  }

(* Counter balance, exact on fault-free runs: every byte an application
   saw came out of the verification cache or passed SHA-1 against the
   hash that named it, and matched a published generation. *)
let reconcile (r : result) : (string * bool) list =
  let snap = Obs.snapshot r.r_obs in
  let ctr name = Obs.snap_counter snap name in
  let served_objs, served_bytes =
    Array.fold_left
      (fun (o, b) m ->
        let mo, mb = Core.Replica.mirror_served m in
        (o + mo, b + mb))
      (0, 0) r.r_mirrors
  in
  let synced m =
    match (Core.Replica.current r.r_publisher, Core.Replica.mirror_root m) with
    | Some s, Some i ->
        Core.Replica.mirror_objects m = Core.Readonly.object_count s
        && i.Ro.serial = (Core.Readonly.fsinfo s).Ro.serial
    | _ -> false
  in
  [
    ("all_arrived", r.r_clients_ok + r.r_clients_failed = r.r_cfg.clients);
    ( "reads_accounted",
      r.r_reads_ok + r.r_reads_failed = r.r_cfg.clients * r.r_cfg.reads_per_client );
    ("no_unverified_bytes", r.r_bad_content = 0 && ctr "ro.verify.fail" = 0);
    (* every served object was verified; every verified object was served *)
    ("serve_balance", served_objs = ctr "ro.verify.ok" + ctr "ro.verify.fail");
    ("serve_bytes_balance", served_bytes = ctr "ro.verify.bytes");
    (* every application read was a cache hit or a fresh verification *)
    ("verify_balance", ctr "ro.verify.hit" + ctr "ro.verify.ok" >= 3 * r.r_reads_ok);
    ("mirrors_synced", Array.for_all synced r.r_mirrors);
    ("all_conns_closed", Array.for_all (fun h -> Simnet.host_active_conns h = 0) r.r_mhosts);
    ("fanout_clean", r.r_fanout_failures = 0);
  ]

let ledger (r : result) : string =
  Crowd.ledger
    [
      Printf.sprintf "flashcrowd clients=%d replicas=%d files=%d file_bytes=%d reads=%d" r.r_cfg.clients
        r.r_cfg.replicas (r.r_cfg.dirs * r.r_cfg.files_per_dir) r.r_cfg.file_bytes r.r_cfg.reads_per_client;
      Printf.sprintf "tally reads_ok=%d reads_failed=%d clients_ok=%d clients_failed=%d failovers=%d \
                      retries=%d republishes=%d"
        r.r_reads_ok r.r_reads_failed r.r_clients_ok r.r_clients_failed r.r_failovers r.r_retries r.r_republishes;
    ]
    ~last_ready_us:r.r_last_ready_us
    [ ("read_lat", r.r_read_lat); ("connect_lat", r.r_connect_lat) ]
    r.r_obs

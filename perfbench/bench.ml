(* The reproduction's benchmark: host cost and simulated SFS performance
   on three workloads, driven only through public entry points
   (Fleet.run, Flashcrowd.run, Stacks.make and the Fs_intf ops record).

     bench.exe --workload rw-fleet|ro-crowd|sfs-bulk --seed N --seconds S --trace 0|1

   Two clocks.  Host metrics are the real CPU time and allocation this
   process spends; simulated metrics are what the modelled SFS users
   see and are a pure function of the generated config.  A run builds
   the world several times and reports the median as set-up time, then
   repeats the whole workload until S wall seconds have passed and
   reports host throughput over all the repetitions.
   With --trace 1 it instead pairs an untraced and a traced repetition,
   checks that the simulated results agree, and reports per-layer
   metrics named after the lib/ libraries.  The last line of standard
   output is one JSON object; a broken invariant prints it with
   "correct": false and exits 1. *)

module Fleet = Sfs_workload.Fleet
module Flashcrowd = Sfs_workload.Flashcrowd
module Stacks = Sfs_workload.Stacks
module Obs = Sfs_obs.Obs
module Sketch = Sfs_obs.Sketch
module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Eventq = Sfs_net.Eventq
module Fs_intf = Sfs_nfs.Fs_intf
module Cachefs = Sfs_nfs.Cachefs
module Core = Sfs_core
module Prng = Sfs_crypto.Prng
module Rabin = Sfs_crypto.Rabin
module Sha1 = Sfs_crypto.Sha1
module Channel = Sfs_proto.Channel

type workload = Rw_fleet | Ro_crowd | Sfs_bulk

let workload_of_string = function
  | "rw-fleet" -> Some Rw_fleet
  | "ro-crowd" -> Some Ro_crowd
  | "sfs-bulk" -> Some Sfs_bulk
  | _ -> None

(* ---------------------------------------------------------------- *)
(* Generated configs.  The seed drives every input; the program sees
   only the config.  Seed 0 of rw-fleet is exactly the scale figure's
   pipelined/1000 row, so its simulated metrics can be checked against
   BENCH_results.json. *)

let draw rng lo hi = lo + Prng.random_int rng (hi - lo + 1)
let jitter rng base permille =
  base *. (1.0 +. (float_of_int (draw rng (-permille) permille) /. 1000.0))

let fleet_config (seed : int) : Fleet.config =
  let reference =
    {
      Fleet.default with
      Fleet.clients = 1000;
      servers = 4;
      auth_shards = 4;
      user_pool = 16;
      window = 16;
      readahead = 16;
      admit_per_server = Some 4000;
      hot_write_every = 500;
      seed = "scale";
    }
  in
  if seed = 0 then reference
  else
    let rng = Prng.create [ "perfbench"; "rw-fleet"; string_of_int seed ] in
    let clients = draw rng 980 1020 in
    let stagger_us = jitter rng reference.Fleet.stagger_us 20 in
    { reference with Fleet.clients; stagger_us; seed = Printf.sprintf "rw-fleet/%d" seed }

let crowd_config (seed : int) : Flashcrowd.config =
  let rng = Prng.create [ "perfbench"; "ro-crowd"; string_of_int seed ] in
  let clients = draw rng 1960 2040 in
  let ramp_us = jitter rng 2_000_000.0 20 in
  let republish_at_us = ramp_us *. float_of_int (draw rng 45 55) /. 100.0 in
  {
    Flashcrowd.default with
    Flashcrowd.clients;
    replicas = 16;
    dirs = 16;
    files_per_dir = 64;
    file_bytes = 8192;
    theta = 1.0;
    reads_per_client = 8;
    vcache_objs = 256;
    admit_per_mirror = Some 2048;
    ramp_us;
    republish_at_us = Some republish_at_us;
    seed = Printf.sprintf "ro-crowd/%d" seed;
  }

(* sfs-bulk: one file a little larger than the server's 25 MB (3200
   block) disk cache, written and read back in 8 KB calls, then random
   8 KB reads.  Block contents come from a seeded pool of distinct
   blocks with the block number stamped in, so a misplaced block fails
   the byte compare. *)
type bulk_config = {
  b_blocks : int;
  b_random_reads : int;
  b_offsets : int array;  (** block index of each random read *)
  b_pool : string array;
}

let block = 8192

let bulk_config (seed : int) : bulk_config =
  let rng = Prng.create [ "perfbench"; "sfs-bulk"; string_of_int seed ] in
  let b_blocks = draw rng 3520 3648 in
  let b_random_reads = 1024 in
  let b_offsets = Array.init b_random_reads (fun _ -> Prng.random_int rng b_blocks) in
  let b_pool = Array.init 61 (fun _ -> Prng.random_bytes rng block) in
  { b_blocks; b_random_reads; b_offsets; b_pool }

let bulk_block (c : bulk_config) (i : int) : string =
  let b = Bytes.of_string c.b_pool.(i mod Array.length c.b_pool) in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  Bytes.unsafe_to_string b

(* ---------------------------------------------------------------- *)
(* Measurement helpers. *)

let median (xs : float list) : float =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of raw samples, the same rank rule as
   Sketch.quantile. *)
let percentile (a : float array) (q : float) : float =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let s = Array.copy a in
    Array.sort compare s;
    let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    s.(min (n - 1) (rank - 1))

let cpu () = Sys.time ()

type host = { h_cpu_s : float; h_alloc_bytes : float }

let measured (f : unit -> 'a) : 'a * host =
  let a0 = Gc.allocated_bytes () in
  let t0 = cpu () in
  let v = f () in
  let t1 = cpu () in
  let a1 = Gc.allocated_bytes () in
  (v, { h_cpu_s = t1 -. t0; h_alloc_bytes = a1 -. a0 })

(* ---------------------------------------------------------------- *)
(* One repetition of a workload and what the benchmark reads off it. *)

type tap_stats = {
  mutable srv_cpu_s : float;
  mutable srv_words : float;
  mutable op_host_us : float list;
}

type rep = {
  ops : int;  (** simulated ops completed: the host_ops_per_s numerator *)
  attempted : int;
  failed : int;
  problems : string list;  (** broken invariants and content mismatches *)
  sim : (string * float) list;  (** the sim_* metrics *)
  op_samples : int;
  mount_samples : int;
  mounts : int;  (** read-write mounts made in the timed phase *)
  mount_attempts : int;  (** connection attempts, refusals included *)
  events : int;
  obs : Obs.registry;
  fingerprint : string;  (** must repeat exactly for one config *)
  timed_cpu_s : float;  (** CPU of the timed phase; set-up excluded *)
  timed_alloc_bytes : float;
  tap : tap_stats option;
  extra : (string * int) list;  (** workload-specific per-layer inputs *)
}

let broken invariants = List.filter_map (fun (n, ok) -> if ok then None else Some n) invariants

let sketch_p (s : Sketch.t) q = float_of_int (Sketch.quantile s q)

(* Fleet.run and Flashcrowd.run build their world inside the call, so
   the timed phase is the whole call minus the one-client set-up cost
   measured in the same process ([setup]). *)
let run_fleet (cfg : Fleet.config) ~(setup : host) : rep =
  let r, h = measured (fun () -> Fleet.run cfg) in
  let completed = r.Fleet.r_completed and mounts = r.Fleet.r_mount_ok in
  {
    ops = completed + mounts;
    attempted = (r.Fleet.r_completed + r.Fleet.r_failed) + cfg.Fleet.clients;
    failed = r.Fleet.r_failed + r.Fleet.r_mount_failed;
    problems = broken (Fleet.reconcile r);
    sim =
      [
        ("sim_ops_per_s", Fleet.throughput_ops_s r);
        ("sim_op_p50_us", sketch_p r.Fleet.r_op_lat 0.5);
        ("sim_op_p99_us", sketch_p r.Fleet.r_op_lat 0.99);
        ("sim_mount_p99_us", sketch_p r.Fleet.r_mount_lat 0.99);
      ];
    op_samples = Sketch.count r.Fleet.r_op_lat;
    mount_samples = Sketch.count r.Fleet.r_mount_lat;
    mounts;
    mount_attempts = cfg.Fleet.clients + r.Fleet.r_mount_retries;
    events = r.Fleet.r_events;
    obs = r.Fleet.r_obs;
    fingerprint = Fleet.ledger r;
    timed_cpu_s = h.h_cpu_s -. setup.h_cpu_s;
    timed_alloc_bytes = h.h_alloc_bytes -. setup.h_alloc_bytes;
    tap = None;
    extra = [ ("clients", cfg.Fleet.clients) ];
  }

let run_crowd (cfg : Flashcrowd.config) ~(setup : host) : rep =
  let r, h = measured (fun () -> Flashcrowd.run cfg) in
  let reads = r.Flashcrowd.r_reads_ok in
  let bad =
    if r.Flashcrowd.r_bad_content = 0 then []
    else [ Printf.sprintf "r_bad_content=%d" r.Flashcrowd.r_bad_content ]
  in
  {
    ops = reads;
    attempted = reads + r.Flashcrowd.r_reads_failed + cfg.Flashcrowd.clients;
    failed =
      r.Flashcrowd.r_reads_failed + r.Flashcrowd.r_clients_failed + r.Flashcrowd.r_fanout_failures;
    problems = broken (Flashcrowd.reconcile r) @ bad;
    sim =
      [
        ("sim_ops_per_s", Flashcrowd.throughput_reads_s r);
        ("sim_op_p50_us", sketch_p r.Flashcrowd.r_read_lat 0.5);
        ("sim_op_p99_us", sketch_p r.Flashcrowd.r_read_lat 0.99);
        ("sim_mount_p99_us", sketch_p r.Flashcrowd.r_connect_lat 0.99);
      ];
    op_samples = Sketch.count r.Flashcrowd.r_read_lat;
    mount_samples = Sketch.count r.Flashcrowd.r_connect_lat;
    mounts = 0;
    mount_attempts = cfg.Flashcrowd.clients + r.Flashcrowd.r_failovers;
    events = r.Flashcrowd.r_events;
    obs = r.Flashcrowd.r_obs;
    fingerprint = Flashcrowd.ledger r;
    timed_cpu_s = h.h_cpu_s -. setup.h_cpu_s;
    timed_alloc_bytes = h.h_alloc_bytes -. setup.h_alloc_bytes;
    tap = None;
    extra =
      [
        ("clients", cfg.Flashcrowd.clients);
        ("reads", reads);
        ("failovers", r.Flashcrowd.r_failovers);
        ("retries", r.Flashcrowd.r_retries);
        ("republishes", r.Flashcrowd.r_republishes);
      ];
  }

(* A wire tap that returns Pass and keeps nothing: between a request
   crossing (To_server) and its reply crossing (To_client) the process
   is running the server side, so stamping CPU time and minor words at
   both crossings splits host cost into client and server halves. *)
let stamping_tap (st : tap_stats) : Simnet.tap =
  let t0 = ref 0.0 and w0 = ref 0.0 in
  let tap = Simnet.passive_tap () in
  tap.Simnet.on_message <-
    (fun dir _ ->
      tap.Simnet.observed <- [];
      (match dir with
      | Simnet.To_server ->
          t0 := cpu ();
          w0 := Gc.minor_words ()
      | Simnet.To_client ->
          st.srv_cpu_s <- st.srv_cpu_s +. (cpu () -. !t0);
          st.srv_words <- st.srv_words +. (Gc.minor_words () -. !w0));
      Simnet.Pass);
  tap

let bulk_world ~(traced : bool) : Stacks.world * Core.Client.mount * tap_stats option * float =
  let w = Stacks.make Stacks.Sfs in
  let client = Option.get w.Stacks.sfs_client in
  let m = List.hd (Core.Client.mounts client) in
  (* Reconnect so the mount's connection is made after the default tap
     is set; untraced runs reconnect too, so both see the same model. *)
  let st =
    if traced then Some { srv_cpu_s = 0.0; srv_words = 0.0; op_host_us = [] }
    else None
  in
  Simnet.set_default_tap w.Stacks.net (Option.map stamping_tap st);
  let t0 = Simclock.now_us w.Stacks.clock in
  (match Core.Client.reconnect client m with
  | Ok () -> ()
  | Error e -> failwith ("sfs-bulk reconnect: " ^ Core.Client.mount_error_to_string e));
  (w, m, st, Simclock.now_us w.Stacks.clock -. t0)

let run_bulk (c : bulk_config) ~(traced : bool) : rep =
  let w, m, st, mount_us = bulk_world ~traced in
  let ops = Core.Client.ops m in
  let cred = w.Stacks.cred in
  let clock = w.Stacks.clock in
  let problems = ref [] and failed = ref 0 and attempted = ref 0 in
  let problem s = if List.length !problems < 8 then problems := s :: !problems in
  let n_calls = (2 * c.b_blocks) + c.b_random_reads + 1 in
  let sim_us = Array.make n_calls 0.0 in
  let calls = ref 0 and ra_hits = ref 0 and ra_submits = ref 0 in
  (* Every call goes through here: simulated time read around it, and
     in a traced run its host time too. *)
  let call f =
    incr attempted;
    let s0 = Simclock.now_us clock in
    let h0 = match st with Some _ -> cpu () | None -> 0.0 in
    let r = f () in
    (match st with
    | Some st -> st.op_host_us <- ((cpu () -. h0) *. 1e6) :: st.op_host_us
    | None -> ());
    sim_us.(!calls) <- Simclock.now_us clock -. s0;
    incr calls;
    match r with
    | Ok v -> Some v
    | Error _ ->
        incr failed;
        None
  in
  let get what = function Some v -> v | None -> failwith ("sfs-bulk: " ^ what ^ " failed") in
  let (), h =
    measured (fun () ->
        let bench, _ =
          get "lookup"
            (Result.to_option (ops.Fs_intf.fs_lookup cred ~dir:ops.Fs_intf.fs_root "bench"))
        in
        let fh, _ =
          get "create"
            (Result.to_option (ops.Fs_intf.fs_create cred ~dir:bench "bulk" ~mode:0o644))
        in
        for i = 0 to c.b_blocks - 1 do
          ignore
            (call (fun () ->
                 ops.Fs_intf.fs_write cred fh ~off:(i * block) ~stable:false (bulk_block c i)))
        done;
        ignore (call (fun () -> ops.Fs_intf.fs_commit cred fh));
        Cachefs.invalidate_all (Core.Client.cache m);
        let check i =
          match call (fun () -> ops.Fs_intf.fs_read cred fh ~off:(i * block) ~count:block) with
          | Some (data, _, _) ->
              if not (String.equal data (bulk_block c i)) then
                problem (Printf.sprintf "read-back block %d differs" i)
          | None -> ()
        in
        let hit0 = Obs.counter w.Stacks.obs "cache.read.hit"
        and ra0 = Obs.counter w.Stacks.obs "cache.readahead.submit" in
        for i = 0 to c.b_blocks - 1 do
          check i
        done;
        ra_hits := Obs.counter w.Stacks.obs "cache.read.hit" - hit0;
        ra_submits := Obs.counter w.Stacks.obs "cache.readahead.submit" - ra0;
        Array.iter check c.b_offsets)
  in
  let sim_s = Array.fold_left ( +. ) 0.0 sim_us /. 1e6 in
  {
    ops = !calls;
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    sim =
      [
        ("sim_ops_per_s", float_of_int !calls /. sim_s);
        ("sim_op_p50_us", percentile sim_us 0.5);
        ("sim_op_p99_us", percentile sim_us 0.99);
        ("sim_mount_p99_us", mount_us);
      ];
    op_samples = !calls;
    mount_samples = 1;
    mounts = 0;
    mount_attempts = 1;
    events = 0;
    obs = w.Stacks.obs;
    fingerprint =
      String.concat ","
        (Printf.sprintf "%.17g" mount_us
        :: List.map (Printf.sprintf "%.17g") (Array.to_list sim_us));
    timed_cpu_s = h.h_cpu_s;
    timed_alloc_bytes = h.h_alloc_bytes;
    tap = st;
    (* The read-back starts from an empty block cache, so its hits are
       prefetched blocks. *)
    extra = [ ("readback_hits", !ra_hits); ("readback_readaheads", !ra_submits) ];
  }

(* The set-up cost of one repetition: the same world with one client
   (fleet, crowd) or the world and its mount with no file traffic
   (bulk). *)
let setup_once (wl : workload) (seed : int) : host =
  match wl with
  | Rw_fleet ->
      snd (measured (fun () -> ignore (Fleet.run { (fleet_config seed) with Fleet.clients = 1 })))
  | Ro_crowd ->
      snd
        (measured (fun () ->
             ignore (Flashcrowd.run { (crowd_config seed) with Flashcrowd.clients = 1 })))
  | Sfs_bulk -> snd (measured (fun () -> ignore (bulk_world ~traced:false)))

let repetition (wl : workload) (seed : int) ~(setup : host) ~(traced : bool) : rep =
  match wl with
  | Rw_fleet -> run_fleet (fleet_config seed) ~setup
  | Ro_crowd -> run_crowd (crowd_config seed) ~setup
  | Sfs_bulk -> run_bulk (bulk_config seed) ~traced

(* ---------------------------------------------------------------- *)
(* Unit-cost probes: public functions of one layer timed at the
   workload's own argument sizes.  Each returns microseconds per unit,
   the median of several timed batches. *)

let per_call_us ~(reps : int) (f : unit -> unit) : float =
  f ();
  median
    (List.init 9 (fun _ ->
         let t0 = cpu () in
         for _ = 1 to reps do
           f ()
         done;
         (cpu () -. t0) *. 1e6 /. float_of_int reps))

let probe_sha1_per_kb () : float =
  let data = String.make block 's' in
  per_call_us ~reps:200 (fun () -> ignore (Sha1.digest data)) /. 8.0

(* One 8 KB message sealed by one endpoint and opened by its peer. *)
let probe_channel_per_kb () : float =
  let a = Channel.create ~send_key:(String.make 20 'a') ~recv_key:(String.make 20 'b') () in
  let b = Channel.create ~send_key:(String.make 20 'b') ~recv_key:(String.make 20 'a') () in
  let data = String.make block 'c' in
  per_call_us ~reps:100 (fun () ->
      match Channel.open_ b (Channel.seal a data) with
      | Ok _ -> ()
      | Error _ -> failwith "channel probe: open failed")
  /. 8.0

(* One push plus one pop at a steady queue depth. *)
let probe_eventq ~(depth : int) : float =
  let q = Eventq.create () in
  let rng = Prng.create [ "perfbench"; "probe"; "eventq" ] in
  let t = ref 0.0 in
  for _ = 1 to max 1 depth do
    Eventq.push q ~at:(float_of_int (Prng.random_int rng 1_000_000)) ()
  done;
  per_call_us ~reps:20_000 (fun () ->
      t := !t +. 1.0;
      Eventq.push q ~at:(!t +. float_of_int (Prng.random_int rng 1_000_000)) ();
      ignore (Eventq.pop q))

(* ---------------------------------------------------------------- *)
(* Per-layer metrics of a traced repetition. *)

let cp_segments =
  [
    "client"; "crypto_up"; "mux_stall"; "up_queue"; "up_wire"; "srv_queue"; "server_cpu";
    "crypto_down"; "down_queue"; "down_wire"; "client_post"; "latency";
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

type probes = {
  enc_us : float;  (** Rabin.encrypt_blob of the key halves *)
  dec_us : float;  (** Rabin.decrypt_blob of the same *)
  sign_us : float;
  verify_us : float;
  sha1_us_per_kb : float;
  chan_us_per_kb : float;
  eventq_us : float;
}

(* One SFS read-write mount's public-key work (key negotiation plus
   user authentication): two encrypt_blob and two decrypt_blob of the
   key halves, one sign and one verify at the user key size. *)
let mount_us p = (2.0 *. p.enc_us) +. (2.0 *. p.dec_us) +. p.sign_us +. p.verify_us

(* Returns a function that times every probe once more; a traced run
   calls it after each traced repetition, so each repetition's shares
   use unit costs measured under the same machine load. *)
let prober (wl : workload) (seed : int) : unit -> probes =
  let server_bits, user_bits, depth =
    match wl with
    | Rw_fleet ->
        let c = fleet_config seed in
        (c.Fleet.server_key_bits, c.Fleet.user_key_bits, c.Fleet.clients)
    | Ro_crowd ->
        let c = crowd_config seed in
        (c.Flashcrowd.key_bits, c.Flashcrowd.key_bits, c.Flashcrowd.clients)
    | Sfs_bulk -> (512, 512, 16)
  in
  let rng = Prng.create [ "perfbench"; "probe"; "rabin" ] in
  let srv = Rabin.generate ~bits:server_bits rng in
  let usr = Rabin.generate ~bits:user_bits rng in
  let halves = String.make 48 'k' in
  let blob = Rabin.encrypt_blob srv.Rabin.pub rng halves in
  let msg = String.make 40 'a' in
  let sg = Rabin.sign usr msg in
  fun () ->
    {
      enc_us =
        per_call_us ~reps:20 (fun () -> ignore (Rabin.encrypt_blob srv.Rabin.pub rng halves));
      dec_us = per_call_us ~reps:5 (fun () -> ignore (Rabin.decrypt_blob srv blob));
      sign_us = per_call_us ~reps:5 (fun () -> ignore (Rabin.sign usr msg));
      verify_us = per_call_us ~reps:50 (fun () -> ignore (Rabin.verify usr.Rabin.pub msg sg));
      sha1_us_per_kb = probe_sha1_per_kb ();
      chan_us_per_kb = probe_channel_per_kb ();
      eventq_us = probe_eventq ~depth;
    }

let layer_metrics (p : probes) (r : rep) ~(overhead : float) : (string * float * string) list =
  let snap = Obs.snapshot r.obs in
  let ctr = Obs.snap_counter snap in
  let sum_matching pre suf =
    List.fold_left
      (fun a (k, v) ->
        if String.starts_with ~prefix:pre k && String.ends_with ~suffix:suf k then a + v else a)
      0 snap.Obs.snap_counters
  in
  let max_matching pre suf =
    List.fold_left
      (fun a (k, v) ->
        if String.starts_with ~prefix:pre k && String.ends_with ~suffix:suf k then max a v else a)
      0 snap.Obs.snap_counters
  in
  let extra k = Option.value ~default:0 (List.assoc_opt k r.extra) in
  let perop n = ratio n r.ops in
  let reads = extra "reads" in
  let chan_sealed = sum_matching "channel." ".bytes_out" in
  let srv_chan =
    sum_matching "channel.server" ".bytes_out" + sum_matching "channel.server" ".bytes_in"
  in
  (* Host microseconds each probe explains: unit cost times this
     repetition's count of that work. *)
  let total_us = r.timed_cpu_s *. 1e6 in
  let bignum_us =
    (mount_us p *. float_of_int r.mounts)
    +. (p.verify_us *. float_of_int (ctr "ro.root.verify"))
    +. (p.sign_us *. float_of_int (extra "republishes"))
  in
  let crypto_us = p.sha1_us_per_kb *. float_of_int (ctr "ro.verify.bytes") /. 1024.0 in
  let proto_us = p.chan_us_per_kb *. float_of_int chan_sealed /. 1024.0 in
  let net_us = p.eventq_us *. float_of_int r.events in
  let tapped, srv_us, srv_words, op_host =
    match r.tap with
    | Some t -> (true, t.srv_cpu_s *. 1e6, t.srv_words, Array.of_list t.op_host_us)
    | None -> (false, 0.0, 0.0, [||])
  in
  (* The server half of the tap split, less its channel work (one half
     of a seal+open pair per byte), is the NFS server loop and Memfs. *)
  let nfs_us =
    Float.max 0.0 (srv_us -. (p.chan_us_per_kb /. 2.0 *. float_of_int srv_chan /. 1024.0))
  in
  let share x = if total_us <= 0.0 then 0.0 else x /. total_us in
  let shares =
    [
      ("bignum.host_share", share bignum_us, "share");
      ("crypto.host_share", share crypto_us, "share");
      ("proto.host_share", share proto_us, "share");
      ("net.host_share", share net_us, "share");
      ("nfs.host_share", share nfs_us, "share");
    ]
  in
  let attributed = List.fold_left (fun a (_, v, _) -> a +. v) 0.0 shares in
  let per_call x = if tapped then x /. float_of_int r.ops else 0.0 in
  (* Write-behind writes are sampled as "write/wb". *)
  let cp op =
    let samples =
      List.filter (fun s -> s.Obs.cp_op = op || s.Obs.cp_op = op ^ "/wb") (Obs.cp_samples r.obs)
    in
    let n = float_of_int (max 1 (List.length samples)) in
    List.map
      (fun seg ->
        let total =
          List.fold_left
            (fun a s -> a +. Option.value ~default:0.0 (List.assoc_opt seg s.Obs.cp_segments))
            0.0 samples
        in
        (Printf.sprintf "cp.%s.%s_us" op seg, total /. n, "sim_us"))
      cp_segments
  in
  [
    ("net.eventq.events_per_op", perop r.events, "count");
    ("net.rpc_mux.submits_per_op", perop (ctr "mux.submit"), "count");
    ("net.rpc_mux.stalls", float_of_int (ctr "mux.stall"), "count");
    ("net.rpc_mux.server_busy_us", float_of_int (ctr "mux.server_us"), "sim_us");
    ("net.rpc_mux.wire_busy_us", float_of_int (ctr "mux.wire_us"), "sim_us");
    ( "net.simnet.admission_refused_per_attempt",
      ratio (ctr "net.admission.refused") (r.mount_attempts + ctr "net.admission.refused"),
      "ratio" );
    ("proto.channel.bytes_per_op", perop (chan_sealed + sum_matching "channel." ".bytes_in"), "B");
    ( "proto.channel.sim_crypto_us_per_op",
      perop (sum_matching "channel." ".crypto_us_out"),
      "sim_us" );
    ( "crypto.keystream_claimed_ratio",
      ratio
        (sum_matching "channel." ".keystream_claimed_us")
        (sum_matching "channel." ".keystream_precomputed_us"),
      "ratio" );
    ("nfs.calls_per_op", perop (ctr "nfs.calls"), "count");
    ( "nfs.cachefs.read_hit_ratio",
      ratio (ctr "cache.read.hit") (ctr "cache.read.hit" + ctr "cache.read.miss"),
      "ratio" );
    ( "nfs.cachefs.readahead_useful_ratio",
      Float.min 1.0 (ratio (extra "readback_hits") (extra "readback_readaheads")),
      "ratio" );
    ("nfs.cachefs.wb_bytes_per_flush", ratio (ctr "cache.wb.bytes") (ctr "cache.wb.flush"), "B");
    ( "nfs.lease.piggyback_ratio",
      ratio (ctr "lease.piggyback") (ctr "lease.piggyback" + ctr "lease.grants"),
      "ratio" );
    ( "core.vcache.hit_ratio",
      ratio (ctr "ro.verify.hit") (ctr "ro.verify.hit" + ctr "ro.verify.miss"),
      "ratio" );
    ("core.readonly.retries_per_read", ratio (extra "retries") reads, "ratio");
    ("core.replica.failovers_per_client", ratio (extra "failovers") (extra "clients"), "ratio");
    ("core.replica.serve_objs_per_read", ratio (ctr "ro.serve.objs") reads, "count");
    ( "core.publish.reuse_ratio",
      ratio (ctr "ro.publish.reused") (ctr "ro.publish.reused" + ctr "ro.publish.hashed"),
      "ratio" );
    ( "core.authshard.max_shard_share",
      ratio (max_matching "authshard." ".validate") (sum_matching "authshard." ".validate"),
      "ratio" );
    ("crypto.sha1_bytes_per_read", ratio (ctr "ro.verify.bytes") reads, "B");
    ( "obs.spans_dropped_ratio",
      ratio (ctr "obs.spans_dropped") (List.length snap.Obs.snap_spans + ctr "obs.spans_dropped"),
      "ratio" );
  ]
  @ cp "read" @ cp "write"
  @ [
      ("nfs.op.host_us_p50", percentile op_host 0.5, "us");
      ("nfs.op.host_us_p99", percentile op_host 0.99, "us");
      ("nfs.op.host_us_samples", float_of_int (Array.length op_host), "count");
      ("nfs.client_host_us_per_op", per_call (total_us -. srv_us), "us");
      ("nfs.server_host_us_per_op", per_call srv_us, "us");
      ( "nfs.server_alloc_kb_per_op",
        per_call (srv_words *. float_of_int (Sys.word_size / 8) /. 1024.0),
        "KB" );
      ("bignum.host_us_per_mount", mount_us p, "us");
      ("crypto.sha1.host_us_per_kb", p.sha1_us_per_kb, "us/KB");
      ("proto.channel.host_us_per_kb", p.chan_us_per_kb, "us/KB");
      ("net.eventq.host_us_per_event", p.eventq_us, "us");
    ]
  @ shares
  @ [
      ("workload.unattributed_host_share", Float.max 0.0 (1.0 -. attributed), "share");
      ("workload.trace_overhead_share", overhead, "share");
      ("workload.sim_op_samples", float_of_int r.op_samples, "count");
      ("workload.sim_mount_samples", float_of_int r.mount_samples, "count");
    ]

(* ---------------------------------------------------------------- *)
(* Command line and result. *)

let print_result ~correct ~attempted ~failed (metrics : (string * float * string) list) =
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed body

let usage () =
  prerr_endline
    "usage: bench.exe --workload rw-fleet|ro-crowd|sfs-bulk --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let wl = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
        wl := workload_of_string v;
        if !wl = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string_opt v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let wl, seed, seconds, traced =
    match (!wl, !seed, !seconds, !trace) with
    | Some w, Some s, Some t, Some tr when t >= 1 && s >= 0 -> (w, s, t, tr)
    | _ -> usage ()
  in
  (* Set-up: the median of several builds, about 1.5 CPU seconds of
     them.  The count is fixed per workload because every build leaves
     global tables a little warmer, which shifts the first repetition's
     allocation. *)
  let builds = match wl with Rw_fleet -> 7 | Ro_crowd | Sfs_bulk -> 15 in
  let setups = List.init builds (fun _ -> setup_once wl seed) in
  let setup =
    {
      h_cpu_s = median (List.map (fun h -> h.h_cpu_s) setups);
      h_alloc_bytes = median (List.map (fun h -> h.h_alloc_bytes) setups);
    }
  in
  let problems = ref [] in
  let problem s = if not (List.mem s !problems) then problems := s :: !problems in
  let attempted = ref 0 and failed = ref 0 in
  let first = ref None in
  let peak_heap = ref 0.0 in
  (* Run one repetition, account its outcome, and check that it
     reproduces the first repetition of this config exactly. *)
  let rep_of ~traced =
    let r = repetition wl seed ~setup ~traced in
    if !peak_heap = 0.0 then
      peak_heap :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0;
    attempted := !attempted + r.attempted;
    failed := !failed + r.failed;
    List.iter problem r.problems;
    (match !first with
    | None -> first := Some (r.fingerprint, r.sim)
    | Some (fp, sim) ->
        if fp <> r.fingerprint || sim <> r.sim then
          problem "simulated results differ between repetitions of one config");
    r
  in
  let budget_end = Unix.gettimeofday () +. float_of_int seconds in
  let repeat f =
    let acc = ref [ f () ] in
    while Unix.gettimeofday () < budget_end do
      acc := f () :: !acc
    done;
    List.rev !acc
  in
  let sim = ref [] and samples = ref (0, 0, 0) in
  let metrics =
    if not traced then begin
      let reps =
        repeat (fun () ->
            let r = rep_of ~traced:false in
            Printf.printf "repetition: %.3f CPU s, %.0f bytes allocated, %d ops\n" r.timed_cpu_s
              r.timed_alloc_bytes r.ops;
            sim := r.sim;
            samples := (r.ops, r.op_samples, r.mount_samples);
            (r.ops, r.timed_cpu_s, r.timed_alloc_bytes /. 1024.0 /. float_of_int r.ops))
      in
      Printf.printf "%d repetitions\n" (List.length reps);
      let sum f = List.fold_left (fun a r -> a +. f r) 0.0 reps in
      let _, _, first_alloc_kb = List.hd reps in
      [
        (* All ops over all CPU: CPU time here swings with other
           tenants' load from second to second, and the ratio of sums
           weighs every repetition by its length, which steadies it
           more than a median of per-repetition rates does. *)
        ( "host_ops_per_s",
          sum (fun (o, _, _) -> float_of_int o) /. sum (fun (_, c, _) -> c),
          "1/s" );
        (* Later repetitions allocate slightly differently (warm
           global tables), so the first one is the exact figure. *)
        ("host_alloc_kb_per_op", first_alloc_kb, "KB");
        ("peak_heap_mb", !peak_heap, "MB");
        ("setup_s", setup.h_cpu_s, "s");
      ]
      @ List.map (fun (n, v) -> (n, v, if n = "sim_ops_per_s" then "1/sim_s" else "sim_us")) !sim
    end
    else begin
      let probes = prober wl seed in
      let pairs =
        repeat (fun () ->
            let u = rep_of ~traced:false in
            let t = rep_of ~traced:true in
            if u.sim <> t.sim then
              problem "traced repetition's simulated metrics differ from the untraced one's";
            samples := (t.ops, t.op_samples, t.mount_samples);
            let overhead = (t.timed_cpu_s -. u.timed_cpu_s) /. u.timed_cpu_s in
            layer_metrics (probes ()) t ~overhead)
      in
      Printf.printf "%d untraced/traced pairs\n" (List.length pairs);
      let value name m = List.find_map (fun (n, v, _) -> if n = name then Some v else None) m in
      List.map
        (fun (n, _, u) -> (n, median (List.filter_map (value n) pairs), u))
        (List.hd pairs)
    end
  in
  let ops, op_samples, mount_samples = !samples in
  Printf.printf "%d ops per repetition; %d op latency samples, %d mount samples\n" ops op_samples
    mount_samples;
  List.iter (fun (n, v, u) -> Printf.printf "  %-44s %18.4f %s\n" n v u) metrics;
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then problem (n ^ " is not a finite number"))
    metrics;
  (* A non-finite value cannot be printed as JSON; the run fails anyway. *)
  let metrics =
    List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.0), u)) metrics
  in
  let correct = !problems = [] in
  List.iter (fun p -> Printf.printf "BROKEN: %s\n" p) (List.rev !problems);
  Printf.printf "attempted %d, failed %d, failed_frac %.6f\n" !attempted !failed
    (ratio !failed !attempted);
  print_result ~correct ~attempted:!attempted ~failed:!failed metrics;
  if not correct then exit 1

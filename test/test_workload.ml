(* Workload/benchmark harness tests: the stacks build and behave, and
   the headline shapes of the paper's evaluation hold as invariants. *)

open Sfs_workload
module Simclock = Sfs_net.Simclock

let test_stacks_construct () =
  List.iter
    (fun s ->
      let w = Stacks.make s in
      (* Every stack exposes a usable workdir. *)
      Driver.write_file w (w.Stacks.workdir ^ "/probe") "ok";
      Testkit.check_string (Stacks.stack_name s) "ok" (Driver.read_file w (w.Stacks.workdir ^ "/probe")))
    [ Stacks.Local; Stacks.Nfs_udp; Stacks.Nfs_tcp; Stacks.Sfs; Stacks.Sfs_noenc; Stacks.Sfs_nocache ]

let test_driver_helpers () =
  let w = Stacks.make Stacks.Local in
  let d = w.Stacks.workdir ^ "/helpers" in
  Driver.mkdir w d;
  Driver.write_file w (d ^ "/f") (Driver.content ~seed:3 100);
  Testkit.check_int "content length" 100 (String.length (Driver.read_file w (d ^ "/f")));
  Testkit.check_string "content deterministic" (Driver.content ~seed:3 100) (Driver.content ~seed:3 100);
  Testkit.check_bool "content varies by seed" false (Driver.content ~seed:3 100 = Driver.content ~seed:4 100);
  let names = Driver.readdir w d in
  Alcotest.(check (list string)) "readdir" [ "f" ] names;
  Driver.stat_probe w (d ^ "/missing");
  Driver.unlink w (d ^ "/f");
  Driver.stat_probe w (d ^ "/f")

let test_fig5_latency_shape () =
  (* The headline shape of Figure 5: SFS latency is several times NFS,
     dominated by the user-level implementation, not encryption. *)
  let lat s = Microbench.latency_us (Stacks.make s) in
  let udp = lat Stacks.Nfs_udp in
  let tcp = lat Stacks.Nfs_tcp in
  let sfs = lat Stacks.Sfs in
  let noenc = lat Stacks.Sfs_noenc in
  Testkit.check_bool "udp ~200us" true (udp > 150.0 && udp < 300.0);
  Testkit.check_bool "tcp slower than udp" true (tcp > udp);
  Testkit.check_bool "sfs 3-5x nfs" true (sfs > 3.0 *. udp && sfs < 5.0 *. udp);
  Testkit.check_bool "encryption is a small share" true (sfs -. noenc < 0.15 *. sfs);
  Testkit.check_bool "noenc still far above tcp" true (noenc > 2.0 *. tcp)

let test_fig5_throughput_shape () =
  let thr s =
    let params = { Sfs_nfs.Diskmodel.default_params with Sfs_nfs.Diskmodel.cache_blocks = 16384 } in
    Microbench.throughput_mb_s (Stacks.make ~server_disk_params:params s)
  in
  let udp = thr Stacks.Nfs_udp in
  let tcp = thr Stacks.Nfs_tcp in
  let sfs = thr Stacks.Sfs in
  let noenc = thr Stacks.Sfs_noenc in
  (* Paper ordering was UDP 9.3 > TCP 7.6 > noenc 7.1 > SFS 4.1; with
     keystream precomputation overlapping the idle wire (DESIGN.md §14)
     encryption no longer costs streaming throughput, so SFS rides at
     noenc's heels instead of 42% behind it. *)
  Testkit.check_bool "udp fastest" true (udp > tcp);
  Testkit.check_bool "tcp above noenc" true (tcp > noenc);
  Testkit.check_bool "noenc at or above sfs" true (noenc >= sfs);
  Testkit.check_bool "udp ~9MB/s" true (udp > 7.0 && udp < 11.0);
  Testkit.check_bool "encryption within 10% of noenc" true (sfs > 0.9 *. noenc)

let test_mab_shape () =
  let total s = Mab.total (Mab.run (Stacks.make s)) in
  let local = total Stacks.Local in
  let udp = total Stacks.Nfs_udp in
  let sfs = total Stacks.Sfs in
  let nocache = total Stacks.Sfs_nocache in
  Testkit.check_bool "local fastest" true (local < udp);
  Testkit.check_bool "sfs slower than nfs" true (sfs > udp);
  (* "SFS is only 11% slower than NFS 3 over UDP" — allow 25%. *)
  Testkit.check_bool "sfs within 25% of nfs/udp" true (sfs < 1.25 *. udp);
  (* "Without enhanced caching, MAB takes ... 0.7 seconds slower." *)
  Testkit.check_bool "enhanced caching helps" true (nocache > sfs)

let test_lfs_small_shape () =
  let run s = Sprite_lfs.run_small (Stacks.make s) in
  let udp = run Stacks.Nfs_udp in
  let sfs = run Stacks.Sfs in
  (* Create: "SFS performs about the same as NFS 3 over UDP". *)
  Testkit.check_bool "create within 20%" true
    (sfs.Sprite_lfs.create_s < 1.2 *. udp.Sprite_lfs.create_s);
  (* Read: "SFS is 3 times slower than NFS 3 over UDP" (2-5x band). *)
  let ratio = sfs.Sprite_lfs.read_s /. udp.Sprite_lfs.read_s in
  Testkit.check_bool "read 2-5x slower" true (ratio > 2.0 && ratio < 5.0);
  (* Unlink: "all file systems have roughly the same performance". *)
  Testkit.check_bool "unlink within 10%" true
    (sfs.Sprite_lfs.unlink_s < 1.1 *. udp.Sprite_lfs.unlink_s)

let test_compile_crossover () =
  (* Figure 7's coup: SFS beats NFS 3 over TCP while losing to UDP. *)
  let time s = Compile.run (Stacks.make s) in
  let local = time Stacks.Local in
  let udp = time Stacks.Nfs_udp in
  let tcp = time Stacks.Nfs_tcp in
  let sfs = time Stacks.Sfs in
  Testkit.check_bool "local < udp" true (local < udp);
  Testkit.check_bool "udp < sfs" true (udp < sfs);
  Testkit.check_bool "sfs < tcp (the crossover)" true (sfs < tcp)

let test_flush_caches () =
  let w = Stacks.make Stacks.Sfs in
  Driver.write_file w (w.Stacks.workdir ^ "/cached") "data";
  ignore (Driver.read_file w (w.Stacks.workdir ^ "/cached"));
  Stacks.flush_caches w;
  (* Still correct after the flush; just slower. *)
  Testkit.check_string "reread after flush" "data" (Driver.read_file w (w.Stacks.workdir ^ "/cached"))

(* --- Fleet: the discrete-event mass-client engine (DESIGN.md §15) --- *)

let check_reconcile r =
  List.iter (fun (name, ok) -> Testkit.check_bool ("reconcile: " ^ name) true ok) (Fleet.reconcile r)

let test_fleet_smoke () =
  let r = Fleet.run Fleet.default in
  check_reconcile r;
  Testkit.check_int "all mounted" Fleet.default.Fleet.clients r.Fleet.r_mount_ok;
  Testkit.check_int "all ops completed"
    (Fleet.default.Fleet.clients * Fleet.default.Fleet.ops_per_client)
    r.Fleet.r_completed;
  Testkit.check_int "no failures" 0 r.Fleet.r_failed;
  Testkit.check_bool "throughput positive" true (Fleet.throughput_ops_s r > 0.0);
  (* The hot file's writers must have triggered lease fan-out. *)
  Testkit.check_bool "invalidations fanned out" true
    (Sfs_obs.Obs.counter r.Fleet.r_obs "lease.invalidations" > 0)

let test_fleet_admission () =
  (* One server capped at 2 concurrent connections, 6 clients arriving
     at once: mounts must be refused, back off, re-dial, and all
     eventually complete. *)
  let cfg =
    { Fleet.default with Fleet.clients = 6; servers = 1; admit_per_server = Some 2; stagger_us = 0.0 }
  in
  let r = Fleet.run cfg in
  check_reconcile r;
  Testkit.check_int "all mounted despite the cap" 6 r.Fleet.r_mount_ok;
  Testkit.check_bool "refusals happened" true
    (Sfs_obs.Obs.counter r.Fleet.r_obs "net.admission.refused" > 0);
  Testkit.check_bool "re-dials counted" true (r.Fleet.r_mount_retries > 0)

let test_fleet_determinism () =
  (* Two same-config runs must produce byte-identical ledgers — the
     property the chaos-soak job checks at scale. *)
  let cfg = { Fleet.default with Fleet.clients = 24; user_pool = 8 } in
  let l1 = Fleet.ledger (Fleet.run cfg) in
  let l2 = Fleet.ledger (Fleet.run cfg) in
  Testkit.check_bool "byte-identical ledgers" true (String.equal l1 l2);
  Testkit.check_bool "ledger non-trivial" true (String.length l1 > 200)

let test_fleet_10k () =
  (* The acceptance smoke: 10,000 concurrent clients over a 4-server
     farm and a 4-shard authserv ring; every lease/DRC counter must
     reconcile against live state afterwards. *)
  let cfg =
    {
      Fleet.default with
      Fleet.clients = 10_000;
      servers = 4;
      auth_shards = 4;
      user_pool = 16;
      admit_per_server = Some 4000;
      hot_write_every = 500;
    }
  in
  let r = Fleet.run cfg in
  check_reconcile r;
  Testkit.check_int "all 10k mounted" 10_000 r.Fleet.r_mount_ok;
  Testkit.check_int "all ops completed" 40_000 r.Fleet.r_completed;
  Testkit.check_int "no failures" 0 r.Fleet.r_failed;
  let p99 = Sfs_obs.Sketch.quantile r.Fleet.r_op_lat 0.99 in
  let p50 = Sfs_obs.Sketch.quantile r.Fleet.r_op_lat 0.50 in
  Testkit.check_bool "latency quantiles ordered" true (0 < p50 && p50 <= p99)

let test_fleet_zipf () =
  (* The read-write arm of the CDN figure: Zipf reads over the
     two-level tree, ramp arrivals. *)
  let cfg =
    {
      Fleet.default with
      Fleet.clients = 32;
      servers = 1;
      ops_per_client = 6;
      workload = Fleet.Zipf { dirs = 4; files_per_dir = 8; file_bytes = 1024; theta = 1.0 };
      arrival = Fleet.Ramp 20_000.0;
    }
  in
  let r = Fleet.run cfg in
  check_reconcile r;
  Testkit.check_int "all mounted" 32 r.Fleet.r_mount_ok;
  Testkit.check_int "all reads completed" (32 * 6) r.Fleet.r_completed;
  Testkit.check_int "no failures" 0 r.Fleet.r_failed

(* --- Flashcrowd: the read-only CDN tier --- *)

let check_fc_reconcile r =
  List.iter
    (fun (name, ok) -> Testkit.check_bool ("fc reconcile: " ^ name) true ok)
    (Flashcrowd.reconcile r)

let test_flashcrowd_smoke () =
  (* Enough reads per client for each verification cache to warm up. *)
  let cfg = { Flashcrowd.default with Flashcrowd.reads_per_client = 12 } in
  let r = Flashcrowd.run cfg in
  check_fc_reconcile r;
  Testkit.check_int "all clients finished" cfg.Flashcrowd.clients r.Flashcrowd.r_clients_ok;
  Testkit.check_int "no failed reads" 0 r.Flashcrowd.r_reads_failed;
  Testkit.check_bool "throughput positive" true (Flashcrowd.throughput_reads_s r > 0.0);
  (* The verification cache must be doing its job: far more objects
     reach applications than are verified. *)
  let obs = r.Flashcrowd.r_obs in
  Testkit.check_bool "cache hits dominate" true
    (Sfs_obs.Obs.counter obs "ro.verify.hit" > Sfs_obs.Obs.counter obs "ro.verify.ok")

let test_flashcrowd_determinism () =
  let cfg = { Flashcrowd.default with Flashcrowd.clients = 48; replicas = 3 } in
  let l1 = Flashcrowd.ledger (Flashcrowd.run cfg) in
  let l2 = Flashcrowd.ledger (Flashcrowd.run cfg) in
  Testkit.check_bool "byte-identical ledgers" true (String.equal l1 l2);
  Testkit.check_bool "ledger non-trivial" true (String.length l1 > 200)

let test_flashcrowd_admission_failover () =
  (* Tight admission on two mirrors: clients must be refused, back off,
     and fail over to the least-loaded mirror — and still all finish. *)
  let cfg =
    {
      Flashcrowd.default with
      Flashcrowd.clients = 24;
      replicas = 2;
      admit_per_mirror = Some 4;
      ramp_us = 1_000.0;
    }
  in
  let r = Flashcrowd.run cfg in
  check_fc_reconcile r;
  Testkit.check_int "all clients finished despite the caps" 24 r.Flashcrowd.r_clients_ok;
  Testkit.check_bool "refusals happened" true
    (Sfs_obs.Obs.counter r.Flashcrowd.r_obs "net.admission.refused" > 0);
  Testkit.check_bool "failovers counted" true (r.Flashcrowd.r_failovers > 0)

let test_flashcrowd_republish () =
  (* A mid-crowd incremental publish: the delta fans out, stale objects
     are evicted, clients refresh onto the new root, and nothing
     unverified ever surfaces. *)
  let cfg =
    {
      Flashcrowd.default with
      Flashcrowd.clients = 40;
      reads_per_client = 8;
      republish_at_us = Some 60_000.0;
    }
  in
  let r = Flashcrowd.run cfg in
  check_fc_reconcile r;
  Testkit.check_int "republish happened" 1 r.Flashcrowd.r_republishes;
  Testkit.check_int "all clients finished" 40 r.Flashcrowd.r_clients_ok;
  Testkit.check_int "nothing unverified" 0 r.Flashcrowd.r_bad_content;
  Testkit.check_bool "incremental publish reused objects" true
    (Sfs_obs.Obs.counter r.Flashcrowd.r_obs "ro.publish.reused" > 0)

let test_flashcrowd_20k () =
  (* Past the read-write fleet's 10^4: slim per-connection state lets
     the crowd double without the engine breaking a sweat.  Every
     accounting invariant must still reconcile exactly. *)
  let cfg =
    {
      Flashcrowd.default with
      Flashcrowd.clients = 20_000;
      replicas = 8;
      dirs = 8;
      files_per_dir = 32;
      file_bytes = 1024;
      reads_per_client = 2;
      vcache_objs = 64;
      admit_per_mirror = Some 4000;
      ramp_us = 2_000_000.0;
    }
  in
  let r = Flashcrowd.run cfg in
  check_fc_reconcile r;
  Testkit.check_int "all 20k finished" 20_000 r.Flashcrowd.r_clients_ok;
  Testkit.check_int "all reads completed" 40_000 r.Flashcrowd.r_reads_ok;
  let p50 = Sfs_obs.Sketch.quantile r.Flashcrowd.r_read_lat 0.50 in
  let p99 = Sfs_obs.Sketch.quantile r.Flashcrowd.r_read_lat 0.99 in
  Testkit.check_bool "latency quantiles ordered" true (0 < p50 && p50 <= p99)

(* Golden ledgers, recorded before Fleet and Flashcrowd were folded onto
   one crowd engine.  Each entry is the SHA-1 (hex) of a run's ledger,
   so every tally, latency sketch and obs counter is pinned byte for
   byte: retry/failover order, backoff, re-accounting and Zipf draws
   included.  Four soak-style fault plans cover the retry, failover,
   give-up and fatal paths. *)
let golden_ledgers () : (string * string) list =
  let module Fault = Sfs_fault.Fault in
  let hex_digest s = Sfs_util.Hex.encode (Sfs_crypto.Sha1.digest s) in
  let fleet cfg = hex_digest (Fleet.ledger (Fleet.run cfg)) in
  let crowd cfg = hex_digest (Flashcrowd.ledger (Flashcrowd.run cfg)) in
  let crash host down_s up_s = { Fault.c_host = host; c_down_us = down_s *. 1e6; c_up_us = up_s *. 1e6 } in
  let zipf =
    {
      Fleet.default with
      Fleet.clients = 32;
      servers = 1;
      ops_per_client = 6;
      workload = Fleet.Zipf { dirs = 4; files_per_dir = 8; file_bytes = 1024; theta = 1.0 };
      arrival = Fleet.Ramp 20_000.0;
    }
  in
  let republish =
    { Flashcrowd.default with Flashcrowd.clients = 40; reads_per_client = 8; republish_at_us = Some 60_000.0 }
  in
  let failover =
    { Flashcrowd.default with Flashcrowd.clients = 24; replicas = 2; admit_per_mirror = Some 4; ramp_us = 1_000.0 }
  in
  let rw_crash ?corrupt_pm () =
    {
      Fleet.default with
      Fleet.clients = 16;
      servers = 2;
      user_pool = 8;
      ops_per_client = 6;
      admit_per_server = Some 8;
      hot_write_every = 10;
      seed = "soak";
      fault =
        Some
          (Fault.make ~seed:"soak/crash-early" ?corrupt_pm
             ~crashes:[ crash (Fleet.server_loc 0) 0.003 0.03 ]
             ());
    }
  in
  let ro_soak spec =
    {
      Flashcrowd.default with
      Flashcrowd.clients = 16;
      replicas = 3;
      reads_per_client = 6;
      admit_per_mirror = Some 8;
      republish_at_us = Some 120_000.0;
      seed = "soak-ro";
      fault = Some spec;
    }
  in
  let flap =
    Fault.make ~seed:"soak/ro-mirror-flap"
      ~crashes:
        [
          crash (Flashcrowd.mirror_loc 1) 0.01 0.02;
          crash (Flashcrowd.mirror_loc 1) 0.03 0.04;
          crash (Flashcrowd.mirror_loc 1) 0.05 0.06;
        ]
      ()
  in
  [
    ("fleet default", fleet Fleet.default);
    ("fleet zipf ramp", fleet zipf);
    ("fleet crash window", fleet (rw_crash ()));
    ("fleet crash and corruption", fleet (rw_crash ~corrupt_pm:400 ()));
    ("flashcrowd republish", crowd republish);
    ("flashcrowd admission failover", crowd failover);
    ("flashcrowd mirror flap", crowd (ro_soak flap));
    ("flashcrowd corruption", crowd (ro_soak (Fault.make ~seed:"soak/ro-corrupt-1pct" ~corrupt_pm:100 ())));
  ]

let test_golden_ledgers () =
  let expected =
    [
      ("fleet default", "c9609fbbb4e78fcdad4836c95f3ef3d9777c55d6");
      ("fleet zipf ramp", "f34d291683e8ed70c61c49c0db0903d73e8d8157");
      ("fleet crash window", "cf27c938819cf64de22db5a3f3e746a4c38b0e0c");
      ("fleet crash and corruption", "df04265299b101cc61df76b96a0898b1a453dd74");
      ("flashcrowd republish", "6a9c5ab6fd5802744651732b644c770e429fd660");
      ("flashcrowd admission failover", "71e682012157c3c14041e0874b4dcd1724d04e1e");
      ("flashcrowd mirror flap", "4934b560a53d1ac8ef3255f59f742f1cef61472b");
      ("flashcrowd corruption", "ae1a5b139f5cf78970b1e874579a18323bd40bfc");
    ]
  in
  List.iter2
    (fun (name, want) (name', got) ->
      Testkit.check_string "ledger name" name name';
      Testkit.check_string name want got)
    expected (golden_ledgers ())

let test_crowd_classify () =
  (* Retry policies see typed classes, not error-string prefixes: a
     missing entry is fatal even though its name starts with "no", and
     a torn key negotiation is never retried. *)
  let cases =
    [
      ("timeout", Crowd.Raised Sfs_net.Simnet.Timeout, Crowd.Transport);
      ("no route", Crowd.Raised (Sfs_net.Simnet.No_route "srv0"), Crowd.Transport);
      ("host unreachable", Crowd.Mount (Sfs_core.Client.Host_unreachable "srv0"), Crowd.Transport);
      ("verification", Crowd.Raised (Sfs_core.Readonly.Verification_failed "hash"), Crowd.Verification);
      ("negotiation at mount", Crowd.Mount (Sfs_core.Client.Negotiation_failed "torn"), Crowd.Fatal);
      ("negotiation raised", Crowd.Raised (Sfs_proto.Keyneg.Negotiation_failed "torn"), Crowd.Fatal);
      ("rpc failure", Crowd.Raised (Sfs_nfs.Nfs_client.Rpc_failure "gave up"), Crowd.Fatal);
      ("nfs status", Crowd.Status Sfs_nfs.Nfs_types.NFS3ERR_NOENT, Crowd.Fatal);
      ("missing entry", Crowd.Missing_entry "no-such-file", Crowd.Fatal);
    ]
  in
  List.iter (fun (name, cause, want) -> Testkit.check_bool name true (Crowd.classify cause = want)) cases

let suite =
  ( "workload",
    [
      Alcotest.test_case "stacks construct" `Quick test_stacks_construct;
      Alcotest.test_case "driver helpers" `Quick test_driver_helpers;
      Alcotest.test_case "fig5 latency shape" `Quick test_fig5_latency_shape;
      Alcotest.test_case "fig5 throughput shape" `Slow test_fig5_throughput_shape;
      Alcotest.test_case "fig6 MAB shape" `Slow test_mab_shape;
      Alcotest.test_case "fig8 LFS small shape" `Slow test_lfs_small_shape;
      Alcotest.test_case "fig7 compile crossover" `Slow test_compile_crossover;
      Alcotest.test_case "flush caches" `Quick test_flush_caches;
      Alcotest.test_case "fleet smoke" `Quick test_fleet_smoke;
      Alcotest.test_case "fleet admission" `Quick test_fleet_admission;
      Alcotest.test_case "fleet determinism" `Quick test_fleet_determinism;
      Alcotest.test_case "fleet 10k clients" `Slow test_fleet_10k;
      Alcotest.test_case "fleet zipf reads" `Quick test_fleet_zipf;
      Alcotest.test_case "flashcrowd smoke" `Quick test_flashcrowd_smoke;
      Alcotest.test_case "flashcrowd determinism" `Quick test_flashcrowd_determinism;
      Alcotest.test_case "flashcrowd admission failover" `Quick test_flashcrowd_admission_failover;
      Alcotest.test_case "flashcrowd republish" `Quick test_flashcrowd_republish;
      Alcotest.test_case "flashcrowd 20k clients" `Slow test_flashcrowd_20k;
      Alcotest.test_case "golden ledgers" `Quick test_golden_ledgers;
      Alcotest.test_case "crowd failure classes" `Quick test_crowd_classify;
    ] )

(* Chaos-soak sample: seeded fault plans against the pipelined
   fleet-scale stack, each run TWICE with a byte-identical-ledger
   determinism check.

   The corpus is 30 deterministic plans: 25 against the read-write
   fleet sweeping drops, duplicates, reorders, corruption, delays,
   server crash/restart windows and partitions, plus 5 against the
   read-only replica tier (mirror crash mid-crowd, mirror flap,
   publisher<->mirror partition across a republish window, drops,
   corruption).  CI runs a budgeted sample per push, rotating which
   plans run from the commit SHA (--sha), so over a stream of commits
   the whole corpus gets exercised without any single job paying for
   all of it.  Locally, `make soak` runs everything.

   A plan passes when (a) the run terminates with every client
   accounted for, and (b) a second identical run produces a
   byte-identical ledger — counters, latency sketches and fault/recover
   tallies all included.  Fault-free reconciliation invariants are NOT
   asserted here (crash windows legitimately strand lease state); the
   workload tests cover those.

   Usage:
     soak.exe [--plans N] [--offset K | --sha HEX] [--clients N] [--list]
*)

module Fleet = Sfs_workload.Fleet
module Flashcrowd = Sfs_workload.Flashcrowd
module Fault = Sfs_fault.Fault

(* Which world a plan soaks: the read-write fleet, or the read-only
   replica tier (publisher + mirrors + flash crowd, with a mid-crowd
   incremental republish so fan-out and client root refresh both run
   inside every fault window). *)
type world = Rw of Fault.spec | Ro of Fault.spec

(* --- the corpus: 30 named, seeded plans --- *)

let crash ~host ~down_s ~up_s =
  { Fault.c_host = host; c_down_us = down_s *. 1e6; c_up_us = up_s *. 1e6 }

let part ~a ~b ~from_s ~until_s =
  { Fault.pa = a; pb = b; p_from_us = from_s *. 1e6; p_until_us = until_s *. 1e6 }

let srv i = Fleet.server_loc i
let mir i = Flashcrowd.mirror_loc i

let plans : (string * world) list =
  let spec name ?drop_pm ?dup_pm ?reorder_pm ?corrupt_pm ?delay_pm ?delay_mean_us ?delay_p99_us
      ?partitions ?crashes () =
    Fault.make ?drop_pm ?dup_pm ?reorder_pm ?corrupt_pm ?delay_pm ?delay_mean_us ?delay_p99_us
      ?partitions ?crashes ~seed:("soak/" ^ name) ()
  in
  let mk name ?drop_pm ?dup_pm ?reorder_pm ?corrupt_pm ?delay_pm ?delay_mean_us ?delay_p99_us
      ?partitions ?crashes () =
    ( name,
      Rw
        (spec name ?drop_pm ?dup_pm ?reorder_pm ?corrupt_pm ?delay_pm ?delay_mean_us
           ?delay_p99_us ?partitions ?crashes ()) )
  in
  let mkro name ?drop_pm ?dup_pm ?reorder_pm ?corrupt_pm ?delay_pm ?delay_mean_us ?delay_p99_us
      ?partitions ?crashes () =
    ( name,
      Ro
        (spec name ?drop_pm ?dup_pm ?reorder_pm ?corrupt_pm ?delay_pm ?delay_mean_us
           ?delay_p99_us ?partitions ?crashes ()) )
  in
  [
    mk "clean" ();
    mk "drop-tiny" ~drop_pm:5 ();
    mk "drop-1pct" ~drop_pm:100 ();
    mk "drop-heavy" ~drop_pm:400 ();
    mk "dup-tiny" ~dup_pm:5 ();
    mk "dup-1pct" ~dup_pm:100 ();
    mk "reorder-1pct" ~reorder_pm:100 ();
    mk "reorder-heavy" ~reorder_pm:500 ();
    mk "corrupt-tiny" ~corrupt_pm:5 ();
    mk "corrupt-1pct" ~corrupt_pm:100 ();
    mk "delay-mild" ~delay_pm:500 ~delay_mean_us:2_000 ~delay_p99_us:20_000 ();
    mk "delay-spiky" ~delay_pm:200 ~delay_mean_us:10_000 ~delay_p99_us:200_000 ();
    mk "drop+dup" ~drop_pm:100 ~dup_pm:100 ();
    mk "drop+delay" ~drop_pm:100 ~delay_pm:300 ~delay_mean_us:5_000 ~delay_p99_us:50_000 ();
    mk "dup+reorder" ~dup_pm:100 ~reorder_pm:200 ();
    mk "corrupt+drop" ~corrupt_pm:50 ~drop_pm:50 ();
    mk "kitchen-sink" ~drop_pm:50 ~dup_pm:50 ~reorder_pm:50 ~corrupt_pm:25 ~delay_pm:100
      ~delay_mean_us:3_000 ~delay_p99_us:30_000 ();
    mk "crash-early" ~crashes:[ crash ~host:(srv 0) ~down_s:0.05 ~up_s:0.2 ] ();
    mk "crash-mid" ~crashes:[ crash ~host:(srv 1) ~down_s:0.5 ~up_s:0.8 ] ();
    mk "crash-both" ~crashes:[ crash ~host:(srv 0) ~down_s:0.1 ~up_s:0.3; crash ~host:(srv 1) ~down_s:0.4 ~up_s:0.6 ] ();
    mk "crash+drop" ~drop_pm:100 ~crashes:[ crash ~host:(srv 0) ~down_s:0.2 ~up_s:0.5 ] ();
    mk "flap" ~crashes:[ crash ~host:(srv 0) ~down_s:0.1 ~up_s:0.15; crash ~host:(srv 0) ~down_s:0.3 ~up_s:0.35; crash ~host:(srv 0) ~down_s:0.5 ~up_s:0.55 ] ();
    mk "partition-early" ~partitions:[ part ~a:"c0.client.fleet" ~b:(srv 0) ~from_s:0.0 ~until_s:0.3 ] ();
    mk "partition+delay" ~delay_pm:200 ~delay_mean_us:2_000 ~delay_p99_us:20_000 ~partitions:[ part ~a:"c1.client.fleet" ~b:(srv 1) ~from_s:0.1 ~until_s:0.4 ] ();
    mk "partition+crash" ~partitions:[ part ~a:"c2.client.fleet" ~b:(srv 0) ~from_s:0.0 ~until_s:0.2 ] ~crashes:[ crash ~host:(srv 1) ~down_s:0.3 ~up_s:0.5 ] ();
    (* Read-only replica tier: every plan republishes mid-crowd (see
       ro_cfg), so fan-out resume and client root refresh run under the
       fault.  Mirror crashes kill connections but not the object store;
       the publisher<->mirror partition spans the republish window, so
       one mirror keeps serving the old root until the next fan-out. *)
    mkro "ro-mirror-crash-mid" ~crashes:[ crash ~host:(mir 0) ~down_s:0.06 ~up_s:0.16 ] ();
    mkro "ro-mirror-flap" ~crashes:[ crash ~host:(mir 1) ~down_s:0.03 ~up_s:0.05; crash ~host:(mir 1) ~down_s:0.09 ~up_s:0.11; crash ~host:(mir 1) ~down_s:0.17 ~up_s:0.19 ] ();
    mkro "ro-publisher-partition" ~partitions:[ part ~a:Flashcrowd.publisher_loc ~b:(mir 0) ~from_s:0.05 ~until_s:0.3 ] ();
    mkro "ro-drop-1pct" ~drop_pm:100 ();
    mkro "ro-corrupt-1pct" ~corrupt_pm:100 ();
  ]

(* --- one soak: run a plan twice, demand byte-identical ledgers --- *)

let fleet_cfg ~clients (spec : Fault.spec) : Fleet.config =
  {
    Fleet.default with
    Fleet.clients;
    servers = 2;
    auth_shards = 2;
    user_pool = 8;
    ops_per_client = 6;
    admit_per_server = Some (max 4 (clients / 2));
    hot_write_every = 10;
    seed = "soak";
    fault = Some spec;
  }

(* The read-only soak world: a 3-mirror tier with a mid-crowd
   incremental republish at 120 ms, so every plan exercises fan-out
   (including resume-after-failure) and client root refresh, not just
   the steady serving path. *)
let ro_cfg ~clients (spec : Fault.spec) : Flashcrowd.config =
  {
    Flashcrowd.default with
    Flashcrowd.clients;
    replicas = 3;
    reads_per_client = 6;
    admit_per_mirror = Some (max 4 (clients / 2));
    republish_at_us = Some 120_000.0;
    seed = "soak-ro";
    fault = Some spec;
  }

let run_plan ~clients (name, world) : bool =
  match world with
  | Rw spec ->
      let cfg = fleet_cfg ~clients spec in
      let r1 = Fleet.run cfg in
      let l1 = Fleet.ledger r1 in
      let l2 = Fleet.ledger (Fleet.run cfg) in
      let accounted = r1.Fleet.r_mount_ok + r1.Fleet.r_mount_failed = clients in
      let identical = String.equal l1 l2 in
      Printf.printf "  %-22s %s  mounts %d/%d  ops ok %d failed %d  redials %d%s\n" name
        (if identical && accounted then "PASS" else "FAIL")
        r1.Fleet.r_mount_ok clients r1.Fleet.r_completed r1.Fleet.r_failed
        r1.Fleet.r_mount_retries
        (if identical then "" else "  <- ledgers diverged between identical runs");
      if not accounted then
        Printf.printf "      client accounting broken: mount_ok=%d mount_failed=%d clients=%d\n"
          r1.Fleet.r_mount_ok r1.Fleet.r_mount_failed clients;
      identical && accounted
  | Ro spec ->
      let cfg = ro_cfg ~clients spec in
      let r1 = Flashcrowd.run cfg in
      let l1 = Flashcrowd.ledger r1 in
      let l2 = Flashcrowd.ledger (Flashcrowd.run cfg) in
      let accounted = r1.Flashcrowd.r_clients_ok + r1.Flashcrowd.r_clients_failed = clients in
      let identical = String.equal l1 l2 in
      Printf.printf
        "  %-22s %s  clients %d/%d  reads ok %d failed %d  failovers %d retries %d%s\n" name
        (if identical && accounted then "PASS" else "FAIL")
        r1.Flashcrowd.r_clients_ok clients r1.Flashcrowd.r_reads_ok r1.Flashcrowd.r_reads_failed
        r1.Flashcrowd.r_failovers r1.Flashcrowd.r_retries
        (if identical then "" else "  <- ledgers diverged between identical runs");
      if not accounted then
        Printf.printf "      client accounting broken: ok=%d failed=%d clients=%d\n"
          r1.Flashcrowd.r_clients_ok r1.Flashcrowd.r_clients_failed clients;
      identical && accounted

(* Deterministic rotation: the first 8 hex digits of the commit SHA
   pick where in the corpus this push's sample starts. *)
let offset_of_sha (sha : string) : int =
  let v = ref 0 in
  String.iter
    (fun c ->
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> 10 + Char.code c - Char.code 'a'
        | 'A' .. 'F' -> 10 + Char.code c - Char.code 'A'
        | _ -> 0
      in
      v := ((!v * 16) + d) land 0xFFFFFF)
    (String.sub sha 0 (min 8 (String.length sha)));
  !v

let () =
  let n_plans = ref (List.length plans) in
  let offset = ref 0 in
  let clients = ref 60 in
  let list_only = ref false in
  let rec parse = function
    | [] -> ()
    | "--plans" :: n :: rest ->
        n_plans := int_of_string n;
        parse rest
    | "--offset" :: k :: rest ->
        offset := int_of_string k;
        parse rest
    | "--sha" :: sha :: rest ->
        offset := offset_of_sha sha;
        parse rest
    | "--clients" :: n :: rest ->
        clients := int_of_string n;
        parse rest
    | "--list" :: rest ->
        list_only := true;
        parse rest
    | a :: _ -> failwith ("soak: unknown argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_only then List.iter (fun (name, _) -> print_endline name) plans
  else begin
    let total = List.length plans in
    let count = min !n_plans total in
    let start = !offset mod total in
    let sample = List.init count (fun i -> List.nth plans ((start + i) mod total)) in
    Printf.printf
      "Chaos soak: %d plan(s) starting at corpus index %d, %d clients per plan\n\
       (rw plans: pipelined fleet, 2 servers; ro plans: flash crowd, publisher + 3 mirrors)\n\
       (each plan runs twice; ledgers must be byte-identical)\n\n"
      count start !clients;
    let ok = List.for_all (fun p -> run_plan ~clients:!clients p) sample in
    print_newline ();
    if ok then print_endline "soak: all plans deterministic"
    else begin
      print_endline "soak: FAILURE — see above";
      exit 1
    end
  end

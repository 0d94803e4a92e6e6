(* The crowd engine (DESIGN.md §15).  Every client action is an event
   on the shared clock's queue, run under Simclock.absorb, which
   measures its total cost d.  The slice s of d spent inside the
   serving host's handlers queues on that host's run queue; the rest
   is the client's own machine and the wire:

     ready = Simnet.host_occupy host ~at_us:(T + (d - s)) ~dur_us:s

   where T is the instant the event fires, and the action's latency is
   ready - T.  With one client the queue is always free, so ready =
   T + d: the crowd degenerates exactly to the serial stacks. *)

module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Sketch = Sfs_obs.Sketch
module Obs = Sfs_obs.Obs
module Memfs = Sfs_nfs.Memfs
module Nfs_types = Sfs_nfs.Nfs_types

type cause =
  | Raised of exn | Mount of Sfs_core.Client.mount_error | Status of Nfs_types.nfsstat
  | Missing_entry of string | Unexpected of string

type failure = Transport | Verification | Fatal

let classify : cause -> failure = function
  | Raised (Simnet.Timeout | Simnet.No_route _) | Mount (Sfs_core.Client.Host_unreachable _) ->
      Transport
  | Raised (Sfs_core.Readonly.Verification_failed _) -> Verification
  | Raised _ | Mount _ | Status _ | Missing_entry _ | Unexpected _ -> Fatal

type 'st recovery = Skip | Give_up | Reconnect | Repair of ('st -> unit)

type ('cl, 'st) kind = {
  host : 'cl -> Simnet.host;
  connect : 'cl -> 'st option -> ('st, cause) result;
  op : 'cl -> 'st -> int -> (unit, cause) result;
  finish : 'cl -> 'st -> unit; abandon : 'cl -> unit;
  retry_connect : failure -> bool; on_op_failure : failure -> 'st recovery; on_reconnect : 'cl -> unit;
  max_retries : int;
}

type t = {
  clock : Simclock.t; obs : Obs.registry; net : Simnet.t;
  mutable last_ready_us : float;
  mutable connects : int; mutable gave_up : int; mutable finished : int;
  mutable ops_ok : int; mutable ops_failed : int; mutable ops_abandoned : int;
  mutable reconnects : int; mutable repairs : int; mutable events : int;
  op_lat : Sketch.t; connect_lat : Sketch.t;
}

let create ~(max_spans : int) : t =
  let clock = Simclock.create () in
  let obs = Obs.create ~max_spans ~now_us:(fun () -> Simclock.now_us clock) () in
  let net = Simnet.create ~costs:Sfs_net.Costmodel.default ~obs clock in
  { clock; obs; net; last_ready_us = 0.0; connects = 0; gave_up = 0; finished = 0; ops_ok = 0;
    ops_failed = 0; ops_abandoned = 0; reconnects = 0; repairs = 0; events = 0;
    op_lat = Sketch.create (); connect_lat = Sketch.create () }

let arm_faults (e : t) ~on_restart (spec : Sfs_fault.Fault.spec option) : unit =
  let arm spec = Sfs_fault.Fault.injector ~obs:e.obs ~on_restart ~now_us:(fun () -> Simclock.now_us e.clock) spec in
  Option.iter (fun spec -> Simnet.set_injector e.net (Some (arm spec))) spec

let note_ready (e : t) (us : float) : unit = if us > e.last_ready_us then e.last_ready_us <- us

(* Run [action] at the current event instant and re-account it onto
   [host]'s run queue: the only copy of the formula above. *)
let exec (e : t) (host : Simnet.host) (action : unit -> ('a, cause) result) :
    ('a, cause) result * float * float =
  let t0 = Simclock.now_us e.clock in
  let s0 = Simnet.host_served_us host in
  let r, d =
    Simclock.absorb e.clock (fun () ->
        try action () with
        (* sfstaint: allow TNT004 — harness-fatal exceptions pass through verbatim; nothing secret-derived is attached *)
        | (Stack_overflow | Out_of_memory | Assert_failure _) as x -> raise x
        | x -> Error (Raised x))
  in
  let s = Simnet.host_served_us host -. s0 in
  let s = if s < 0.0 then 0.0 else s in
  let cpu = if d -. s < 0.0 then 0.0 else d -. s in
  let ready = if s > 0.0 then Simnet.host_occupy host ~at_us:(t0 +. cpu) ~dur_us:s else t0 +. d in
  note_ready e ready;
  (r, t0, ready)

type arrival = Stagger of float | Ramp of float

(* A client's progress: ops done (or skipped), failures since a success. *)
type 'cl slot = { cl : 'cl; mutable done_ops : int; mutable fails : int }

(* Capped linear backoff: deterministic, spreads re-dials. *)
let backoff (fails : int) : float = Float.min 500_000.0 (20_000.0 *. float_of_int fails)

let run ?event (e : t) (k : ('cl, 'st) kind) (arrival : arrival) ~(ops : int) (cls : 'cl array) : unit =
  let at us f = Simclock.schedule e.clock ~at_us:us f in
  let give_up s =
    e.gave_up <- e.gave_up + 1;
    e.ops_abandoned <- e.ops_abandoned + (ops - s.done_ops);
    k.abandon s.cl
  in
  let rec connect s prev () =
    let r, t0, ready = exec e (k.host s.cl) (fun () -> k.connect s.cl prev) in
    match r with
    | Ok st ->
        e.connects <- e.connects + 1;
        s.fails <- 0;
        Sketch.observe e.connect_lat (int_of_float (ready -. t0));
        at ready (step s st)
    | Error c when k.retry_connect (classify c) && s.fails < k.max_retries -> redial s prev ready
    | Error _ -> give_up s
  and redial s prev ready =
    s.fails <- s.fails + 1;
    e.reconnects <- e.reconnects + 1;
    k.on_reconnect s.cl;
    at (ready +. backoff s.fails) (connect s prev)
  and step s st () =
    if s.done_ops >= ops then begin
      e.finished <- e.finished + 1;
      ignore (exec e (k.host s.cl) (fun () -> Ok (k.finish s.cl st)))
    end
    else
      let r, t0, ready = exec e (k.host s.cl) (fun () -> k.op s.cl st s.done_ops) in
      match r with
      | Ok () ->
          s.done_ops <- s.done_ops + 1;
          s.fails <- 0;
          e.ops_ok <- e.ops_ok + 1;
          Sketch.observe e.op_lat (int_of_float (ready -. t0));
          at ready (step s st)
      | Error c -> (
          match k.on_op_failure (classify c) with
          | Skip ->
              s.done_ops <- s.done_ops + 1;
              e.ops_failed <- e.ops_failed + 1;
              at ready (step s st)
          | Give_up -> give_up s
          | (Reconnect | Repair _) when s.fails >= k.max_retries -> give_up s
          | Reconnect -> redial s (Some st) ready
          | Repair fix ->
              s.fails <- s.fails + 1;
              e.repairs <- e.repairs + 1;
              let _, _, ready = exec e (k.host s.cl) (fun () -> Ok (fix st)) in
              at (ready +. backoff s.fails) (step s st))
  in
  let n = float_of_int (Array.length cls) in
  Array.iteri
    (fun i cl ->
      let arrive =
        match arrival with
        | Stagger spacing -> float_of_int i *. spacing
        | Ramp ramp_us -> ramp_us *. sqrt (float_of_int (i + 1) /. n)
      in
      at arrive (connect { cl; done_ops = 0; fails = 0 } None))
    cls;
  Option.iter (fun (us, f) -> at us f) event;
  e.events <- Simclock.run_all e.clock;
  Simnet.set_injector e.net None

let ledger (header : string list) ~(last_ready_us : float) (sketches : (string * Sketch.t) list)
    (obs : Obs.registry) : string =
  let b = Buffer.create 4096 in
  List.iter (fun l -> Buffer.add_string b (l ^ "\n")) header;
  Buffer.add_string b (Printf.sprintf "last_ready_us %.3f\n" last_ready_us);
  List.iter (fun (name, sk) -> Buffer.add_string b ("sketch " ^ name ^ " " ^ Sketch.to_json sk ^ "\n")) sketches;
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "counter %s %d\n" name v))
    (Obs.snapshot obs).Obs.snap_counters;
  Buffer.contents b

let zipf_cdf ~(n : int) ~(theta : float) : float array =
  let total = ref 0.0 in
  let cdf = Array.init n (fun i -> total := !total +. (1.0 /. (float_of_int (i + 1) ** theta)); !total) in
  Array.map (fun v -> v /. !total) cdf

(* A uniform draw plus binary search: deterministic per seeded Prng. *)
let zipf_sample (cdf : float array) (rng : Sfs_crypto.Prng.t) : int =
  let r = float_of_int (Sfs_crypto.Prng.random_int rng 1_000_000) /. 1_000_000.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < r then lo := mid + 1 else hi := mid
  done;
  !lo

let file_char (file : int) : char = Char.chr (Char.code 'a' + (file mod 26))
let setup : 'a Nfs_types.res -> 'a = function Ok v -> v | Error st -> Nfs_types.fail st

let seed_tree (fs : Memfs.t) (cred : Sfs_os.Simos.cred) ~(dir : int) ~(dirs : int)
    ~(files_per_dir : int) ~(file_bytes : int) : int array =
  let files = Array.make (dirs * files_per_dir) 0 in
  for d = 0 to dirs - 1 do
    let sub, _ = setup (Memfs.mkdir fs cred ~dir ("d" ^ string_of_int d) ~mode:0o777) in
    for f = 0 to files_per_dir - 1 do
      let file = (d * files_per_dir) + f in
      let ino, _ = setup (Memfs.create_file fs cred ~dir:sub ("f" ^ string_of_int f) ~mode:0o666) in
      ignore (setup (Memfs.write fs cred ino ~off:0 (String.make file_bytes (file_char file))));
      files.(file) <- ino
    done
  done;
  files

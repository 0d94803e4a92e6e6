(* The simulated internet.

   Hosts register services on ports; clients open connections and make
   synchronous request/reply exchanges.  All protocol bytes are real
   marshaled messages; the wire only adds modeled time (Costmodel) and
   gives the adversary its hooks.

   The paper's threat model (section 2.1.2) assumes "malicious parties
   entirely control the network": every message passes through an
   optional tap that can read, replace or drop it, and connections
   expose a raw injection entry point so recorded traffic can be
   replayed.  Under those powers an attacker should achieve nothing
   worse than delay or denial. *)

module Obs = Sfs_obs.Obs

exception Timeout
(** Raised when the adversary drops a message or the peer is gone; the
    simulated equivalent of an RPC timing out. *)

exception No_route of string
(** No host with that address exists (or it is not listening). *)

type direction = To_server | To_client

type tap = {
  mutable on_message : direction -> string -> action;
  mutable observed : (direction * string) list; (* newest first *)
}

and action = Pass | Replace of string | Drop

let passive_tap () : tap = { on_message = (fun _ _ -> Pass); observed = [] }

(* A service accepts connections; each connection gets its own handler
   closure so servers can keep per-connection state (cipher streams,
   sequence windows).  [peer] names the connecting host. *)
type service = peer:string -> (string -> string)

(* Deterministic fault injection.  Simnet consults an (optional)
   injector on every delivery; the injector decides the message's fate
   but stays ignorant of transport mechanics, and Simnet stays ignorant
   of how verdicts are drawn (lib/fault compiles seeded plans into this
   interface — the FoundationDB-style split between the network and the
   nemesis). *)
type fault_action =
  | Fault_pass
  | Fault_drop  (* lose the message; the caller times out *)
  | Fault_delay of float  (* deliver after this many extra microseconds *)
  | Fault_corrupt of int  (* XOR one byte (index mod length) with 0x5a *)
  | Fault_duplicate  (* deliver, then deliver again (retransmission) *)
  | Fault_hold  (* park; delivered before the connection's next send (reorder) *)

type injector = {
  inj_message : dir:direction -> src:string -> dst:string -> size:int -> fault_action;
  inj_host_down : string -> bool;  (* inside a crash window right now? *)
  inj_host_epoch : string -> int;  (* completed restarts for this host *)
}

type host = {
  host_name : string;
  mutable aliases : string list;
  services : (int, service) Hashtbl.t;
  (* Per-host run queue: the earliest instant this host's CPU is free.
     The fleet engine serializes overlapped work from thousands of
     connections through this timeline ({!host_occupy}). *)
  mutable cpu_free_us : float;
  (* Cumulative simulated time this host's services spent handling
     deliveries (handler charges plus injector delays).  The fleet
     engine reads deltas around each exchange to split measured cost
     into client-side and server-side shares. *)
  mutable served_us : float;
  (* Connection admission: refuse new connects past the limit. *)
  mutable admit_limit : int option;
  mutable active_conns : int;
}

(* Obs keys and span args are per (addr, port), not per connection:
   at fleet scale thousands of connections share one server endpoint
   and must share one set of counter strings (bounded registry
   cardinality, compact per-connection state). *)
type endpoint_keys = {
  k_rpcs : string;
  k_bytes_out : string;
  k_bytes_in : string;
  k_rpc_us : string;
  span_args : (string * string) list;
}

type t = {
  clock : Simclock.t;
  costs : Costmodel.t;
  hosts : (string, host) Hashtbl.t; (* by name and alias *)
  keys_cache : (string, endpoint_keys) Hashtbl.t; (* by "addr:port" *)
  mutable default_tap : tap option; (* applied to new connections *)
  mutable injector : injector option; (* environment faults, armed per run *)
  obs : Obs.registry option;
}

let create ?(costs = Costmodel.default) ?obs (clock : Simclock.t) : t =
  {
    clock;
    costs;
    hosts = Hashtbl.create 16;
    keys_cache = Hashtbl.create 16;
    default_tap = None;
    injector = None;
    obs;
  }

let set_injector (t : t) (inj : injector option) : unit = t.injector <- inj

let clock (t : t) = t.clock
let costs (t : t) = t.costs

let add_host (t : t) (name : string) : host =
  if Hashtbl.mem t.hosts name then invalid_arg ("Simnet.add_host: duplicate " ^ name);
  let h =
    {
      host_name = name;
      aliases = [];
      services = Hashtbl.create 4;
      cpu_free_us = 0.0;
      served_us = 0.0;
      admit_limit = None;
      active_conns = 0;
    }
  in
  Hashtbl.replace t.hosts name h;
  h

(* --- Per-host run queue and admission --- *)

let host_served_us (h : host) : float = h.served_us
let host_active_conns (h : host) : int = h.active_conns
let set_admission (h : host) (limit : int option) : unit = h.admit_limit <- limit

(* Occupy the host's CPU for [dur_us] starting no earlier than [at_us]:
   the run-queue primitive the fleet engine re-accounts measured server
   time through.  Returns the completion instant. *)
let host_occupy (h : host) ~(at_us : float) ~(dur_us : float) : float =
  let start = if h.cpu_free_us > at_us then h.cpu_free_us else at_us in
  let fin = start +. dur_us in
  h.cpu_free_us <- fin;
  fin

let add_alias (t : t) (h : host) (alias : string) : unit =
  if Hashtbl.mem t.hosts alias then invalid_arg ("Simnet.add_alias: duplicate " ^ alias);
  h.aliases <- alias :: h.aliases;
  Hashtbl.replace t.hosts alias h

let remove_host (t : t) (name : string) : unit =
  match Hashtbl.find_opt t.hosts name with
  | None -> ()
  | Some h ->
      Hashtbl.remove t.hosts h.host_name;
      List.iter (Hashtbl.remove t.hosts) h.aliases

let find_host (t : t) (name : string) : host option = Hashtbl.find_opt t.hosts name

let listen (t : t) (h : host) ~(port : int) (service : service) : unit =
  ignore t;
  Hashtbl.replace h.services port service

let unlisten (h : host) ~(port : int) : unit = Hashtbl.remove h.services port

type conn = {
  net : t;
  proto : Costmodel.transport_proto;
  peer : string; (* server host name as dialed *)
  from_host : string;
  port : int;
  host : host; (* the serving host: run queue, admission slot *)
  mutable handler : string -> string;
  mutable epoch : int; (* peer restarts observed when (re)bound *)
  mutable dead : bool; (* stream peer restarted: connection state is gone *)
  held : string Queue.t; (* reorder-parked requests, delivered before the next send *)
  mutable tap : tap option;
  mutable closed : bool;
  mutable rpc_count : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  keys : endpoint_keys; (* shared per (addr, port); see endpoint_keys *)
}

let endpoint_keys (t : t) (addr : string) (port : int) : endpoint_keys =
  let ep = Printf.sprintf "%s:%d" addr port in
  match Hashtbl.find_opt t.keys_cache ep with
  | Some k -> k
  | None ->
      let base = "net." ^ ep in
      let k =
        {
          k_rpcs = base ^ ".rpcs";
          k_bytes_out = base ^ ".bytes_out";
          k_bytes_in = base ^ ".bytes_in";
          k_rpc_us = base ^ ".rpc_us";
          span_args = [ ("peer", ep) ];
        }
      in
      Hashtbl.replace t.keys_cache ep k;
      k

let connect (t : t) ~(from_host : string) ~(addr : string) ~(port : int) ~(proto : Costmodel.transport_proto) : conn =
  (* A host inside a crash window refuses connections: the dial times
     out rather than failing with No_route (the name still resolves). *)
  (match t.injector with
  | Some inj when inj.inj_host_down addr -> raise Timeout
  | _ -> ());
  match Hashtbl.find_opt t.hosts addr with
  | None -> raise (No_route addr)
  | Some h -> (
      match Hashtbl.find_opt h.services port with
      | None -> raise (No_route (Printf.sprintf "%s:%d" addr port))
      | Some service ->
          (* Admission control: a host at its connection limit refuses
             the dial (the caller sees a timeout and may retry once
             another client releases a slot). *)
          (match h.admit_limit with
          | Some lim when h.active_conns >= lim ->
              Obs.incr t.obs "net.admission.refused";
              raise Timeout
          | _ -> ());
          h.active_conns <- h.active_conns + 1;
          {
            net = t;
            proto;
            peer = addr;
            from_host;
            port;
            host = h;
            handler = service ~peer:from_host;
            epoch = (match t.injector with Some inj -> inj.inj_host_epoch addr | None -> 0);
            dead = false;
            held = Queue.create ();
            tap = t.default_tap;
            closed = false;
            rpc_count = 0;
            bytes_sent = 0;
            bytes_received = 0;
            keys = endpoint_keys t addr port;
          })

let set_tap (c : conn) (tap : tap option) : unit = c.tap <- tap
let set_default_tap (t : t) (tap : tap option) : unit = t.default_tap <- tap

let close (c : conn) : unit =
  if not c.closed then begin
    c.closed <- true;
    c.host.active_conns <- c.host.active_conns - 1
  end

let apply_tap (c : conn) (dir : direction) (msg : string) : string =
  match c.tap with
  | None -> msg
  | Some tap -> (
      tap.observed <- (dir, msg) :: tap.observed;
      match tap.on_message dir msg with
      | Pass -> msg
      | Replace m -> m
      | Drop -> raise Timeout)

(* --- Fault application (no-ops unless an injector is armed) --- *)

let corrupt_byte (msg : string) (idx : int) : string =
  if msg = "" then msg
  else begin
    let b = Bytes.of_string msg in
    let i = idx mod Bytes.length b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
    Bytes.unsafe_to_string b
  end

(* Check the peer is alive and, after a restart, re-resolve the
   connection: datagram transports rebind transparently to the restarted
   process (whose per-connection state — e.g. the duplicate request
   cache — starts empty); stream transports are dead for good and the
   caller must reconnect. *)
let check_liveness (c : conn) : unit =
  match c.net.injector with
  | None -> ()
  | Some inj ->
      if inj.inj_host_down c.peer then raise Timeout;
      let epoch = inj.inj_host_epoch c.peer in
      if epoch <> c.epoch then begin
        c.epoch <- epoch;
        match c.proto with
        | Costmodel.Udp -> (
            match Hashtbl.find_opt c.net.hosts c.peer with
            | Some h -> (
                match Hashtbl.find_opt h.services c.port with
                | Some service -> c.handler <- service ~peer:c.from_host
                | None -> c.dead <- true)
            | None -> c.dead <- true)
        | Costmodel.Tcp -> c.dead <- true
      end;
      if c.dead then raise Timeout

(* Deliver reorder-parked requests (in arrival order) before the next
   send on this connection.  Their replies were never awaited; a handler
   that times out on them (e.g. a torn-down secure-channel session)
   affects only later exchanges. *)
let flush_held (c : conn) : unit =
  while not (Queue.is_empty c.held) do
    let msg = Queue.pop c.held in
    match c.handler msg with (_ : string) -> () | exception Timeout -> ()
  done

(* Run the request through the injector's verdict and the handler,
   producing the raw reply. *)
let deliver (c : conn) (request : string) : string =
  match c.net.injector with
  | None -> c.handler request
  | Some inj -> (
      flush_held c;
      match
        inj.inj_message ~dir:To_server ~src:c.from_host ~dst:c.peer ~size:(String.length request)
      with
      | Fault_pass -> c.handler request
      | Fault_drop -> raise Timeout
      | Fault_hold ->
          Queue.push request c.held;
          raise Timeout
      | Fault_delay us ->
          Simclock.advance c.net.clock us;
          c.handler request
      | Fault_corrupt idx -> c.handler (corrupt_byte request idx)
      | Fault_duplicate ->
          let reply = c.handler request in
          (* The retransmitted copy arrives right behind the original;
             its reply is redundant and goes unobserved. *)
          (match c.handler request with (_ : string) -> () | exception Timeout -> ());
          reply)

(* The reply's own trip through the injector.  Duplicate and hold make
   no sense for a reply the caller is synchronously awaiting: a held or
   duplicated reply is indistinguishable from a delivered one here, so
   only drop/delay/corrupt apply. *)
let deliver_reply (c : conn) (reply : string) : string =
  match c.net.injector with
  | None -> reply
  | Some inj -> (
      match
        inj.inj_message ~dir:To_client ~src:c.peer ~dst:c.from_host ~size:(String.length reply)
      with
      | Fault_pass | Fault_duplicate | Fault_hold -> reply
      | Fault_drop -> raise Timeout
      | Fault_delay us ->
          Simclock.advance c.net.clock us;
          reply
      | Fault_corrupt idx -> corrupt_byte reply idx)

(* The delivery core every exchange kind shares, run inside the kind's
   own span and after its own pre-delivery charges: counters, tap ->
   injector -> handler -> tap -> reply injector, and the serving host's
   served time.  [measure] reads the server side's charges: under
   [Simclock.time] they stay on the clock, under [Simclock.absorb] they
   are rolled back for the caller to re-account (Rpc_mux).  Returns the
   reply and that server-side time. *)
let exchange (c : conn) ~(measure : Simclock.t -> (unit -> string) -> string * float)
    (request : string) : string * float =
  let t = c.net in
  c.rpc_count <- c.rpc_count + 1;
  c.bytes_sent <- c.bytes_sent + String.length request;
  Obs.incr t.obs c.keys.k_rpcs;
  Obs.add t.obs c.keys.k_bytes_out (String.length request);
  let reply, served =
    measure t.clock (fun () ->
        let request = apply_tap c To_server request in
        let reply = deliver c request in
        let reply = apply_tap c To_client reply in
        deliver_reply c reply)
  in
  c.host.served_us <- c.host.served_us +. served;
  c.bytes_received <- c.bytes_received + String.length reply;
  Obs.add t.obs c.keys.k_bytes_in (String.length reply);
  (reply, served)

(* Every exchange kind passes this gate before its span opens. *)
let check_open (c : conn) : unit =
  if c.closed then raise Timeout;
  check_liveness c

let observe_latency (c : conn) (start_us : float) : unit =
  Obs.observe c.net.obs c.keys.k_rpc_us (int_of_float (Simclock.now_us c.net.clock -. start_us))

(* One synchronous request/reply exchange: charges the fixed per-RPC
   cost plus transfer time for both messages around the delivery (the
   server handler charges its own processing costs). *)
let call (c : conn) (request : string) : string =
  check_open c;
  let t = c.net in
  Obs.span ~args:c.keys.span_args t.obs ~cat:"net" "rpc" (fun () ->
      let start_us = Simclock.now_us t.clock in
      Simclock.advance t.clock (Costmodel.rpc_fixed_us t.costs c.proto);
      Simclock.advance t.clock (Costmodel.transfer_us t.costs c.proto (String.length request));
      let reply, _ = exchange c ~measure:Simclock.time request in
      Simclock.advance t.clock (Costmodel.transfer_us t.costs c.proto (String.length reply));
      observe_latency c start_us;
      reply)

(* A windowed-pipeline exchange (Rpc_mux): charges *nothing* to the
   clock itself.  Server-side processing time (the handler's own
   charges, plus any injector delays) is measured with
   [Simclock.absorb] and returned so the dispatcher can re-account it
   under an overlapped time model.  Exceptions (drops,
   corruption-induced timeouts) restore the clock and propagate to the
   caller. *)
let call_measured (c : conn) (request : string) : string * float =
  check_open c;
  Obs.span ~args:c.keys.span_args c.net.obs ~cat:"net" "rpc_pipe" (fun () ->
      exchange c ~measure:Simclock.absorb request)

(* A pipelined (write-behind) exchange: the caller does not wait for
   the reply, so the fixed round-trip latency is hidden; only wire
   transfer plus a small per-op floor is charged.  Taps still see the
   traffic. *)
let call_async (c : conn) (request : string) : string =
  check_open c;
  let t = c.net in
  Obs.span ~args:c.keys.span_args t.obs ~cat:"net" "rpc_async" (fun () ->
      let start_us = Simclock.now_us t.clock in
      Simclock.advance t.clock t.costs.Costmodel.async_floor_us;
      Simclock.advance t.clock (Costmodel.transfer_us t.costs c.proto (String.length request));
      let reply, _ = exchange c ~measure:Simclock.time request in
      observe_latency c start_us;
      reply)

(* Adversary entry point: deliver a raw message to the server as if it
   came from this connection, without charging the tap. *)
let inject (c : conn) (request : string) : string = c.handler request

let stats (c : conn) : int * int * int = (c.rpc_count, c.bytes_sent, c.bytes_received)

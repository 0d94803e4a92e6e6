(* sfscd — the SFS client (paper sections 2.2, 2.3, 3, 3.3).

   The client automounts self-certifying pathnames: a reference to
   /sfs/Location:HostID dials Location, runs key negotiation, verifies
   the HostID, and exposes the remote file system.  Stripped of "any
   notion of administrative realm": no configuration names any server;
   the pathnames users access are the entire policy.

   Each mount carries: the secure channel, SFS-style caching (leases +
   piggybacked invalidation callbacks), per-user authentication numbers
   negotiated through agents, and the per-RPC user-level crossing cost
   the paper measures.  Mounts are shared between users — safe, because
   users who named the same HostID asked for the same public key
   (section 5.1's answer to the AFS cache-sharing conundrum). *)

open Sfs_nfs.Nfs_types
module Fs_intf = Sfs_nfs.Fs_intf
module Nfs_client = Sfs_nfs.Nfs_client
module Nfs_proto = Sfs_nfs.Nfs_proto
module Cachefs = Sfs_nfs.Cachefs
module Simos = Sfs_os.Simos
module Simnet = Sfs_net.Simnet
module Simclock = Sfs_net.Simclock
module Costmodel = Sfs_net.Costmodel
module Rpc_mux = Sfs_net.Rpc_mux
module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng
module Keyneg = Sfs_proto.Keyneg
module Channel = Sfs_proto.Channel
module Authproto = Sfs_proto.Authproto
module Sfsrw = Sfs_proto.Sfsrw
module Xdr = Sfs_xdr.Xdr
module Obs = Sfs_obs.Obs
module Slice = Sfs_util.Slice

type mount_error =
  | Host_unreachable of string
  | Revoked of Revocation.t option (* the verified certificate, when parsable *)
  | Negotiation_failed of string

let mount_error_to_string = function
  | Host_unreachable l -> "host unreachable: " ^ l
  | Revoked (Some cert) -> (
      match Revocation.body_of cert with
      | Revocation.Revoke -> "pathname revoked"
      | Revocation.Forward p -> "pathname forwarded to " ^ Pathname.to_string p)
  | Revoked None -> "server sent an invalid revocation certificate"
  | Negotiation_failed e -> "key negotiation failed: " ^ e

(* Channel, connection and session identity are mutable: when the
   secure channel desyncs (MAC failure, server restart, dead TCP
   connection) the client tears the transport down and renegotiates in
   place, keeping the mount — and every [Fs_intf.ops] closure handed
   out — valid across the swap. *)
type mount = {
  m_path : Pathname.t;
  m_server_pub : Rabin.pub;
  mutable m_session_id : string;
  mutable m_channel : Channel.t;
  mutable m_conn : Simnet.conn;
  m_invalidations : fh list ref;
  mutable m_cache : Cachefs.t option; (* None only during mount setup *)
  mutable m_ops : Fs_intf.ops option; (* cache-wrapped, what users consume *)
  m_authnos : (int, int) Hashtbl.t; (* uid -> authno; reset on reconnect *)
  m_agents : (int, Agent.t) Hashtbl.t; (* uid -> agent, for re-authentication *)
  mutable m_seqno : int;
  mutable m_xid : int; (* next Fs_call xid; NOT reset on reconnect *)
  m_readonly : bool;
}

type t = {
  net : Simnet.t;
  clock : Simclock.t;
  costs : Costmodel.t;
  rng : Prng.t;
  from_host : string;
  temp_key_bits : int;
  temp_key_lifetime_s : float;
  mutable temp_key : Rabin.priv option;
  mutable temp_key_born_us : float;
  mounts : (string, mount) Hashtbl.t; (* by Pathname.to_name *)
  mutable encrypt : bool; (* ablation switch: "SFS w/o encryption" *)
  mutable cache_policy : Cachefs.policy;
  rpc_attempts : int; (* per-RPC budget incl. the first transmission *)
  rpc_window : int; (* concurrent in-flight calls (1 = fully serial) *)
  readahead : int; (* sequential-read prefetch depth, in blocks *)
  obs : Obs.registry option;
}

(* Capped exponential backoff between RPC recovery attempts: the wait
   before attempt [i+1] is min(base * 2^i, max). *)
let rpc_backoff_base_us = 50_000.0
let rpc_backoff_max_us = 1_600_000.0

let create ?(temp_key_bits = 512) ?(temp_key_lifetime_s = 3600.0) ?temp_key ?(encrypt = true)
    ?(cache_policy = Cachefs.sfs_policy) ?(rpc_attempts = 8) ?(rpc_window = 1) ?(readahead = 0)
    ?obs (net : Simnet.t) ~(from_host : string) ~(rng : Prng.t) () : t =
  {
    net;
    clock = Simnet.clock net;
    costs = Simnet.costs net;
    rng;
    from_host;
    temp_key_bits;
    temp_key_lifetime_s;
    (* A pre-generated [temp_key] lets a fleet of simulated clients on
       one machine share a single K_C (generating 10,000 of them is
       real CPU); lifetime rotation still applies from t=0. *)
    temp_key;
    temp_key_born_us = 0.0;
    mounts = Hashtbl.create 8;
    encrypt;
    cache_policy;
    rpc_attempts = max 1 rpc_attempts;
    rpc_window = max 1 rpc_window;
    readahead = max 0 readahead;
    obs;
  }

(* "Clients discard and regenerate K_C at regular intervals (every hour
   by default)" — forward secrecy. *)
let temp_key (t : t) : Rabin.priv =
  let now = Simclock.now_us t.clock in
  match t.temp_key with
  | Some k when now -. t.temp_key_born_us < t.temp_key_lifetime_s *. 1_000_000.0 -> k
  | _ ->
      let k = Rabin.generate ~bits:t.temp_key_bits t.rng in
      t.temp_key <- Some k;
      t.temp_key_born_us <- now;
      k

let find_mount (t : t) (path : Pathname.t) : mount option =
  Hashtbl.find_opt t.mounts (Pathname.to_name path)

let mounts (t : t) : mount list = Hashtbl.fold (fun _ m acc -> m :: acc) t.mounts []

(* One sealed request/reply exchange on an established channel. *)
let channel_exchange ~(channel : Channel.t) ~(conn : Simnet.conn) (req : Sfsrw.request) :
    (Sfsrw.response, string) result =
  let wire = Channel.seal channel (Sfsrw.request_to_string req) in
  (* sfslint: allow SL010 — authentication exchanges are serial by design *)
  let reply = Simnet.call conn wire in
  match Channel.open_ channel reply with
  | Ok plain -> Sfsrw.response_of_string plain
  | Error `Mac_mismatch -> Result.Error "mac mismatch"
  | Error `Replay -> Result.Error "channel desync"

(* --- Mounting --- *)

(* Dial the server and run key negotiation; the building block of both
   the initial mount and every reconnection. *)
let dial (t : t) (path : Pathname.t) :
    (Simnet.conn * Channel.t * string * Rabin.pub, mount_error) result =
  let location = Pathname.location path in
  match
    Simnet.connect t.net ~from_host:t.from_host ~addr:location ~port:Server.sfs_port
      ~proto:Costmodel.Tcp
  with
  | exception Simnet.No_route _ -> Error (Host_unreachable location)
  | exception Simnet.Timeout -> Error (Host_unreachable location)
  | conn -> (
      let extensions = if t.encrypt then [] else [ "no-encrypt" ] in
      match
        Keyneg.client_negotiate ~extensions ~rng:t.rng ~temp_key:(temp_key t) ~location
          ~hostid:(Pathname.hostid path) ~service:Keyneg.Fs
          (* sfslint: allow SL010 — key negotiation is a serial handshake *)
          (fun msg -> Simnet.call conn msg)
      with
      | exception Keyneg.Host_revoked certificate ->
          Simnet.close conn;
          Error (Revoked (Revocation.cert_for path certificate))
      | exception Keyneg.Negotiation_failed e ->
          Simnet.close conn;
          Error (Negotiation_failed e)
      | exception Simnet.Timeout ->
          Simnet.close conn;
          Error (Host_unreachable location)
      | { Keyneg.keys; server_pub } ->
          let channel =
            Channel.create ~encrypt:t.encrypt ~clock:t.clock ~costs:t.costs ?obs:t.obs
              ~label:"client" ~send_key:keys.Keyneg.kcs ~recv_key:keys.Keyneg.ksc ()
          in
          Ok (conn, channel, keys.Keyneg.session_id, server_pub))

(* --- User authentication (Figure 4, client and agent side) --- *)

let authenticate ?local_uid (t : t) (m : mount) (agent : Agent.t) : int =
  (* [local_uid] is the local credential the agent is answering for —
     normally the agent's own user, but ssu maps a super-user shell to
     an ordinary user's agent (paper footnote 2). *)
  let uid = Option.value local_uid ~default:(Agent.user agent).Simos.uid in
  if not m.m_readonly then Hashtbl.replace m.m_agents uid agent;
  match Hashtbl.find_opt m.m_authnos uid with
  | Some authno -> authno
  | None ->
      if m.m_readonly then begin
        Hashtbl.replace m.m_authnos uid Sfsrw.authno_anonymous;
        Sfsrw.authno_anonymous
      end
      else begin
        Obs.incr t.obs "client.auth_attempts";
        Obs.span t.obs ~cat:"client" "authenticate" (fun () ->
            let info =
              {
                Authproto.service = "FS";
                location = Pathname.location m.m_path;
                hostid = Pathname.hostid m.m_path;
                session_id = m.m_session_id;
              }
            in
            let base = m.m_seqno in
            let msgs = Agent.sign_requests agent info ~seqno_of:(fun i -> base + i) in
            m.m_seqno <- base + List.length msgs;
            (* Only an explicit denial means "no": anything else — a
               timeout, a MAC failure, a garbled reply — is a transport
               fault on a now-poisoned channel, and silently degrading
               to anonymous access would be wrong (the server would
               apply the anonymous credential to every later call).
               Propagate as Timeout; reconnection retries the whole
               authentication over a fresh session. *)
            let try_one i msg =
              match
                channel_exchange ~channel:m.m_channel ~conn:m.m_conn
                  (Sfsrw.Auth_req { seqno = base + i; authmsg = Authproto.authmsg_to_string msg })
              with
              | Ok (Sfsrw.Auth_granted { authno; seqno }) when seqno = base + i -> Some authno
              | Ok (Sfsrw.Auth_denied _) -> None
              | Ok (Sfsrw.Auth_granted _ | Sfsrw.Fs_reply _ | Sfsrw.Proto_error _)
              | Result.Error _ ->
                  raise Simnet.Timeout
            in
            let authno =
              List.fold_left
                (fun acc (i, msg) -> match acc with Some _ -> acc | None -> try_one i msg)
                None
                (List.mapi (fun i msg -> (i, msg)) msgs)
            in
            if authno <> None then Obs.incr t.obs "client.auth_granted";
            let authno = Option.value authno ~default:Sfsrw.authno_anonymous in
            Hashtbl.replace m.m_authnos uid authno;
            authno)
      end

(* --- Recovery --- *)

(* Tear the mount's transport down and renegotiate in place: fresh
   connection, fresh channel, fresh session id.  Volatile server state
   (leases, authnos) died with the old session, so the attribute cache
   is flushed and every known agent re-authenticates against the new
   session id. *)
let reconnect (t : t) (m : mount) : (unit, mount_error) result =
  Simnet.close m.m_conn;
  match dial t m.m_path with
  | Error err -> Error err
  | Ok (conn, channel, session_id, _server_pub) ->
      m.m_conn <- conn;
      m.m_channel <- channel;
      m.m_session_id <- session_id;
      m.m_seqno <- 1;
      Hashtbl.reset m.m_authnos;
      m.m_invalidations := [];
      (match m.m_cache with
      | Some cache ->
          Cachefs.invalidate_all cache;
          Obs.incr t.obs "recover.cache_flush"
      | None -> ());
      Obs.incr t.obs "recover.reconnect";
      (* Deterministic order: snapshot and sort by uid (re-running
         authentication mutates m_authnos under our feet otherwise). *)
      let agents =
        Hashtbl.fold (fun uid a acc -> (uid, a) :: acc) m.m_agents []
        |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
      in
      (* A transport fault mid-authentication means the fresh channel
         is already dead: close it and report the reconnect as failed
         so the caller backs off and dials again.  The close matters —
         leaving a live channel behind with m_authnos empty would let
         the next attempt run silently downgraded to anonymous
         access. *)
      match
        List.iter
          (fun (uid, agent) ->
            Obs.incr t.obs "recover.reauth";
            ignore (authenticate ~local_uid:uid t m agent))
          agents
      with
      | () -> Ok ()
      | exception Simnet.Timeout ->
          Simnet.close m.m_conn;
          Error (Host_unreachable (Pathname.location m.m_path))

let mount (t : t) (path : Pathname.t) : (mount, mount_error) result =
  match find_mount t path with
  | Some m -> Ok m
  | None ->
      (* Only the cold path is a span: repeat references are a cheap
         hashtable hit, as in the real automounter. *)
      Obs.incr t.obs "client.automounts";
      Obs.span
        ~args:[ ("path", Pathname.to_string path) ]
        t.obs ~cat:"client" "automount"
        (fun () ->
          match dial t path with
          | Error e -> Error e
          | Ok (conn, channel, session_id, server_pub) -> (
              let m =
                {
                  m_path = path;
                  m_server_pub = server_pub;
                  m_session_id = session_id;
                  m_channel = channel;
                  m_conn = conn;
                  m_invalidations = ref [];
                  m_cache = None;
                  m_ops = None;
                  m_authnos = Hashtbl.create 4;
                  m_agents = Hashtbl.create 4;
                  m_seqno = 1;
                  m_xid = 1;
                  m_readonly = false;
                }
              in
              (* The secure-channel transport for the read-write
                 protocol; every relayed RPC also pays the client
                 daemon's user-level crossing.  Reads the mount's
                 channel and connection afresh on every attempt, so a
                 mid-call reconnection is transparent to callers. *)
              let raw_call : Nfs_client.raw_call =
               fun ~cred ~proc ~async args ->
                (* One xid per logical call, held across every retry of
                   it — including re-issues after a reconnection — so
                   the server's duplicate request cache can recognise a
                   retransmission whose first execution succeeded but
                   whose reply was lost. *)
                let xid = m.m_xid in
                m.m_xid <- m.m_xid + 1;
                let opname =
                  (if proc = Sfsrw.proc_getroot then "getroot" else Nfs_proto.proc_name proc)
                  ^ if async then "/wb" else ""
                in
                let rec go (i : int) : string =
                  let channel = m.m_channel and conn = m.m_conn in
                  let authno =
                    match Hashtbl.find_opt m.m_authnos cred.Simos.cred_uid with
                    | Some a -> a
                    | None -> Sfsrw.authno_anonymous
                  in
                  (* Per-attempt op span; its context rides the wire so
                     the server's spans attach to this attempt. *)
                  let os = Obs.span_begin t.obs ~cat:"op" opname in
                  let trace, span =
                    match Obs.open_ctx os with
                    | Some cx -> (cx.Obs.cx_trace, cx.Obs.cx_span)
                    | None -> (0, 0)
                  in
                  let req =
                    Sfsrw.request_to_string (Sfsrw.Fs_call { xid; authno; proc; trace; span; args })
                  in
                  (* Any transport or channel failure poisons the ARC4
                     streams; retransmission on the same channel is
                     useless.  Back off, reconnect, re-issue. *)
                  let recover (why : string) : string =
                    Obs.span_end os;
                    if i + 1 >= t.rpc_attempts then begin
                      Obs.incr t.obs "recover.rpc_giveup";
                      raise (Nfs_client.Rpc_failure why)
                    end
                    else begin
                      Obs.incr t.obs "recover.rpc_retry";
                      Simclock.advance t.clock
                        (Float.min
                           (rpc_backoff_base_us *. float_of_int (1 lsl min i 16))
                           rpc_backoff_max_us);
                      (match reconnect t m with
                      | Ok () -> ()
                      | Error (Revoked _ as e) ->
                          Obs.incr t.obs "recover.rpc_giveup";
                          raise (Nfs_client.Rpc_failure (mount_error_to_string e))
                      | Error _ -> (* still down; next attempt backs off again *) ());
                      go (i + 1)
                    end
                  in
                  (* One attempt's exchange.  Sync pays a full
                     user-level crossing and the billed seal, then a
                     blocking round trip.  Write-behind: the pipeline
                     hides most of the user-level crossings and overlaps
                     encryption with the wire, so only the residual
                     fractions are charged.  Also returns a sampler
                     that, called at decode success, records the
                     attempt's critical-path decomposition. *)
                  let exchange () =
                    let t0 = Simclock.now_us t.clock in
                    let wire, crypto_up, crypto_up_ctr =
                      if async then begin
                        Simclock.advance t.clock
                          (t.costs.Costmodel.async_userlevel_factor
                          *. (2.0 *. t.costs.Costmodel.userlevel_us_per_side));
                        let wire = Channel.seal ~bill:false channel req in
                        let crypto_up_full = Channel.crypto_cost_us channel (String.length req) in
                        let crypto_up = t.costs.Costmodel.async_crypto_factor *. crypto_up_full in
                        Simclock.advance t.clock crypto_up;
                        (wire, crypto_up, int_of_float crypto_up_full)
                      end
                      else begin
                        Simclock.advance t.clock t.costs.Costmodel.userlevel_us_per_side;
                        let wire = Channel.seal channel req in
                        let crypto_up = Channel.crypto_cost_us channel (String.length req) in
                        (wire, crypto_up, int_of_float crypto_up)
                      end
                    in
                    let t1 = Simclock.now_us t.clock in
                    let reply =
                      if async then Simnet.call_async conn wire
                      else
                        (* sfslint: allow SL010 — sync fallback: metadata ops and the recovery path; READs pipeline via Rpc_mux *)
                        Simnet.call conn wire
                    in
                    (* The round trip's modeled share: sync pays the
                       fixed RPC latency and the reply's transfer;
                       write-behind pays only the async floor. *)
                    let latency, down_wire =
                      if async then (t.costs.Costmodel.async_floor_us, None)
                      else
                        ( Costmodel.rpc_fixed_us t.costs Costmodel.Tcp,
                          Some (Costmodel.transfer_us t.costs Costmodel.Tcp (String.length reply)) )
                    in
                    (* The analytic inverse of exactly the charges above
                       and Simnet's: the segments telescope to the
                       attempt's wall time, with the server's share as
                       the residual. *)
                    let sample (plain : string) : unit =
                      let t2 = Simclock.now_us t.clock in
                      let crypto_down = Channel.crypto_cost_us channel (String.length plain) in
                      let up_wire = Costmodel.transfer_us t.costs Costmodel.Tcp (String.length wire) in
                      let server = t2 -. t1 -. latency -. up_wire in
                      let server = match down_wire with Some d -> server -. d | None -> server in
                      Obs.span_end ~end_us:t2 os;
                      Obs.cp_record t.obs
                        {
                          Obs.cp_op = opname;
                          cp_trace = trace;
                          cp_span = span;
                          cp_start_us = t0;
                          cp_wall_us = t2 -. t0;
                          cp_segments =
                            [
                              ("client", t1 -. t0 -. crypto_up);
                              ("crypto_up", crypto_up);
                              ("latency", latency);
                              ("up_wire", up_wire);
                              ("server_cpu", server -. crypto_down);
                              ("crypto_down", crypto_down);
                            ]
                            @ (match down_wire with Some d -> [ ("down_wire", d) ] | None -> []);
                          cp_crypto_up_ctr = crypto_up_ctr;
                          cp_crypto_down_ctr = int_of_float crypto_down;
                        }
                    in
                    (reply, sample)
                  in
                  match exchange () with
                  | exception Simnet.Timeout -> recover "timeout"
                  | reply, sample -> (
                      match Channel.open_ channel reply with
                      | Error `Mac_mismatch ->
                          Obs.incr t.obs "recover.mac_mismatch";
                          recover "mac mismatch"
                      | Error `Replay ->
                          Obs.incr t.obs "recover.replay";
                          recover "channel desync"
                      | Ok plain -> (
                          match Sfsrw.response_of_string plain with
                          | Ok (Sfsrw.Fs_reply { results; invalidations = inv }) ->
                              m.m_invalidations := !(m.m_invalidations) @ inv;
                              sample plain;
                              results
                          | Ok (Sfsrw.Proto_error e) ->
                              Obs.span_end os;
                              raise (Nfs_client.Rpc_failure e)
                          | Ok (Sfsrw.Auth_granted _ | Sfsrw.Auth_denied _) ->
                              Obs.span_end os;
                              raise (Nfs_client.Rpc_failure "unexpected auth response")
                          | Result.Error e -> recover ("garbled response: " ^ e)))
                in
                go 0
              in
              (* Fetch the encrypted root handle in-band.  Handles are
                 stable across server restarts (Fhcrypt keys derive
                 from the server's key), so the root outlives any
                 reconnection. *)
              match
                Xdr.run
                  (raw_call ~cred:Simos.anonymous_cred ~proc:Sfsrw.proc_getroot ~async:false "")
                  dec_fh
              with
              | Result.Error e ->
                  Simnet.close m.m_conn;
                  Error (Negotiation_failed ("bad root handle: " ^ e))
              | exception Nfs_client.Rpc_failure e ->
                  Simnet.close m.m_conn;
                  Error (Negotiation_failed e)
              | Ok root ->
                  let inner_ops = Nfs_client.generic_ops raw_call ~root in
                  (* The windowed READ path (readahead).  Requests ride
                     the same secure channel in submission order — the
                     mux runs exchanges eagerly, so the ARC4 stream
                     positions and the server's execution order are
                     byte-identical to the serial client's — while the
                     round trips overlap in simulated time. *)
                  let pipeline =
                    if t.rpc_window > 1 && t.readahead > 0 then begin
                      let mux =
                        Rpc_mux.create ?obs:t.obs ~window:t.rpc_window ~clock:t.clock
                          (* Donated idle wire time becomes reply-stream
                             keystream, banked ahead of the replies it
                             will decrypt (reads m_channel afresh, so a
                             reconnection swaps the beneficiary too). *)
                          ~precompute:(fun ~budget_us ->
                            Channel.precompute m.m_channel ~budget_us)
                          ~wire_us:(fun bytes -> Costmodel.transfer_us t.costs Costmodel.Tcp bytes)
                          ~latency_us:t.costs.Costmodel.tcp_rpc_us
                          ~op_us:t.costs.Costmodel.pipeline_sfs_op_us
                          ~exchange:(fun wire ->
                            let reply, server_us = Simnet.call_measured m.m_conn wire in
                            (* Zero-copy: the opened frame is the single
                               buffer the reply rides from here to the
                               block cache — the decode below and the
                               READ payload are views into it. *)
                            match Channel.open_slice m.m_channel reply with
                            | Ok frame -> (
                                match Sfsrw.fs_reply_of_slice frame with
                                | Ok (results, inv) ->
                                    (* Capture invalidations eagerly: a
                                       ticket the cache later abandons
                                       must not lose a callback. *)
                                    m.m_invalidations := !(m.m_invalidations) @ inv;
                                    {
                                      Rpc_mux.c_payload = results;
                                      c_server_us = server_us;
                                      c_wire_bytes = String.length reply;
                                      (* Of the measured server time, the
                                         reply seal — attributed to the
                                         down direction so the analyzer
                                         never double-counts full-duplex
                                         crypto overlap. *)
                                      c_crypto_us =
                                        Channel.crypto_cost_us m.m_channel (Slice.length frame);
                                      (* Keystream this open_ consumed
                                         from the idle-time prefetch:
                                         that slice of the seal already
                                         ran during dead wire time. *)
                                      c_claim_us = Channel.take_recv_claim m.m_channel;
                                    }
                                | Result.Error _ -> raise Simnet.Timeout)
                            | Error _ ->
                                (* Poisoned streams: surface as a
                                   timeout; the sync fallback's recovery
                                   reconnects and re-authenticates. *)
                                raise Simnet.Timeout)
                          ()
                      in
                      let pl_submit cred fh ~off ~count =
                        (* Reads m_channel/m_conn afresh, so a
                           reconnection between reads is transparent. *)
                        let xid = m.m_xid in
                        m.m_xid <- m.m_xid + 1;
                        let authno =
                          match Hashtbl.find_opt m.m_authnos cred.Simos.cred_uid with
                          | Some a -> a
                          | None -> Sfsrw.authno_anonymous
                        in
                        let t0 = Simclock.now_us t.clock in
                        let os = Obs.span_begin t.obs ~cat:"op" "read" in
                        let trace, span =
                          match Obs.open_ctx os with
                          | Some cx -> (cx.Obs.cx_trace, cx.Obs.cx_span)
                          | None -> (0, 0)
                        in
                        let req =
                          Sfsrw.request_to_string
                            (Sfsrw.Fs_call
                               {
                                 xid;
                                 authno;
                                 proc = Nfs_proto.proc_read;
                                 trace;
                                 span;
                                 args = Xdr.encode Nfs_proto.enc_read_args (fh, off, count);
                               })
                        in
                        (* Residual client-side costs; the window hides
                           the rest (the write-behind path's overlap
                           fractions). *)
                        Simclock.advance t.clock
                          (t.costs.Costmodel.async_userlevel_factor
                          *. (2.0 *. t.costs.Costmodel.userlevel_us_per_side));
                        let channel = m.m_channel in
                        let wire = Channel.seal ~bill:false channel req in
                        let crypto_up_full = Channel.crypto_cost_us channel (String.length req) in
                        let crypto_up = t.costs.Costmodel.async_crypto_factor *. crypto_up_full in
                        Simclock.advance t.clock crypto_up;
                        let info =
                          {
                            Rpc_mux.ci_op = "read";
                            ci_t0_us = t0;
                            ci_crypto_up_us = crypto_up;
                            ci_crypto_up_ctr = int_of_float crypto_up_full;
                            ci_span = os;
                          }
                        in
                        let ticket =
                          Rpc_mux.submit ~info mux ~wire_bytes:(String.length wire) wire
                        in
                        Some
                          (fun () ->
                            let results = Rpc_mux.await mux ticket in
                            match
                              Xdr.run_slice results (Nfs_proto.dec_res Nfs_proto.dec_read_ok_slice)
                            with
                            | Ok v -> v
                            | Result.Error e ->
                                raise (Nfs_client.Rpc_failure ("unparsable result: " ^ e)))
                      in
                      Some { Fs_intf.pl_depth = t.readahead; pl_submit }
                    end
                    else None
                  in
                  let cache =
                    Cachefs.create
                      ~take_invalidations:(fun () ->
                        let inv = !(m.m_invalidations) in
                        m.m_invalidations := [];
                        inv)
                      ?obs:t.obs ?pipeline
                      ~write_behind:(t.rpc_window > 1)
                      ~clock:t.clock ~policy:t.cache_policy inner_ops
                  in
                  m.m_cache <- Some cache;
                  m.m_ops <- Some (Cachefs.ops cache);
                  Hashtbl.replace t.mounts (Pathname.to_name path) m;
                  Ok m))

(* Mount the read-only dialect of a pathname (used for certification
   authorities).  No secure channel: integrity comes from the signed
   root and the hash chain; the transport stays in the clear. *)
let mount_readonly (t : t) (path : Pathname.t) : (mount, mount_error) result =
  let name = Pathname.to_name path ^ ":ro" in
  match Hashtbl.find_opt t.mounts name with
  | Some m -> Ok m
  | None -> (
      let location = Pathname.location path in
      match
        Simnet.connect t.net ~from_host:t.from_host ~addr:location ~port:Server.sfs_port
          ~proto:Costmodel.Tcp
      with
      | exception (Simnet.No_route _ | Simnet.Timeout) -> Error (Host_unreachable location)
      | conn -> (
          (* Every failed mount gives its admission slot back. *)
          let fail e =
            Simnet.close conn;
            Error e
          in
          (* The connect step still verifies the HostID, but key
             negotiation is skipped for the read-only dialect. *)
          let req =
            {
              Keyneg.version = "sfs-1";
              location;
              hostid = Pathname.hostid path;
              service = Keyneg.Fs_readonly;
              extensions = [];
            }
          in
          (* sfslint: allow SL010 — read-only connect handshake, serial by design *)
          match Simnet.call conn (Xdr.encode Keyneg.enc_connect_req req) with
          | exception Simnet.Timeout -> fail (Host_unreachable location)
          | res -> (
              match Xdr.run res Keyneg.dec_connect_res with
              | Result.Error e -> fail (Negotiation_failed e)
              | Ok (Keyneg.Connect_error e) -> fail (Negotiation_failed e)
              | Ok (Keyneg.Connect_revoked { certificate }) ->
                  fail (Revoked (Revocation.cert_for path certificate))
              | Ok (Keyneg.Connect_ok { pubkey })
                when not
                       (Sfs_proto.Hostid.check ~location ~pubkey ~hostid:(Pathname.hostid path)) ->
                  fail (Negotiation_failed "server key does not match HostID")
              | Ok (Keyneg.Connect_ok { pubkey }) -> (
                  let exchange bytes =
                    Simclock.advance t.clock t.costs.Costmodel.userlevel_us_per_side;
                    (* sfslint: allow SL010 — read-only dialect: every fetch is hash-verified against the previous, so the chain is serial *)
                    Simnet.call conn bytes
                  in
                  match
                    Readonly.connect ?obs:t.obs ~costs:t.costs ~exchange ~pubkey ~clock:t.clock ()
                  with
                  | exception Readonly.Verification_failed e -> fail (Negotiation_failed e)
                  | exception Simnet.Timeout -> fail (Host_unreachable location)
                  | ro ->
                      let ops = Readonly.ops ro in
                      let cache =
                        Cachefs.create ?obs:t.obs ~clock:t.clock ~policy:t.cache_policy ops
                      in
                      let m =
                        {
                          m_path = path;
                          m_server_pub = pubkey;
                          m_session_id = "";
                          m_channel =
                            Channel.create ~encrypt:false ~send_key:(String.make 20 '0')
                              ~recv_key:(String.make 20 '0') ();
                          m_conn = conn;
                          m_invalidations = ref [];
                          m_cache = Some cache;
                          m_ops = Some (Cachefs.ops cache);
                          m_authnos = Hashtbl.create 1;
                          m_agents = Hashtbl.create 1;
                          m_seqno = 1;
                          m_xid = 1;
                          m_readonly = true;
                        }
                      in
                      Hashtbl.replace t.mounts name m;
                      Ok m))))

let ops (m : mount) : Fs_intf.ops =
  match m.m_ops with Some o -> o | None -> invalid_arg "Client.ops: mount not initialized"

let path (m : mount) : Pathname.t = m.m_path
let server_pub (m : mount) : Rabin.pub = m.m_server_pub
let is_readonly (m : mount) : bool = m.m_readonly

let cache (m : mount) : Cachefs.t =
  match m.m_cache with Some c -> c | None -> invalid_arg "Client.cache: mount not initialized"

(* Invalidation callbacks received on the wire but not yet drained into
   the cache (drains happen on the next cache consult).  The fleet
   reconciliation sums this leftover so server-sent == client-received
   holds exactly at quiesce. *)
let pending_invalidations (m : mount) : int = List.length !(m.m_invalidations)

let unmount (t : t) (m : mount) : unit =
  Simnet.close m.m_conn;
  Hashtbl.remove t.mounts (Pathname.to_name m.m_path ^ if m.m_readonly then ":ro" else "")

let set_encrypt (t : t) (enabled : bool) : unit = t.encrypt <- enabled

(* Adversary-side helper for the attack demo and tests: deliver raw
   bytes on the mount's connection as a network attacker would
   (replay).  Reports whether the server's channel accepted them. *)
let inject_raw (m : mount) (bytes : string) : (string, string) result =
  match Simnet.inject m.m_conn bytes with
  | reply -> Ok reply
  | exception Simnet.Timeout ->
      (* The server's channel rejected the bytes and killed the
         connection — exactly what an attacker's replay should see. *)
      Error "rejected: channel integrity failure, connection dead"

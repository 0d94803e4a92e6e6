(* NFS 3 client: [Fs_intf.ops] over a Sun RPC connection.

   This is the kernel NFS client of the benchmark baselines, and also
   what an SFS server uses to reach the NFS server on its own machine
   (in-machine traffic uses a zero-cost loopback connection).  Caching
   lives in the separate Cachefs layer, so this module is a pure
   protocol translator. *)

open Nfs_types
module Simos = Sfs_os.Simos
module Simnet = Sfs_net.Simnet
module Rpc_mux = Sfs_net.Rpc_mux
module Costmodel = Sfs_net.Costmodel
module Xdr = Sfs_xdr.Xdr
module Sunrpc = Sfs_xdr.Sunrpc
module Obs = Sfs_obs.Obs

(* Per-call timeout handling: a lost request or reply surfaces as
   [Simnet.Timeout]; the kernel NFS client's answer is to retransmit
   the *same* xid after a capped exponential backoff, relying on the
   server's duplicate request cache to keep retried non-idempotent
   procedures harmless. *)
type retry = {
  r_attempts : int; (* total attempts, including the first *)
  r_base_us : float; (* first backoff *)
  r_max_us : float; (* backoff cap *)
  r_charge : float -> unit; (* bill the wait to the simulated clock *)
  r_obs : Obs.registry option;
}

let retry_policy ?(attempts = 8) ?(base_us = 20_000.) ?(max_us = 800_000.) ?obs
    ~(charge : float -> unit) () : retry =
  { r_attempts = max 1 attempts; r_base_us = base_us; r_max_us = max_us; r_charge = charge; r_obs = obs }

(* One xid space over one transport: [send] ships a marshaled call and
   returns the marshaled reply; [enc] is the reusable RPC encoder, one
   buffer for every call this client makes. *)
type t = {
  send : string -> string;
  mutable xid : int;
  machine : string;
  enc : Xdr.enc;
  retry : retry option;
  obs : Obs.registry option; (* for the trace-context annex on calls *)
}

let rpc_auth_of_cred (machine : string) (c : Simos.cred) : Sunrpc.auth_flavor =
  if Simos.is_anonymous c then Sunrpc.Auth_none
  else
    Sunrpc.Auth_unix
      { stamp = 0; machine; uid = c.Simos.cred_uid; gid = c.Simos.cred_gid; gids = c.Simos.cred_groups }

exception Rpc_failure of string

let backoff_us (r : retry) (i : int) : float =
  Float.min (r.r_base_us *. float_of_int (1 lsl min i 16)) r.r_max_us

(* One call: marshal, send, unmarshal, check xid.  With a retry policy,
   timeouts and garbled replies retransmit the same xid (the server's
   duplicate request cache absorbs re-executions); RPC-level rejections
   are hard errors and never retried. *)
let call_raw (t : t) ~(cred : Simos.cred) ~(prog : int) ~(vers : int) ~(proc : int) (args : string) :
    string =
  let xid = t.xid in
  t.xid <- t.xid + 1;
  (* Piggyback the ambient causal context (the enclosing Cachefs op
     root), so server-side spans attach to the op that caused them.
     Retransmissions reuse [msg] verbatim, keeping the server's
     byte-comparing duplicate request cache effective. *)
  let trace, span =
    match Obs.current t.obs with
    | Some cx -> (cx.Obs.cx_trace, cx.Obs.cx_span)
    | None -> (0, 0)
  in
  let msg =
    Sunrpc.msg_to_string ~enc:t.enc
      (Sunrpc.Call
         { Sunrpc.xid; prog; vers; proc; trace; span; cred = rpc_auth_of_cred t.machine cred; args })
  in
  let attempts = match t.retry with None -> 1 | Some r -> r.r_attempts in
  let rec attempt (i : int) : string =
    (* A transient failure: back off and retransmit, or give up. *)
    let retry_or (why : string) : string =
      match t.retry with
      | Some r when i + 1 < attempts ->
          Obs.incr r.r_obs "recover.rpc_retry";
          r.r_charge (backoff_us r i);
          attempt (i + 1)
      | Some r ->
          Obs.incr r.r_obs "recover.rpc_giveup";
          raise (Rpc_failure why)
      | None -> raise (Rpc_failure why)
    in
    match t.send msg with
    | exception Simnet.Timeout -> retry_or "timeout"
    | reply -> (
        match Sunrpc.msg_of_string reply with
        | Ok (Sunrpc.Reply r) when r.Sunrpc.reply_xid = xid || r.Sunrpc.reply_xid = 0 -> (
            match r.Sunrpc.body with
            | Sunrpc.Success results -> results
            | Sunrpc.Garbage_args ->
                (* Our request arrived corrupted; the bytes on the wire
                   were damaged, not the program — retransmit. *)
                retry_or "garbage args"
            | Sunrpc.Prog_unavail -> raise (Rpc_failure "program unavailable")
            | Sunrpc.Prog_mismatch _ -> raise (Rpc_failure "program version mismatch")
            | Sunrpc.Proc_unavail -> raise (Rpc_failure "procedure unavailable")
            | Sunrpc.System_err -> raise (Rpc_failure "system error")
            | Sunrpc.Rejected _ -> raise (Rpc_failure "call rejected"))
        | Ok (Sunrpc.Reply _) -> retry_or "xid mismatch"
        | Ok (Sunrpc.Call _) -> raise (Rpc_failure "unexpected call")
        | Result.Error e -> retry_or ("unparsable reply: " ^ e))
  in
  attempt 0

(* NFS procedures marshaled over any raw call function; shared with the
   SFS client, whose transport is the secure channel instead of Sun
   RPC. *)
type raw_call = cred:Simos.cred -> proc:int -> async:bool -> string -> string
(* [async] marks write-behind traffic (unstable WRITEs): the transport
   may pipeline it instead of paying a full round trip. *)

let generic_call ?(async = false) (call : raw_call) ~(cred : Simos.cred) ~(proc : int)
    (enc_args : Xdr.enc -> 'a -> unit) (a : 'a) (dec_result : Xdr.dec -> 'b) : 'b =
  let args = Xdr.encode enc_args a in
  let results = call ~cred ~proc ~async args in
  match Xdr.run results dec_result with
  | Ok v -> v
  | Result.Error e ->
      (* sfstaint: allow TNT004 — Xdr errors interpolate only lengths and tag values, never reply bytes; the transport closure's captured channel state stays out of the message *)
      raise (Rpc_failure ("unparsable result: " ^ e))

let generic_ops (call : raw_call) ~(root : fh) : Fs_intf.ops =
  let open Nfs_proto in
  let nfs_call ?async ~cred ~proc enc_args a dec_result =
    generic_call ?async call ~cred ~proc enc_args a dec_result
  in
  {
    Fs_intf.fs_root = root;
    fs_getattr = (fun cred h -> nfs_call ~cred ~proc:proc_getattr enc_fh h (dec_res dec_fattr));
    fs_setattr =
      (fun cred h s -> nfs_call ~cred ~proc:proc_setattr enc_setattr_args (h, s) (dec_res dec_fattr));
    fs_lookup =
      (fun cred ~dir name ->
        nfs_call ~cred ~proc:proc_lookup enc_diropargs (dir, name) (dec_res dec_lookup_ok));
    fs_access =
      (fun cred h want ->
        Result.map snd
          (nfs_call ~cred ~proc:proc_access enc_access_args (h, want) (dec_res dec_access_ok)));
    fs_readlink =
      (fun cred h ->
        nfs_call ~cred ~proc:proc_readlink enc_fh h (dec_res (fun d -> Xdr.dec_string d ~max:1024)));
    fs_read =
      (fun cred h ~off ~count ->
        nfs_call ~cred ~proc:proc_read enc_read_args (h, off, count) (dec_res dec_read_ok));
    fs_write =
      (fun cred h ~off ~stable data ->
        nfs_call ~async:(not stable) ~cred ~proc:proc_write enc_write_args (h, off, stable, data)
          (dec_res dec_fattr));
    fs_create =
      (fun cred ~dir name ~mode ->
        nfs_call ~cred ~proc:proc_create enc_create_args (dir, name, mode) (dec_res dec_lookup_ok));
    fs_mkdir =
      (fun cred ~dir name ~mode ->
        nfs_call ~cred ~proc:proc_mkdir enc_create_args (dir, name, mode) (dec_res dec_lookup_ok));
    fs_symlink =
      (fun cred ~dir name ~target ->
        nfs_call ~cred ~proc:proc_symlink enc_symlink_args (dir, name, target) (dec_res dec_lookup_ok));
    fs_remove =
      (fun cred ~dir name ->
        nfs_call ~cred ~proc:proc_remove enc_diropargs (dir, name) (dec_res dec_unit_ok));
    fs_rmdir =
      (fun cred ~dir name ->
        nfs_call ~cred ~proc:proc_rmdir enc_diropargs (dir, name) (dec_res dec_unit_ok));
    fs_rename =
      (fun cred ~from_dir ~from_name ~to_dir ~to_name ->
        nfs_call ~cred ~proc:proc_rename enc_rename_args (from_dir, from_name, to_dir, to_name)
          (dec_res dec_unit_ok));
    fs_link =
      (fun cred ~target ~dir name ->
        nfs_call ~cred ~proc:proc_link enc_link_args (target, dir, name) (dec_res dec_fattr));
    fs_readdir =
      (fun cred h -> nfs_call ~cred ~proc:proc_readdirplus enc_fh h (dec_res dec_readdir_ok));
    fs_commit =
      (fun cred h -> nfs_call ~cred ~proc:proc_commit enc_read_args (h, 0, 0) (dec_res dec_unit_ok));
    fs_fsstat = (fun cred h -> nfs_call ~cred ~proc:proc_fsstat enc_fh h (dec_res dec_fsstat_ok));
  }

(* The windowed READ path (readahead): its own xid space, so pipelined
   traffic can never collide with the sync (base 1) or async (base 1e8)
   clients, and its own Rpc_mux over the measured exchange.  No
   retransmission here — a fault raises out of the await thunk, and the
   caller (Cachefs) falls back to the synchronous path, whose retry
   machinery recovers; READs are idempotent, so the abandoned xid is
   harmless. *)
let read_pipeline ?obs ~(window : int) ~(depth : int) (net : Simnet.t)
    ~(proto : Costmodel.transport_proto) ~(machine : string) (conn : Simnet.conn) :
    Fs_intf.pipeline =
  let costs = Simnet.costs net in
  let enc = Xdr.make_enc () in
  let xid = ref 200_000_000 in
  let mux =
    Rpc_mux.create ?obs ~window ~clock:(Simnet.clock net)
      ~wire_us:(fun bytes -> Costmodel.transfer_us costs proto bytes)
      ~latency_us:(Costmodel.rpc_fixed_us costs proto)
      ~op_us:costs.Costmodel.pipeline_nfs_op_us
      ~exchange:(fun msg ->
        let reply, server_us = Simnet.call_measured conn msg in
        {
          Rpc_mux.c_payload = reply;
          c_server_us = server_us;
          c_wire_bytes = String.length reply;
          c_crypto_us = 0.0 (* clear transport *);
          c_claim_us = 0.0;
        })
      ()
  in
  let pl_submit cred h ~off ~count =
    let this_xid = !xid in
    incr xid;
    let t0 = Sfs_net.Simclock.now_us (Simnet.clock net) in
    (* sfslint: allow SL012 — the open span is handed to Rpc_mux.submit via ~info, which closes it at the op's ready time (or at submit time on a failed exchange) *)
    let os = Obs.span_begin obs ~cat:"op" "read" in
    let trace, span =
      match Obs.open_ctx os with Some cx -> (cx.Obs.cx_trace, cx.Obs.cx_span) | None -> (0, 0)
    in
    let msg =
      Sunrpc.msg_to_string ~enc
        (Sunrpc.Call
           {
             Sunrpc.xid = this_xid;
             prog = Nfs_proto.prog;
             vers = Nfs_proto.vers;
             proc = Nfs_proto.proc_read;
             trace;
             span;
             cred = rpc_auth_of_cred machine cred;
             args = Xdr.encode Nfs_proto.enc_read_args (h, off, count);
           })
    in
    let info =
      {
        Rpc_mux.ci_op = "read";
        ci_t0_us = t0;
        ci_crypto_up_us = 0.0;
        ci_crypto_up_ctr = 0;
        ci_span = os;
      }
    in
    match Rpc_mux.submit ~info mux ~wire_bytes:(String.length msg) msg with
    | ticket ->
        Some
          (fun () ->
            let reply = Rpc_mux.await mux ticket in
            match Sunrpc.msg_of_string reply with
            | Ok (Sunrpc.Reply r) when r.Sunrpc.reply_xid = this_xid || r.Sunrpc.reply_xid = 0 -> (
                match r.Sunrpc.body with
                | Sunrpc.Success results -> (
                    (* Slice decode: the block cache keeps a view into
                       [results] instead of a copied-out string. *)
                    match Xdr.run results (Nfs_proto.dec_res Nfs_proto.dec_read_ok_slice) with
                    | Ok v -> v
                    | Result.Error e -> raise (Rpc_failure ("unparsable result: " ^ e)))
                | _ -> raise (Rpc_failure "pipelined read rejected"))
            | _ -> raise (Rpc_failure "pipelined read: bad reply"))
    | exception Simnet.Timeout -> None
  in
  { Fs_intf.pl_depth = depth; pl_submit }

(* Dial an NFS server over the simulated network and mount its export.
   Three xid spaces share the connection: sync calls (metadata and the
   retry path) start at 1, write-behind WRITEs at 1e8 over the async
   path, and the windowed READ path (built when [window]/[readahead]
   are non-trivial) at 2e8.  [stall] models FreeBSD's suboptimal
   kernel NFS-over-TCP (paper section 4.1): requests spanning multiple
   TCP segments hit delayed-ACK/Nagle stalls — the pathology behind
   NFS 3 (TCP)'s poor showing on write-heavy workloads. *)
let mount ?retry ?obs ?(window = 1) ?(readahead = 0) (net : Simnet.t) ~(from_host : string)
    ~(addr : string) ~(proto : Costmodel.transport_proto) ~(cred : Simos.cred) :
    Fs_intf.ops * Fs_intf.pipeline option =
  let conn = Simnet.connect net ~from_host ~addr ~port:2049 ~proto in
  let client ~xid send = { send; xid; machine = from_host; enc = Xdr.make_enc (); retry; obs } in
  (* sfslint: allow SL010 — MOUNT, metadata and sync ops keep NFS RPC semantics; READs pipeline, WRITEs go async *)
  let sync_send b = Simnet.call conn b in
  let root =
    let results =
      call_raw (client ~xid:1 sync_send) ~cred ~prog:Nfs_proto.mount_prog
        ~vers:Nfs_proto.mount_vers ~proc:Nfs_proto.mount_proc_mnt ""
    in
    match Xdr.run results dec_fh with
    | Ok h -> h
    | Result.Error e -> raise (Rpc_failure ("bad mount reply: " ^ e))
  in
  let costs = Simnet.costs net in
  let stall =
    match proto with
    | Costmodel.Udp -> fun _ -> ()
    | Costmodel.Tcp ->
        fun bytes ->
          if bytes > costs.Costmodel.mss_bytes then
            Sfs_net.Simclock.advance (Simnet.clock net) costs.Costmodel.nfs_tcp_stall_us
  in
  let sync = client ~xid:1 sync_send in
  let async_t = client ~xid:100_000_000 (fun b -> Simnet.call_async conn b) in
  let ops =
    generic_ops
      (fun ~cred ~proc ~async args ->
        stall (String.length args);
        call_raw (if async then async_t else sync) ~cred ~prog:Nfs_proto.prog ~vers:Nfs_proto.vers
          ~proc args)
      ~root
  in
  let pipeline =
    if window > 1 && readahead > 0 then
      Some (read_pipeline ?obs ~window ~depth:readahead net ~proto ~machine:from_host conn)
    else None
  in
  (ops, pipeline)

(** NFS 3 client: [Fs_intf.ops] over Sun RPC, plus the generic
    procedure-marshaling layer that the SFS client reuses over its
    secure channel. *)

open Nfs_types
module Simos = Sfs_os.Simos
module Simnet = Sfs_net.Simnet

exception Rpc_failure of string

type retry
(** Per-call timeout discipline: a [Simnet.Timeout] (or a garbled
    reply) retransmits the {e same} xid after a capped exponential
    backoff, so the server's duplicate request cache keeps retried
    non-idempotent procedures harmless.  RPC-level rejections are
    permanent and never retried.  Retries bump [recover.rpc_retry];
    exhausting the budget bumps [recover.rpc_giveup] and raises
    {!Rpc_failure}. *)

val retry_policy :
  ?attempts:int ->
  ?base_us:float ->
  ?max_us:float ->
  ?obs:Sfs_obs.Obs.registry ->
  charge:(float -> unit) ->
  unit ->
  retry
(** [attempts] (default 8) counts the first transmission; backoff for
    attempt [i] is [min (base_us * 2^i) max_us] (defaults 20ms base,
    800ms cap), billed to the simulated clock via [charge]. *)

type raw_call = cred:Simos.cred -> proc:int -> async:bool -> string -> string
(** A procedure-level transport.  [async] marks write-behind traffic
    (unstable WRITEs), which implementations may pipeline. *)

val generic_ops : raw_call -> root:fh -> Fs_intf.ops
(** NFS 3 procedures marshaled over any raw transport — the shared core
    of this client and the SFS client. *)

val mount :
  ?retry:retry ->
  ?obs:Sfs_obs.Obs.registry ->
  ?window:int ->
  ?readahead:int ->
  Simnet.t ->
  from_host:string ->
  addr:string ->
  proto:Sfs_net.Costmodel.transport_proto ->
  cred:Simos.cred ->
  Fs_intf.ops * Fs_intf.pipeline option
(** Dial an NFS server on the simulated network and mount its export.
    Metadata and stable calls are synchronous; unstable WRITEs take the
    write-behind path; over TCP, requests larger than one segment pay
    the FreeBSD NFS-over-TCP stall (paper section 4.1).  With [obs],
    calls carry the current trace context ({!Sfs_obs.Obs.current}) in
    the Sun RPC trace annex, so server-side spans attach to the causing
    client op.

    When [window > 1] and [readahead > 0] (defaults are the trivial
    1/0), also returns the windowed READ path for {!Cachefs.create}'s
    [pipeline]: its own {!Rpc_mux} and xid space, [readahead] blocks
    deep.  It does not retransmit: a fault raises out of the await
    thunk and the caller falls back to the synchronous path's recovery
    (READs are idempotent, so abandoned xids are harmless). *)

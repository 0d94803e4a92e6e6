open Sfs_core
module Simos = Sfs_os.Simos
module Simclock = Sfs_net.Simclock
module Simnet = Sfs_net.Simnet
module Memfs = Sfs_nfs.Memfs
module Nfs_types = Sfs_nfs.Nfs_types
module Fs_intf = Sfs_nfs.Fs_intf
module Memfs_ops = Sfs_nfs.Memfs_ops
module Diskmodel = Sfs_nfs.Diskmodel
module Rabin = Sfs_crypto.Rabin
module Prng = Sfs_crypto.Prng
module Hostid = Sfs_proto.Hostid

let rng = Prng.create [ "core-test" ]
let key_a = lazy (Rabin.generate ~bits:512 rng)
let key_b = lazy (Rabin.generate ~bits:512 rng)

(* --- Pathnames --- *)

let test_pathname_roundtrip () =
  let sk = Lazy.force key_a in
  let p = Pathname.of_server ~location:"sfs.lcs.mit.edu" ~pubkey:sk.Rabin.pub in
  let s = Pathname.to_string p in
  Testkit.check_bool "prefix" true (String.length s > 5 && String.sub s 0 5 = "/sfs/");
  (match Pathname.of_string s with
  | Some (p', rest) ->
      Testkit.check_bool "roundtrip" true (Pathname.equal p p');
      Alcotest.(check (list string)) "no rest" [] rest
  | None -> Alcotest.fail "parse failed");
  (match Pathname.of_string (s ^ "/a/b/c") with
  | Some (p', rest) ->
      Testkit.check_bool "with rest" true (Pathname.equal p p');
      Alcotest.(check (list string)) "components" [ "a"; "b"; "c" ] rest
  | None -> Alcotest.fail "parse with rest failed");
  Testkit.check_bool "bad name" true (Pathname.of_name "nocolonhere" = None);
  Testkit.check_bool "bad base32" true (Pathname.of_name "host:l1o0l1o0" = None);
  Testkit.check_bool "not sfs" true (Pathname.of_string "/usr/local" = None);
  (* The name encodes exactly 32 base-32 characters of HostID. *)
  let name = Pathname.to_name p in
  (match String.rindex_opt name ':' with
  | Some i -> Testkit.check_int "b32 width" 32 (String.length name - i - 1)
  | None -> Alcotest.fail "no colon")

(* --- File handle crypto --- *)

let test_fhcrypt () =
  let f = Fhcrypt.create (String.make 20 'k') in
  List.iter
    (fun inner ->
      match Fhcrypt.decrypt f (Fhcrypt.encrypt f inner) with
      | Some got -> Testkit.check_string "roundtrip" inner got
      | None -> Alcotest.fail "decrypt failed")
    [ "1"; "12345"; String.make 40 'x'; "" ];
  (* Tampering any byte must be rejected, not produce a wrong handle. *)
  let wire = Fhcrypt.encrypt f "inode-42" in
  for i = 0 to String.length wire - 1 do
    let tampered = Bytes.of_string wire in
    Bytes.set tampered i (Char.chr (Char.code (Bytes.get tampered i) lxor 1));
    match Fhcrypt.decrypt f (Bytes.to_string tampered) with
    | Some got -> Testkit.check_bool "forged handle" false (got <> "inode-42")
    | None -> ()
  done;
  (* Guessing: a plain inode number is not a valid wire handle. *)
  Testkit.check_bool "guess rejected" true (Fhcrypt.decrypt f "42" = None);
  (* Different keys produce incompatible handles. *)
  let f2 = Fhcrypt.create (String.make 20 'j') in
  Testkit.check_bool "cross-key" true (Fhcrypt.decrypt f2 wire = None)

(* --- Revocation certificates --- *)

let test_revocation () =
  let sk = Lazy.force key_a in
  let cert = Revocation.make ~key:sk ~location:"old.example.com" Revocation.Revoke in
  Testkit.check_bool "valid" true (Revocation.valid cert);
  let path = Pathname.of_server ~location:"old.example.com" ~pubkey:sk.Rabin.pub in
  Testkit.check_bool "applies" true (Revocation.applies_to cert path);
  (* Another path (same key, other location) is unaffected. *)
  let other = Pathname.of_server ~location:"new.example.com" ~pubkey:sk.Rabin.pub in
  Testkit.check_bool "scoped" false (Revocation.applies_to cert other);
  (* Serialization roundtrip, self-authenticating check. *)
  (match Revocation.check_for path (Revocation.to_string cert) with
  | Some Revocation.Revoke -> ()
  | _ -> Alcotest.fail "roundtrip check");
  (* A certificate signed by the wrong key is invalid. *)
  let wrong = Lazy.force key_b in
  let forged = Revocation.make ~key:wrong ~location:"old.example.com" Revocation.Revoke in
  Testkit.check_bool "forged cert applies to its own key only" false
    (Revocation.applies_to forged path);
  (* Forwarding pointers parse and carry the new path. *)
  let fwd = Revocation.make ~key:sk ~location:"old.example.com" (Revocation.Forward other) in
  match Revocation.check_for path (Revocation.to_string fwd) with
  | Some (Revocation.Forward p) -> Testkit.check_bool "forward target" true (Pathname.equal p other)
  | _ -> Alcotest.fail "forward roundtrip"

(* --- A complete world --- *)

type world = {
  clock : Simclock.t;
  net : Simnet.t;
  server_fs : Memfs.t;
  server : Server.t;
  authserv : Authserv.t;
  client : Client.t;
  vfs : Vfs.t;
  alice : Simos.user;
  alice_agent : Agent.t;
  alice_key : Rabin.priv;
  os : Simos.t;
}

let make_world ?(register_alice = true) () =
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  let host = Simnet.add_host net "server.example.com" in
  let _client_host = Simnet.add_host net "client.example.com" in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let os = Simos.create () in
  let alice = Simos.add_user os "alice" in
  let server_fs = Memfs.create ~now () in
  let disk = Diskmodel.create clock in
  let backend = Memfs_ops.make ~fs:server_fs ~disk in
  let root_cred = Simos.cred_of_user Simos.root_user in
  (match Memfs.mkdir server_fs root_cred ~dir:Memfs.root_id "home" ~mode:0o777 with
  | Ok _ -> ()
  | Error _ -> assert false);
  let server_key = Lazy.force key_a in
  let authserv = Authserv.create rng in
  Authserv.add_user authserv ~user:"alice" ~cred:(Simos.cred_of_user alice);
  let alice_key = Rabin.generate ~bits:512 rng in
  if register_alice then
    (match Authserv.register_pubkey authserv ~user:"alice" alice_key.Rabin.pub with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
  let server =
    Server.create net ~host ~location:"server.example.com" ~key:server_key ~rng ~backend ~authserv ()
  in
  let client = Client.create net ~from_host:"client.example.com" ~rng () in
  let client_fs = Memfs.create ~now () in
  (* A permissive client root so unprivileged users can make links. *)
  (match Memfs.setattr client_fs root_cred Memfs.root_id
           { Nfs_types.sattr_empty with Nfs_types.set_mode = Some 0o777 } with
  | Ok _ -> ()
  | Error _ -> assert false);
  let client_disk = Diskmodel.create clock in
  let vfs = Vfs.make ~sfscd:client ~clock ~root_fs:(Memfs_ops.make ~fs:client_fs ~disk:client_disk) () in
  let alice_agent = Agent.create ~now_us:(fun () -> Simclock.now_us clock) alice in
  Agent.add_key alice_agent alice_key;
  Vfs.set_agent vfs ~uid:alice.Simos.uid alice_agent;
  { clock; net; server_fs; server; authserv; client; vfs; alice; alice_agent; alice_key; os }

let vok msg = function Ok v -> v | Error e -> Alcotest.fail (msg ^ ": " ^ Vfs.verror_to_string e)
let vexpect msg = function
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (msg ^ ": unexpectedly succeeded")

let test_end_to_end_rw () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let base = Pathname.to_string (Server.self_path w.server) in
  (* Write and read back through the full stack: VFS -> automount ->
     keyneg -> channel -> sfssd -> NFS backend. *)
  vok "mkdir" (Vfs.mkdir w.vfs cred (base ^ "/home/alice"));
  vok "write" (Vfs.write_file w.vfs cred (base ^ "/home/alice/notes.txt") "self-certifying!");
  Testkit.check_string "read back" "self-certifying!"
    (vok "read" (Vfs.read_file w.vfs cred (base ^ "/home/alice/notes.txt")));
  (* Attributes and listing. *)
  let attr = vok "stat" (Vfs.stat w.vfs cred (base ^ "/home/alice/notes.txt")) in
  Testkit.check_int "size" 16 attr.Nfs_types.size;
  Testkit.check_bool "lease stamped" true (attr.Nfs_types.lease > 0);
  Alcotest.(check (list string)) "ls" [ "alice" ] (vok "readdir" (Vfs.readdir w.vfs cred (base ^ "/home")));
  (* The user is authenticated: files are owned by alice's uid. *)
  Testkit.check_int "owner" w.alice.Simos.uid attr.Nfs_types.uid

let test_wrong_hostid_rejected () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  (* A pathname naming the same location with a different HostID (e.g.
     distributed by an attacker) must not resolve. *)
  let wrong = Lazy.force key_b in
  let bad = Pathname.of_server ~location:"server.example.com" ~pubkey:wrong.Rabin.pub in
  vexpect "wrong hostid" (Vfs.read_file w.vfs cred (Pathname.to_string bad ^ "/home"));
  (* A pathname for a host that does not exist fails cleanly. *)
  let sk = Lazy.force key_a in
  let ghost = Pathname.of_server ~location:"ghost.example.com" ~pubkey:sk.Rabin.pub in
  vexpect "no such host" (Vfs.readdir w.vfs cred (Pathname.to_string ghost))

let test_anonymous_vs_authenticated () =
  let w = make_world () in
  let bob = Simos.add_user w.os "bob" in
  let bob_cred = Simos.cred_of_user bob in
  (* Bob has no agent and no account: anonymous access only. *)
  let base = Pathname.to_string (Server.self_path w.server) in
  let alice_cred = Simos.cred_of_user w.alice in
  vok "alice mkdir" (Vfs.mkdir w.vfs alice_cred ~mode:0o700 (base ^ "/home/private"));
  vok "alice write" (Vfs.write_file w.vfs alice_cred (base ^ "/home/private/secret") "k");
  vexpect "bob denied" (Vfs.read_file w.vfs bob_cred (base ^ "/home/private/secret"));
  (* Unlike plain NFS, credentials cannot be forged from another
     machine: a client whose local user has alice's numeric uid — but
     not her key — is mapped to anonymous by the server. *)
  let mallory_client = Client.create w.net ~from_host:"evil.example.com" ~rng () in
  let now () = Nfs_types.time_of_us (Simclock.now_us w.clock) in
  let mallory_fs = Memfs.create ~now () in
  let mallory_disk = Diskmodel.create w.clock in
  let vfs2 =
    Vfs.make ~sfscd:mallory_client ~clock:w.clock
      ~root_fs:(Memfs_ops.make ~fs:mallory_fs ~disk:mallory_disk) ()
  in
  let mallory = { Simos.name = "mallory"; uid = w.alice.Simos.uid; gid = w.alice.Simos.gid; groups = [] } in
  let mallory_agent = Agent.create mallory in
  Agent.add_key mallory_agent (Rabin.generate ~bits:512 rng) (* not alice's key *);
  Vfs.set_agent vfs2 ~uid:mallory.Simos.uid mallory_agent;
  vexpect "forged uid useless over SFS"
    (Vfs.read_file vfs2 (Simos.cred_of_user mallory) (base ^ "/home/private/secret"))

let test_sfs_dir_per_user_view () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let bob = Simos.add_user w.os "bob" in
  let bob_agent = Agent.create bob in
  Vfs.set_agent w.vfs ~uid:bob.Simos.uid bob_agent;
  let bob_cred = Simos.cred_of_user bob in
  let base = Pathname.to_string (Server.self_path w.server) in
  ignore (vok "alice visits" (Vfs.readdir w.vfs cred base));
  (* Alice sees her visited entry; bob sees nothing (the filename-
     completion defence of section 2.3). *)
  let name = Pathname.to_name (Server.self_path w.server) in
  Alcotest.(check (list string)) "alice view" [ name ] (vok "alice ls" (Vfs.readdir w.vfs cred "/sfs"));
  Alcotest.(check (list string)) "bob view" [] (vok "bob ls" (Vfs.readdir w.vfs bob_cred "/sfs"))

let test_agent_links_and_secure_links () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let path = Server.self_path w.server in
  let base = Pathname.to_string path in
  (* Agent link: /sfs/work -> self-certifying pathname. *)
  Agent.add_link w.alice_agent ~name:"work" ~target:base;
  vok "via agent link" (Vfs.write_file w.vfs cred "/sfs/work/home/via-link" "hello");
  Testkit.check_string "read via real path" "hello"
    (vok "read" (Vfs.read_file w.vfs cred (base ^ "/home/via-link")));
  (* Secure link: a symlink on the SFS file system pointing to /sfs. *)
  vok "secure link" (Vfs.symlink w.vfs cred ~target:(base ^ "/home") (base ^ "/home/loop"));
  Testkit.check_string "follows secure link" "hello"
    (vok "read2" (Vfs.read_file w.vfs cred (base ^ "/home/loop/via-link")));
  (* Local-disk manual link. *)
  vok "manual" (Keymgmt.manual_link w.vfs cred ~link:"/work" path);
  Testkit.check_string "via manual link" "hello"
    (vok "read3" (Vfs.read_file w.vfs cred "/work/home/via-link"))

let test_symlink_loop_detected () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  vok "a->b" (Vfs.symlink w.vfs cred ~target:"/b" "/a");
  vok "b->a" (Vfs.symlink w.vfs cred ~target:"/a" "/b");
  match Vfs.read_file w.vfs cred "/a" with
  | Error Vfs.Symlink_loop -> ()
  | Error e -> Alcotest.fail (Vfs.verror_to_string e)
  | Ok _ -> Alcotest.fail "loop not detected"

let test_revoked_server_blocks_mount () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let base = Pathname.to_string (Server.self_path w.server) in
  (* Works before revocation (fresh mount each world). *)
  vok "pre-revocation" (Vfs.mkdir w.vfs cred (base ^ "/home/pre"));
  (* The owner revokes; new clients connecting get the certificate. *)
  ignore (Server.revoke w.server);
  let client2 = Client.create w.net ~from_host:"other.example.com" ~rng () in
  (match Client.mount client2 (Server.self_path w.server) with
  | Error (Client.Revoked (Some served)) ->
      Testkit.check_bool "revoke body" true (Revocation.body_of served = Revocation.Revoke)
  | Error e -> Alcotest.fail ("unexpected: " ^ Client.mount_error_to_string e)
  | Ok _ -> Alcotest.fail "mounted a revoked pathname")

let test_agent_revocation_and_blocking () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let path = Server.self_path w.server in
  let base = Pathname.to_string path in
  (* The agent learns a revocation certificate (e.g. from a revocation
     directory): access is denied before any network traffic. *)
  let cert = Revocation.make ~key:(Lazy.force key_a) ~location:"server.example.com" Revocation.Revoke in
  Testkit.check_bool "learned" true (Agent.learn_revocation w.alice_agent cert);
  (match Vfs.read_file w.vfs cred (base ^ "/home/x") with
  | Error Vfs.Revoked_by_agent -> ()
  | Error e -> Alcotest.fail (Vfs.verror_to_string e)
  | Ok _ -> Alcotest.fail "agent revocation ignored");
  (* A tampered certificate is not learned: flip a byte in the signed
     region and reparse. *)
  let genuine = Revocation.make ~key:(Lazy.force key_b) ~location:"elsewhere.com" Revocation.Revoke in
  let bytes = Bytes.of_string (Revocation.to_string genuine) in
  Bytes.set bytes 8 (Char.chr (Char.code (Bytes.get bytes 8) lxor 1));
  (match Revocation.of_string (Bytes.to_string bytes) with
  | Some forged -> Testkit.check_bool "forged rejected" false (Agent.learn_revocation w.alice_agent forged)
  | None -> () (* unparsable is equally rejected *));
  (* HostID blocking is per-user: bob can still access. *)
  let w2 = make_world () in
  let bob = Simos.add_user w2.os "bob" in
  let bob_agent = Agent.create bob in
  Vfs.set_agent w2.vfs ~uid:bob.Simos.uid bob_agent;
  Agent.block_hostid bob_agent (Pathname.hostid path);
  (match Vfs.readdir w2.vfs (Simos.cred_of_user bob) (Pathname.to_string (Server.self_path w2.server)) with
  | Error Vfs.Blocked_by_agent -> ()
  | Error e -> Alcotest.fail (Vfs.verror_to_string e)
  | Ok _ -> Alcotest.fail "block ignored");
  ignore (vok "alice unaffected" (Vfs.readdir w2.vfs (Simos.cred_of_user w2.alice)
                                    (Pathname.to_string (Server.self_path w2.server))))

let test_sfskey_password_flow () =
  let w = make_world ~register_alice:false () in
  (* Server side: alice registers with her password (as if logged in). *)
  Sfskey.register_local ~cost:2 w.authserv rng ~user:"alice" ~password:"correct horse"
    ~key:w.alice_key;
  (* Travelling user: fresh agent knowing only location + password. *)
  let travel_agent = Agent.create w.alice in
  (match
     Sfskey.add w.net rng travel_agent ~from_host:"laptop.example.com" ~location:"server.example.com"
       ~user:"alice" ~password:"correct horse"
   with
  | Error e -> Alcotest.fail (Sfskey.error_to_string e)
  | Ok path ->
      Testkit.check_bool "got the right path" true (Pathname.equal path (Server.self_path w.server));
      (* The agent now holds the private key fetched in encrypted form. *)
      Testkit.check_int "key installed" 1 (List.length (Agent.keys travel_agent));
      (* And the /sfs/server.example.com link works. *)
      Alcotest.(check (list string)) "agent link" [ "server.example.com" ]
        (List.map fst (Agent.links travel_agent)));
  (* Wrong password: no information, a logged failure. *)
  (match
     Sfskey.add w.net rng (Agent.create w.alice) ~from_host:"laptop.example.com"
       ~location:"server.example.com" ~user:"alice" ~password:"wrong"
   with
  | Error (Sfskey.Auth_failed _) -> ()
  | Error e -> Alcotest.fail (Sfskey.error_to_string e)
  | Ok _ -> Alcotest.fail "wrong password accepted");
  Testkit.check_bool "failure logged" true (List.length (Authserv.failed_attempts w.authserv) > 0)

let test_sfskey_agent_integration () =
  (* The full travelling-user scenario: password -> path + key -> agent
     -> transparent authenticated access. *)
  let w = make_world ~register_alice:false () in
  Sfskey.register_local ~cost:2 w.authserv rng ~user:"alice" ~password:"pw" ~key:w.alice_key;
  let agent = Agent.create w.alice in
  (match
     Sfskey.add w.net rng agent ~from_host:"client.example.com" ~location:"server.example.com"
       ~user:"alice" ~password:"pw"
   with
  | Error e -> Alcotest.fail (Sfskey.error_to_string e)
  | Ok _ -> ());
  Vfs.set_agent w.vfs ~uid:w.alice.Simos.uid agent;
  let cred = Simos.cred_of_user w.alice in
  (* Access through the human-readable agent link; authentication rides
     the key sfskey downloaded. *)
  vok "write" (Vfs.write_file w.vfs cred "/sfs/server.example.com/home/trip-report" "worked");
  let attr = vok "stat" (Vfs.stat w.vfs cred "/sfs/server.example.com/home/trip-report") in
  Testkit.check_int "authenticated as alice" w.alice.Simos.uid attr.Nfs_types.uid

let test_certification_path () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let path = Server.self_path w.server in
  (* A local certification directory with a link: verisign-style CA on
     local disk. *)
  vok "mkdir" (Vfs.mkdir w.vfs cred "/certs");
  vok "link" (Vfs.symlink w.vfs cred ~target:(Pathname.to_string path) "/certs/work");
  Keymgmt.install_certification_path w.alice_agent w.vfs [ "/certs" ];
  (* Now /sfs/work resolves through the certification path. *)
  vok "resolved" (Vfs.mkdir w.vfs cred "/sfs/work/home/from-certpath");
  ignore (vok "check" (Vfs.stat w.vfs cred (Pathname.to_string path ^ "/home/from-certpath")))

let test_pki_gateway () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let sk = Lazy.force key_a in
  (* An "SSL-certificate" oracle mapping hostnames to keys. *)
  Keymgmt.install_pki_gateway w.alice_agent ~prefix:"ssl:" ~lookup:(fun host ->
      if host = "server.example.com" then Some ("server.example.com", sk.Rabin.pub) else None);
  vok "via pki" (Vfs.mkdir w.vfs cred "/sfs/ssl:server.example.com/home/pki-dir");
  vexpect "unknown host" (Vfs.readdir w.vfs cred "/sfs/ssl:unknown.example.com")

let test_bookmark () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let base = Pathname.to_string (Server.self_path w.server) in
  vok "bookmarks dir" (Vfs.mkdir w.vfs cred "/bookmarks");
  (match Keymgmt.bookmark w.vfs cred ~bookmarks_dir:"/bookmarks" ~cwd:(base ^ "/home") with
  | Ok link -> Testkit.check_string "named by location" "/bookmarks/server.example.com" link
  | Error e -> Alcotest.fail (Vfs.verror_to_string e));
  (* cd through the bookmark. *)
  ignore (vok "resolves" (Vfs.readdir w.vfs cred "/bookmarks/server.example.com"))

(* --- Split keys (section 2.5.1) --- *)

let test_keysplit_roundtrip () =
  let key = Lazy.force key_a in
  let shares = Keysplit.split rng key ~n:3 in
  Testkit.check_int "three shares" 3 (List.length shares);
  (match Keysplit.combine shares with
  | Some k -> Testkit.check_bool "roundtrip" true (Rabin.pub_equal k.Rabin.pub key.Rabin.pub)
  | None -> Alcotest.fail "combine failed");
  (* Any proper subset is useless. *)
  Testkit.check_bool "two of three insufficient" true (Keysplit.combine (List.tl shares) = None);
  Testkit.check_bool "single share insufficient" true (Keysplit.combine [ List.hd shares ] = None);
  (* No share equals (or parses as) the key itself. *)
  List.iter
    (fun s ->
      Testkit.check_bool "share is not the key" true
        (Rabin.priv_of_string s.Keysplit.bytes = None))
    shares;
  (* Proactive refresh: same key, incompatible shares. *)
  (match Keysplit.refresh rng shares with
  | Some fresh ->
      (match Keysplit.combine fresh with
      | Some k -> Testkit.check_bool "refreshed key same" true (Rabin.pub_equal k.Rabin.pub key.Rabin.pub)
      | None -> Alcotest.fail "refresh combine");
      let mixed = List.hd fresh :: List.tl shares in
      (match Keysplit.combine mixed with
      | None -> ()
      | Some k ->
          Testkit.check_bool "mixed epochs do not reconstruct" false
            (Rabin.pub_equal k.Rabin.pub key.Rabin.pub))
  | None -> Alcotest.fail "refresh failed");
  (* Serialization. *)
  let s0 = List.hd shares in
  match Keysplit.share_of_string (Keysplit.share_to_string s0) with
  | Some s -> Testkit.check_bool "share roundtrip" true (s = s0)
  | None -> Alcotest.fail "share serialization"

let test_split_key_agent () =
  (* The agent holds one share; the authserver holds the other.  The
     agent never stores the whole key, yet authentication works. *)
  let w = make_world ~register_alice:false () in
  (match Authserv.register_pubkey w.authserv ~user:"alice" w.alice_key.Rabin.pub with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Keysplit.split rng w.alice_key ~n:2 with
  | [ agent_share; server_share ] ->
      (match
         Authserv.register_key_share w.authserv ~user:"alice"
           (Keysplit.share_to_string server_share)
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let agent = Agent.create w.alice in
      Agent.add_split_key agent ~local:agent_share ~fetch_rest:(fun () ->
          match Option.bind (Authserv.key_share w.authserv ~user:"alice") Keysplit.share_of_string with
          | Some s -> [ s ]
          | None -> []);
      Testkit.check_bool "agent holds no direct key" true (Agent.keys agent = []);
      Vfs.set_agent w.vfs ~uid:w.alice.Simos.uid agent;
      let cred = Simos.cred_of_user w.alice in
      let base = Pathname.to_string (Server.self_path w.server) in
      vok "split-key write" (Vfs.write_file w.vfs cred (base ^ "/home/split") "signed via shares");
      let attr = vok "stat" (Vfs.stat w.vfs cred (base ^ "/home/split")) in
      Testkit.check_int "authenticated" w.alice.Simos.uid attr.Nfs_types.uid;
      Testkit.check_bool "signing audited" true (List.length (Agent.audit_trail agent) > 0)
  | _ -> Alcotest.fail "expected two shares"

(* --- Proxy agents (section 2.5.1) --- *)

let test_proxy_agent () =
  (* The remote-login scenario: the user's real agent runs at home; the
     agent on the remote machine holds no keys and forwards signing
     requests. *)
  let w = make_world () in
  let home_agent = w.alice_agent in
  let remote_agent = Agent.create w.alice in
  Agent.add_proxy remote_agent ~name:"home" (Agent.forwarder home_agent);
  Testkit.check_bool "remote agent has no keys" true (Agent.keys remote_agent = []);
  Vfs.set_agent w.vfs ~uid:w.alice.Simos.uid remote_agent;
  let cred = Simos.cred_of_user w.alice in
  let base = Pathname.to_string (Server.self_path w.server) in
  vok "proxied write" (Vfs.write_file w.vfs cred (base ^ "/home/proxied") "signed at home");
  let attr = vok "stat" (Vfs.stat w.vfs cred (base ^ "/home/proxied")) in
  Testkit.check_int "authenticated via proxy" w.alice.Simos.uid attr.Nfs_types.uid;
  (* The home agent audited the operation it performed for the proxy. *)
  Testkit.check_bool "home agent audit trail" true (List.length (Agent.audit_trail home_agent) > 0);
  (* A proxy to a dead agent degrades to anonymous access, not failure. *)
  let dead_proxy = Agent.create w.alice in
  Agent.add_proxy dead_proxy ~name:"gone" (fun _ ~seqno:_ -> None);
  let w2 = make_world () in
  Vfs.set_agent w2.vfs ~uid:w2.alice.Simos.uid dead_proxy;
  let base2 = Pathname.to_string (Server.self_path w2.server) in
  match Vfs.stat w2.vfs (Simos.cred_of_user w2.alice) (base2 ^ "/home") with
  | Ok attr -> Testkit.check_bool "anonymous read still works" true (attr.Nfs_types.ftype = Nfs_types.NF_DIR)
  | Error e -> Alcotest.fail (Vfs.verror_to_string e)

(* --- VFS path-resolution edge cases --- *)

let test_vfs_dotdot_and_relative_links () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  vok "mkdirs" (Vfs.mkdir w.vfs cred "/a");
  vok "mkdirs" (Vfs.mkdir w.vfs cred "/a/b");
  vok "write" (Vfs.write_file w.vfs cred "/a/target.txt" "found me");
  (* Relative symlink with dotdot. *)
  vok "rel link" (Vfs.symlink w.vfs cred ~target:"../target.txt" "/a/b/up");
  Testkit.check_string "follows ../" "found me" (vok "read" (Vfs.read_file w.vfs cred "/a/b/up"));
  (* Lexical dotdot in the path itself. *)
  Testkit.check_string "path dotdot" "found me"
    (vok "read2" (Vfs.read_file w.vfs cred "/a/b/../target.txt"));
  (* Dotdot above the root stays at the root. *)
  ignore (vok "above root" (Vfs.readdir w.vfs cred "/../../a"));
  (* Dot components are ignored. *)
  Testkit.check_string "dot" "found me" (vok "read3" (Vfs.read_file w.vfs cred "/a/./target.txt"));
  (* lstat does not follow; stat does. *)
  let la = vok "lstat" (Vfs.lstat w.vfs cred "/a/b/up") in
  Testkit.check_bool "lstat sees the link" true (la.Nfs_types.ftype = Nfs_types.NF_LNK);
  let sa = vok "stat" (Vfs.stat w.vfs cred "/a/b/up") in
  Testkit.check_bool "stat follows" true (sa.Nfs_types.ftype = Nfs_types.NF_REG);
  (* Relative paths are rejected. *)
  (match Vfs.read_file w.vfs cred "a/target.txt" with
  | Error Vfs.Not_absolute -> ()
  | _ -> Alcotest.fail "relative path accepted")

let test_vfs_dotdot_across_mount () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  let base = Pathname.to_string (Server.self_path w.server) in
  vok "mkdir remote" (Vfs.mkdir w.vfs cred (base ^ "/home/deep"));
  (* ".." from inside an SFS mount pops back across the automount. *)
  Alcotest.(check (list string)) "dotdot crosses the mount boundary"
    (vok "direct" (Vfs.readdir w.vfs cred base))
    (vok "via dotdot" (Vfs.readdir w.vfs cred (base ^ "/home/deep/../..")))

let test_ssu_maps_root_to_user_agent () =
  (* The ssu utility: operations performed in a super-user shell map to
     the user's own agent (paper footnote 2). *)
  let w = make_world () in
  Vfs.set_agent w.vfs ~uid:0 w.alice_agent;
  let base = Pathname.to_string (Server.self_path w.server) in
  let root_cred = Simos.cred_of_user Simos.root_user in
  vok "root writes via alice's agent" (Vfs.write_file w.vfs root_cred (base ^ "/home/su-file") "x");
  let attr = vok "stat" (Vfs.stat w.vfs root_cred (base ^ "/home/su-file")) in
  (* The server authenticated alice's key: remote identity is alice,
     regardless of the local root uid. *)
  Testkit.check_int "remote identity is alice" w.alice.Simos.uid attr.Nfs_types.uid

let test_agent_hook_ordering () =
  let w = make_world () in
  let cred = Simos.cred_of_user w.alice in
  vok "t1" (Vfs.write_file w.vfs cred "/t1" "first");
  vok "t2" (Vfs.write_file w.vfs cred "/t2" "second");
  (* Static links win over hooks; hooks run in installation order. *)
  Agent.add_hook w.alice_agent ~name:"h1" (fun n -> if n = "x" then Some "/t1" else None);
  Agent.add_hook w.alice_agent ~name:"h2" (fun n -> if n = "x" || n = "y" then Some "/t2" else None);
  Testkit.check_string "first hook wins" "first" (vok "x" (Vfs.read_file w.vfs cred "/sfs/x"));
  Testkit.check_string "later hook reachable" "second" (vok "y" (Vfs.read_file w.vfs cred "/sfs/y"));
  Agent.add_link w.alice_agent ~name:"x" ~target:"/t2";
  Testkit.check_string "static link beats hooks" "second" (vok "x2" (Vfs.read_file w.vfs cred "/sfs/x"));
  Agent.remove_hook w.alice_agent "h2";
  (match Vfs.read_file w.vfs cred "/sfs/y" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "removed hook still resolves")

(* --- authserv SRP protocol misuse --- *)

let test_srp_connection_protocol_errors () =
  let w = make_world ~register_alice:false () in
  Sfskey.register_local ~cost:2 w.authserv rng ~user:"alice" ~password:"pw" ~key:w.alice_key;
  let handler = Authserv.srp_connection w.authserv ~self_cert_path:"/sfs/x:y" in
  let send req = Sfs_xdr.Xdr.run (handler (Sfs_xdr.Xdr.encode Authserv.enc_srp_request req)) Authserv.dec_srp_response in
  (* Proof before hello: protocol error. *)
  (match send (Authserv.Srp_client_proof (String.make 20 'x')) with
  | Ok (Authserv.Srp_failed _) -> ()
  | _ -> Alcotest.fail "out-of-order proof accepted");
  (* Registration before authentication: protocol error. *)
  (match send (Authserv.Srp_register "sealed?") with
  | Ok (Authserv.Srp_failed _) -> ()
  | _ -> Alcotest.fail "unauthenticated registration accepted");
  (* Unknown user: indistinguishable failure, logged. *)
  (match send (Authserv.Srp_hello { user = "nobody"; a_pub = Sfs_bignum.Nat.one }) with
  | Ok (Authserv.Srp_failed reason) ->
      Testkit.check_string "generic failure" "authentication failed" reason
  | _ -> Alcotest.fail "unknown user leaked information");
  Testkit.check_bool "logged" true (List.length (Authserv.failed_attempts w.authserv) > 0);
  (* Garbage bytes get a parse failure, not an exception. *)
  match Sfs_xdr.Xdr.run (handler "garbage") Authserv.dec_srp_response with
  | Ok (Authserv.Srp_failed _) -> ()
  | _ -> Alcotest.fail "garbage not handled"

let test_sfskey_remote_key_change () =
  (* "It allows them to connect over the network with sfskey and change
     their public keys." *)
  let w = make_world ~register_alice:false () in
  Sfskey.register_local ~cost:2 w.authserv rng ~user:"alice" ~password:"pw" ~key:w.alice_key;
  match Sfskey.fetch w.net rng ~from_host:"client.example.com" ~location:"server.example.com"
          ~user:"alice" ~password:"pw" with
  | Error e -> Alcotest.fail (Sfskey.error_to_string e)
  | Ok fetched -> (
      let new_key = Rabin.generate ~bits:512 rng in
      match
        Sfskey.register_remote fetched
          { Authserv.reg_pubkey = Some new_key.Rabin.pub; reg_srp = None; reg_encrypted_key = None }
      with
      | Error e -> Alcotest.fail (Sfskey.error_to_string e)
      | Ok () -> (
          match Authserv.cred_of_pubkey w.authserv new_key.Rabin.pub with
          | Some (user, _) -> Testkit.check_string "new key registered" "alice" user
          | None -> Alcotest.fail "new key not found"))

let test_no_anonymous_server () =
  (* A server configured to refuse anonymous access: unauthenticated
     users can negotiate and fetch the root, but no operation passes. *)
  let clock = Simclock.create () in
  let net = Simnet.create clock in
  let host = Simnet.add_host net "strict.example.com" in
  let _c = Simnet.add_host net "client.example.com" in
  let now () = Nfs_types.time_of_us (Simclock.now_us clock) in
  let os = Simos.create () in
  let alice = Simos.add_user os "alice" in
  let fs = Memfs.create ~now () in
  ignore (Memfs.mkdir fs (Simos.cred_of_user Simos.root_user) ~dir:Memfs.root_id "pub" ~mode:0o777);
  let authserv = Authserv.create rng in
  let akey = Rabin.generate ~bits:512 rng in
  Authserv.add_user authserv ~user:"alice" ~cred:(Simos.cred_of_user alice);
  (match Authserv.register_pubkey authserv ~user:"alice" akey.Rabin.pub with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let server =
    Server.create ~allow_anonymous:false net ~host ~location:"strict.example.com"
      ~key:(Lazy.force key_a) ~rng ~backend:(Memfs_ops.make ~fs ~disk:(Diskmodel.create clock))
      ~authserv ()
  in
  let client = Client.create net ~from_host:"client.example.com" ~rng () in
  let client_fs = Memfs.create ~now () in
  let vfs = Vfs.make ~sfscd:client ~clock ~root_fs:(Memfs_ops.make ~fs:client_fs ~disk:(Diskmodel.create clock)) () in
  let base = Pathname.to_string (Server.self_path server) in
  (* bob: no agent at all -> anonymous -> denied everywhere. *)
  let bob = Simos.add_user os "bob" in
  (match Vfs.readdir vfs (Simos.cred_of_user bob) (base ^ "/pub") with
  | Error (Vfs.Errno Nfs_types.NFS3ERR_ACCES) -> ()
  | Error e -> Alcotest.fail (Vfs.verror_to_string e)
  | Ok _ -> Alcotest.fail "anonymous access allowed on a strict server");
  (* alice with her key: fine. *)
  let agent = Agent.create alice in
  Agent.add_key agent akey;
  Vfs.set_agent vfs ~uid:alice.Simos.uid agent;
  ignore (vok "alice allowed" (Vfs.readdir vfs (Simos.cred_of_user alice) (base ^ "/pub")))

(* A failed read-only mount gives its connection (and so its admission
   slot) back, and a server that refuses the dial is an error value,
   not an exception. *)
let test_readonly_mount_releases_conn () =
  let w = make_world () in
  let host =
    match Simnet.find_host w.net "server.example.com" with
    | Some h -> h
    | None -> Alcotest.fail "no server host"
  in
  Simnet.set_admission host (Some 1);
  let wrong = Lazy.force key_b in
  let bad = Pathname.of_server ~location:"server.example.com" ~pubkey:wrong.Rabin.pub in
  (match Client.mount_readonly w.client bad with
  | Error (Client.Negotiation_failed _) -> ()
  | Error e -> Alcotest.fail (Client.mount_error_to_string e)
  | Ok _ -> Alcotest.fail "wrong HostID mounted");
  let again =
    Simnet.connect w.net ~from_host:"client.example.com" ~addr:"server.example.com"
      ~port:Server.sfs_port ~proto:Sfs_net.Costmodel.Tcp
  in
  Testkit.check_int "second dial admitted" 1 (Simnet.host_active_conns host);
  Simnet.close again;
  Simnet.set_admission host (Some 0);
  match Client.mount_readonly w.client (Server.self_path w.server) with
  | Error (Client.Host_unreachable _) -> ()
  | Error e -> Alcotest.fail (Client.mount_error_to_string e)
  | Ok _ -> Alcotest.fail "mounted past the admission cap"

let suite =
  ( "core",
    [
      Alcotest.test_case "pathname roundtrip" `Quick test_pathname_roundtrip;
      Alcotest.test_case "file handle crypto" `Quick test_fhcrypt;
      Alcotest.test_case "revocation certs" `Quick test_revocation;
      Alcotest.test_case "end-to-end read/write" `Quick test_end_to_end_rw;
      Alcotest.test_case "wrong hostid rejected" `Quick test_wrong_hostid_rejected;
      Alcotest.test_case "anonymous vs authenticated" `Quick test_anonymous_vs_authenticated;
      Alcotest.test_case "/sfs per-user view" `Quick test_sfs_dir_per_user_view;
      Alcotest.test_case "agent and secure links" `Quick test_agent_links_and_secure_links;
      Alcotest.test_case "symlink loops" `Quick test_symlink_loop_detected;
      Alcotest.test_case "server revocation" `Quick test_revoked_server_blocks_mount;
      Alcotest.test_case "agent revocation/blocking" `Quick test_agent_revocation_and_blocking;
      Alcotest.test_case "sfskey password flow" `Quick test_sfskey_password_flow;
      Alcotest.test_case "sfskey travelling user" `Quick test_sfskey_agent_integration;
      Alcotest.test_case "certification paths" `Quick test_certification_path;
      Alcotest.test_case "PKI gateway" `Quick test_pki_gateway;
      Alcotest.test_case "secure bookmarks" `Quick test_bookmark;
      Alcotest.test_case "keysplit roundtrip" `Quick test_keysplit_roundtrip;
      Alcotest.test_case "split-key agent" `Quick test_split_key_agent;
      Alcotest.test_case "proxy agent" `Quick test_proxy_agent;
      Alcotest.test_case "vfs dotdot and relative links" `Quick test_vfs_dotdot_and_relative_links;
      Alcotest.test_case "vfs dotdot across mounts" `Quick test_vfs_dotdot_across_mount;
      Alcotest.test_case "ssu via agent mapping" `Quick test_ssu_maps_root_to_user_agent;
      Alcotest.test_case "agent hook ordering" `Quick test_agent_hook_ordering;
      Alcotest.test_case "srp connection misuse" `Quick test_srp_connection_protocol_errors;
      Alcotest.test_case "sfskey remote key change" `Quick test_sfskey_remote_key_change;
      Alcotest.test_case "anonymous access refused" `Quick test_no_anonymous_server;
      Alcotest.test_case "read-only mount failures release conn" `Quick
        test_readonly_mount_releases_conn;
    ] )

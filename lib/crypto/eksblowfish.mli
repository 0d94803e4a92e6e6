(** Eksblowfish (Provos-Mazières '99): cost-parameterized password
    hashing.  SFS transforms passwords with it before SRP and private-key
    encryption so off-line guessing stays expensive as hardware improves
    (paper section 2.5.2). *)

val setup : cost:int -> salt:string -> key:string -> Blowfish.state
(** The expensive key schedule: [2^cost] extra expansion rounds.
    @raise Invalid_argument unless [0 <= cost <= 31], the salt is 16
    bytes and the key nonempty. *)

val hash : cost:int -> salt:string -> string -> string
(** 24-byte password hash (bcrypt's construction: the eksblowfish state
    encrypts a fixed magic value 64 times). *)

val hash_size : int

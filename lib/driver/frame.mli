(** Host-side frame construction and inspection for the in-memory drivers.

    Drivers play the role of the network hardware and the remote peer; per
    the paper (Section 2.3) their packet fabrication is free of simulated
    cost (templates are preconstructed), so everything here works directly
    on message bytes without charging the clock. *)

val headers_len : int
(** FDDI + IP + TCP header bytes. *)

val is_tcp : Pnp_xkern.Msg.t -> bool
(** The message is a full FDDI frame carrying a TCP segment. *)

(** {2 Field readers}

    The fields of a frame {!is_tcp} accepted, read in place without
    allocating; a driver reads the ones it needs into locals. *)

val tcp_dst : Pnp_xkern.Msg.t -> int
(** IP destination address. *)

val tcp_sport : Pnp_xkern.Msg.t -> int
val tcp_dport : Pnp_xkern.Msg.t -> int
val tcp_seq : Pnp_xkern.Msg.t -> int
val tcp_ack : Pnp_xkern.Msg.t -> int
val tcp_flags : Pnp_xkern.Msg.t -> Pnp_proto.Tcp_wire.flags
val tcp_win : Pnp_xkern.Msg.t -> int

val tcp_payload_len : Pnp_xkern.Msg.t -> int
(** Bytes after the three headers. *)

val build_tcp :
  Pnp_xkern.Mpool.t ->
  src:int ->
  dst:int ->
  sport:int ->
  dport:int ->
  seq:int ->
  ack:int ->
  flags:Pnp_proto.Tcp_wire.flags ->
  win:int ->
  payload:Pnp_xkern.Msg.t option ->
  checksum:bool ->
  Pnp_xkern.Msg.t
(** A complete FDDI frame around a TCP segment with valid checksums (when
    [checksum]); consumes [payload]. *)

val build_udp :
  Pnp_xkern.Mpool.t ->
  src:int ->
  dst:int ->
  sport:int ->
  dport:int ->
  payload:Pnp_xkern.Msg.t ->
  checksum:bool ->
  Pnp_xkern.Msg.t
(** A complete FDDI frame around a UDP datagram; consumes [payload]. *)

(** The x-kernel message tool.

    A message is an ordered sequence of views onto reference-counted
    MNodes, kept in a part vector recycled through the pool
    ({!Mpool.parts}): creating or duplicating a message allocates only
    its handle, and [push], [pop], [truncate], [append] and
    [append_view] allocate nothing while the vector has a free slot.  Messages are per-thread objects (the paper: "Messages are
    per-thread data structures, and thus required no locks"); only the
    MNode reference counts underneath are shared.

    Headers are pushed and popped at the front without copying payload
    data; [dup] shares the underlying nodes, which is how the TCP
    retransmission queue keeps unacknowledged segments without copies. *)

type t

val create : Mpool.t -> int -> t
(** [create pool n] makes a message with an [n]-byte payload (contents
    unspecified until written). *)

val of_string : Mpool.t -> string -> t

val of_substring : Mpool.t -> string -> off:int -> len:int -> t
(** [of_substring pool s ~off ~len] is [of_string pool (String.sub s off
    len)] without the intermediate string: the bytes are copied once,
    straight into the message's node.
    @raise Invalid_argument if the range is outside [s]. *)

val length : t -> int

val pool : t -> Mpool.t
(** The pool the message allocates from — for callers that write through
    {!head_node} and must call {!Mpool.bump_gen} on it. *)

val push : t -> int -> unit
(** [push t n] prepends [n] bytes of header space; bytes 0..n-1 of the
    message now address it. *)

val pop : t -> int -> unit
(** [pop t n] strips the first [n] bytes.  @raise Invalid_argument if the
    message is shorter. *)

val truncate : t -> int -> unit
(** [truncate t n] keeps only the first [n] bytes. *)

val dup : t -> t
(** Share the same bytes under a new message (reference counts bumped). *)

val unshare : t -> off:int -> unit
(** Make the node viewed by the part containing offset [off] exclusive to
    this message, copying the viewed bytes into a fresh node when the
    reference count shows sharing.  Writes through this message inside
    that part are then invisible to every other message.  Fault injection
    needs this: damaging a frame "on the wire" must not reach the
    sender's retransmission buffers, which {!dup} left sharing the same
    nodes. *)

val append : t -> t -> unit
(** [append t u] moves [u]'s contents to the tail of [t]; [u] becomes
    empty (its node references transfer, so no copying happens). *)

val append_view : t -> t -> off:int -> len:int -> unit
(** [append_view t src ~off ~len] appends a shared view of [src]'s bytes
    [off, off + len) to the tail of [t]; [src] is unchanged.  The node
    reference counts move exactly as they would for [dup src] followed
    by [pop off] and [truncate len] on the copy and an [append] of it,
    but no intermediate message is built.
    @raise Invalid_argument if the range is outside [src]. *)

val destroy : t -> unit
(** Drop all node references.  The message must not be used afterwards. *)

(** {2 Byte access}

    Offsets are message-relative.  Multi-byte accessors are big-endian
    (network order) and may span node boundaries.  A range inside the
    first part (a header, also after it was pushed onto a payload) is a
    bounds compare and a direct load or store; ranges further in walk
    the part list once.  None of them allocates. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit

val blit_to_bytes : t -> Bytes.t -> unit
(** Copy the whole message into a buffer of at least [length t] bytes. *)

val to_string : t -> string

val fill_pattern : t -> off:int -> len:int -> stream_off:int -> unit
(** Write the deterministic payload pattern used by the workloads: byte
    [i] of the stream is [(stream_off + i) mod 251]. *)

val check_pattern : t -> off:int -> len:int -> stream_off:int -> bool
(** Verify the pattern written by {!fill_pattern}. *)

val head_node : t -> Mpool.mnode
(** The first part's node.  Within the first part's length, message
    offset [i] is byte [head_off t + i] of [Mpool.data (head_node t)] —
    the single-pass fast path for a header just pushed (a push is always
    one part).  Readers may use the bytes freely; a writer must call
    {!Mpool.bump_gen} on the node before storing and may refresh the sum
    memo ({!Mpool.cache_sum}) only with a sum of the final byte values.
    @raise Invalid_argument on an empty message. *)

val head_off : t -> int
(** The absolute offset of message offset 0 within {!head_node}'s bytes.
    @raise Invalid_argument on an empty message. *)

val iter_slices : t -> (Bytes.t -> int -> int -> unit) -> unit
(** Apply the function to each underlying (buffer, offset, length) slice in
    order; used by the checksum. *)

val fold_parts : t -> ('a -> Mpool.mnode -> int -> int -> 'a) -> 'a -> 'a
(** [fold_parts t f acc] folds [f acc node off len] over the non-empty
    parts in order, exposing each node so callers can consult the
    per-node checksum-sum memo ({!Mpool.cached_sum}).  Treat the node's
    bytes as read-only: writes that bypass the [Msg] mutators do not
    bump the write generation and would poison the memo.  With a closed
    top-level [f] and an immediate accumulator the fold allocates
    nothing. *)

val parts : t -> int
(** Number of underlying node views (observability). *)

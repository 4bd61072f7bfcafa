(** A growable ring buffer: a FIFO queue taken from the front, or a LIFO
    free list taken from the back.

    The per-packet paths keep their queues and spare-record stacks in
    rings, so a push or pop allocates nothing once the ring has grown to
    its peak occupancy; the capacity doubles (from 8) when a push finds
    the ring full.  A popped slot keeps its value until it is pushed over,
    so a ring may keep an otherwise-dead value reachable for a while. *)

type 'a t

val create : unit -> 'a t
(** An empty ring with no storage. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Add a value at the back. *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]th value from the front, [0 <= i < length t]. *)

val pop : 'a t -> 'a
(** Remove and return the front value (FIFO).  The ring must not be
    empty. *)

val pop_last : 'a t -> 'a
(** Remove and return the back value (LIFO).  The ring must not be
    empty. *)

val clear : 'a t -> unit
(** Forget every value, keeping the storage. *)

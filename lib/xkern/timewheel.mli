(** The x-kernel event manager: a timing wheel (Varghese & Lauck).

    The wheel is a chained-bucket hash table keyed by firing time.  As in
    the paper (Section 2.1), each chain has its own lock so that concurrent
    schedule/cancel operations on different slots do not conflict.

    Expired chains are serviced by one simulated thread per serviced tick
    so that timer callbacks (e.g. TCP retransmission) run in a context
    that may take protocol locks.  Each is spawned with
    {!Pnp_engine.Sim.spawn_detached}: it gets a fresh tid and leaves the
    same spawn and exit trace records as any thread, but its record and
    handler closures are recycled from tick to tick.

    The wheel is tickless: it posts one engine event per tick with work
    due and none for empty slots.  That event spawns the tick's service
    thread, which is the same as if every slot had been visited: empty
    slots consumed no simulated time, drew no randomness and left no
    trace.

    Chains are intrusive lists of the entries themselves, the posted
    event and the service thread's body are built once per wheel, and
    the chain locks are taken inline: beyond the entry {!schedule}
    returns, a tick builds no record, closure or list cell of its own,
    only its service thread's name and what the runtime needs to run a
    thread. *)

type t

type handle
(** A scheduled event, usable with {!cancel}. *)

val create :
  Pnp_engine.Platform.t ->
  ?slot_ns:Pnp_util.Units.ns ->
  ?slots:int ->
  ?cpu:int ->
  name:string ->
  unit ->
  t
(** Default granularity is 10 ms with 128 slots (BSD's slow-timeout scale);
    [cpu] is the processor charged with servicing expirations. *)

val schedule : t -> after:Pnp_util.Units.ns -> (unit -> unit) -> handle
(** Schedule a callback at least [after] from now (rounded up to the next
    wheel tick). *)

val cancel : t -> handle -> bool
(** Returns [false] if the event already fired or was already cancelled. *)

val pending : t -> int
(** Events scheduled and not yet fired or cancelled. *)

val fired : t -> int
(** Events whose callbacks have run. *)

(** Deterministic discrete-event simulator with direct-style threads.

    The simulator stands in for the paper's shared-memory multiprocessor:
    each simulated thread is wired to a processor (exactly the paper's
    one-thread-per-CPU configuration), and protocol code runs as ordinary
    OCaml inside those threads, suspending on OCaml 5 effects whenever it
    consumes simulated time or blocks on a synchronisation object.

    The event loop is single-threaded at the host level; all concurrency is
    simulated, which is what makes lock-grant order, packet misordering and
    contention measurable and reproducible. *)

type t
(** A simulation world. *)

type thread
(** A simulated thread. *)

val create : ?seed:int -> ?batching:bool -> unit -> t
(** Fresh world at time 0.  [seed] initialises the world's PRNG (used by
    unfair lock grants and workload jitter).  [batching] overrides the
    global {!set_batching} default for this world. *)

(** {2 Batched dispatch toggle}

    The event loop normally dispatches same-timestamp runs in one batch
    (one heap drain per distinct timestamp plus a FIFO ring for events
    scheduled at the current instant) and lets an uncontended {!delay}
    advance the clock without suspending.  Both are order-preserving —
    every figure is byte-identical either way, which CI enforces — so
    the toggle exists for A/B determinism diffs and bisection, not
    tuning.  [PNP_NO_BATCH=1] in the environment flips the default to
    the one-event-at-a-time reference loop. *)

val set_batching : bool -> unit
(** Set the default dispatch mode for worlds created afterwards. *)

val batching_enabled : unit -> bool

val dispatch_stats : t -> int * int array
(** [(drains, hist)]: how many distinct timestamps the batched loop
    dispatched, and a histogram of events per drain (bucket [i] counts
    drains of [i] events; the last bucket absorbs larger runs).  All
    zeros when the world runs unbatched. *)

val now : t -> Pnp_util.Units.ns
(** Current simulated time. *)

val prng : t -> Pnp_util.Prng.t
(** The world's deterministic random stream. *)

val tracer : t -> Trace.t
(** The world's event tracer (disabled by default).  The simulator emits
    thread spawn/block/resume events; synchronisation objects and the
    protocol layers add theirs.  Enabling it never consumes simulated
    time, so traced and untraced runs of the same seed are identical. *)

val spawn : t -> ?cpu:int -> name:string -> (unit -> unit) -> thread
(** [spawn t ~cpu ~name body] creates a thread wired to processor [cpu]
    (default: a fresh CPU number) that starts running at the current time.
    The body may call {!delay}, {!suspend} and the blocking operations of
    {!Lock}, {!Gate} and {!Membus}. *)

val at : t -> Pnp_util.Units.ns -> (unit -> unit) -> unit
(** [at t time f] schedules the callback [f] at absolute [time].  Callbacks
    run outside any thread and must not block. *)

val after : t -> Pnp_util.Units.ns -> (unit -> unit) -> unit
(** Relative variant of {!at}. *)

val run : ?until:Pnp_util.Units.ns -> t -> unit
(** Process events in time order.  With [until], stop as soon as the next
    event would fire strictly after that time (the clock is then set to
    [until]); without it, run until the event queue drains. *)

val stop : t -> unit
(** Ask {!run} to return after the current event. *)

(** {2 Operations usable only inside a spawned thread} *)

val self : t -> thread
(** The currently running thread.  @raise Failure outside a thread. *)

val in_thread : t -> bool
(** Whether the caller is executing inside a simulated thread.  Setup code
    (building packet templates, initialising state) runs outside and must
    not be charged simulated time. *)

val delay : t -> Pnp_util.Units.ns -> unit
(** Consume simulated time: the calling thread resumes [d] later. *)

val suspend : t -> ((Pnp_util.Units.ns -> unit) -> unit) -> unit
(** [suspend t register] blocks the calling thread.  [register] receives a
    one-shot [resume] function; whoever holds it may later call
    [resume time] to schedule the thread to continue at absolute [time].
    @raise Failure from [resume] on a second call, or on a call after the
    thread has been resumed and suspended again (a stale resume). *)

val yield : t -> unit
(** Reschedule the calling thread at the current time, letting other
    pending events at this instant run first. *)

(** {2 Deferred charging}

    State-compute replication replays logged protocol work in place: the
    applying thread must run a whole processing section host-atomically
    (no interleaving with other simulated threads) while still learning
    what the section {e would} have cost in simulated time.  Between
    {!defer_begin} and {!defer_end}, {!delay} accumulates its durations
    into a counter instead of advancing the clock (and {!yield} is a
    no-op); {!defer_end} returns the accumulated nanoseconds so the
    caller can charge them explicitly — on its own clock, or on another
    thread's, or never (a replica replaying an entry a peer already paid
    for).  Blocking is a programming error inside a deferred section:
    {!suspend} raises.  Sections do not nest. *)

val defer_begin : t -> unit
(** Start accumulating {!delay} charges instead of consuming time.
    @raise Invalid_argument if a deferred section is already active. *)

val defer_end : t -> Pnp_util.Units.ns
(** End the deferred section and return the accumulated simulated cost.
    @raise Invalid_argument if no deferred section is active. *)

val defer_active : t -> bool

(** {2 Thread accessors} *)

val tid : thread -> int
val cpu : thread -> int
val thread_name : thread -> string
val is_finished : thread -> bool

val note_wait : thread -> Pnp_util.Units.ns -> unit
(** Attribute [d] of blocked time to the thread (locks call this; the
    harness reads it back for the Section 3 lock-wait profile). *)

val wait_ns : thread -> Pnp_util.Units.ns
(** Total blocked time recorded with {!note_wait}. *)

val events_processed : t -> int
(** Number of events executed so far (observability / debugging). *)

(** {2 Diagnostics}

    When [run] returns with the event queue drained but threads still
    blocked, something is deadlocked (or waiting on a resume that will
    never come); these report the suspects. *)

val blocked_threads : t -> thread list
(** Threads that are suspended with no scheduled resumption, in spawn
    (tid) order. *)

val live_threads : t -> thread list
(** Threads that have not finished, in spawn (tid) order. *)

val pp_blocked : Format.formatter -> t -> unit

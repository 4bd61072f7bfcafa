open Pnp_engine

type mnode = {
  id : int;
  data : Bytes.t;
  size_class : int;
  from_arena : bool; (* buffer drawn from the pool's arena free lists *)
  refs : Atomic_ctr.t;
  (* One-slot checksum-sum memo (see Inet_cksum.sum_slices): the 16-bit
     one's-complement sum of data[sum_off, sum_off+sum_len) as of write
     generation [sum_gen].  Msg bumps [gen] on every mutation of the
     node's bytes, so a segment duplicated from a template (refs > 1 on
     the rexmt queue, drivers' payload sharing) is summed once and then
     served in O(1) — the host-side "coalescing" of repeated data
     touches that real stacks get from hardware checksum offload. *)
  mutable gen : int;
  mutable sum_gen : int; (* -1 = no cached sum *)
  mutable sum_off : int;
  mutable sum_len : int;
  mutable sum_val : int;
}

(* Two cached size classes: header nodes and MTU-sized data nodes.  Larger
   requests are allocated exactly and never cached. *)
let class_capacities = [| 256; 4608 |]

let class_of n =
  if n <= class_capacities.(0) then 0 else if n <= class_capacities.(1) then 1 else 2

let cache_limit = 64

exception Out_of_mnodes of { requested : int; live : int; capacity : int }

(* One thread's free cache: a LIFO per size class, with the depth kept
   alongside so the free path never walks the list to count it. *)
type tid_cache = {
  nodes : mnode list array; (* per-class LIFO *)
  depths : int array;
}

type t = {
  plat : Platform.t;
  capacity : int; (* max live mnodes; max_int = unbounded *)
  malloc_lock : Lock.t;
  mutable caches : tid_cache array; (* tid-indexed; no hashing on the hot path *)
  mutable cache_table_growths : int;
  mutable next_id : int;
  mutable allocations : int;
  mutable cache_hits : int;
  mutable global_allocations : int;
  mutable live : int;
  (* Host-side buffer arena (PNP_NO_ARENA=1 disables): the Bytes behind
     cached-class nodes are drawn from per-class free lists and recycled
     when a node's refcount reaches zero outside the simulated per-thread
     caches.  Purely host allocation policy — the simulated malloc/cache
     charges above are untouched — so figures are identical either way.
     A buffer can only re-enter the free lists at refcount zero, which is
     what keeps recycling invisible to retransmission-queue sharing
     ([Msg.dup]/[Msg.unshare]): a node still referenced anywhere keeps
     its buffer. *)
  arena_free : Bytes.t list array; (* per cached class *)
  arena_free_n : int array;
  mutable arena_out : int; (* bytes inside arena-drawn nodes now live *)
  mutable arena_hwm : int; (* peak of [arena_out] *)
  (* Graceful degradation: a soft high-watermark below the hard capacity.
     Crossing it upward flips [in_pressure] and fires the admission-control
     hook; falling back below wakes any threads parked in
     [await_headroom].  The gap between the watermark and the hard
     capacity is the protocol's headroom budget: admission-controlled
     producers stop at the watermark so that protocol-internal transients
     (header pushes, ACK emission, retransmission) never hit the hard
     wall.  [soft = max_int] (unbounded pools) makes every check a single
     always-false compare, so bench-path pools pay nothing. *)
  soft : int;
  mutable in_pressure : bool;
  mutable pressure_entries : int;
  mutable refusals : int; (* try_alloc calls denied at hard capacity *)
  mutable headroom_waiters : (Pnp_util.Units.ns -> unit) list; (* LIFO; woken in reverse *)
  mutable pressure_hook : (bool -> unit) option;
}

(* Instruction budgets: a cache hit is a couple of pointer operations; the
   global path runs the allocator under its lock and touches cold memory. *)
let cache_hit_instrs = 18
let malloc_instrs = 120
let free_instrs = 60

(* Lifecycle events for the arena sanitizer (Pnp_analysis.Lifetime):
   alloc / ref / unref / recycle / write, keyed by node id, plus the
   cache hit/miss of each allocation.  Every site tests [tracing] before
   it builds the event record, so the untraced path allocates nothing;
   events are silent outside simulated threads (setup/teardown traffic
   has no tid to charge). *)
let tracing t =
  let sim = t.plat.Platform.sim in
  Trace.enabled (Sim.tracer sim) && Sim.in_thread sim

let trace_node t ev =
  let sim = t.plat.Platform.sim in
  let th = Sim.self sim in
  Trace.emit (Sim.tracer sim) (* lint:allow trace-guard: callers test [tracing] *)
    ~ts:(Sim.now sim) ~tid:(Sim.tid th) ~cpu:(Sim.cpu th) ev

let create ?(capacity = max_int) ?soft_watermark plat =
  if capacity <= 0 then invalid_arg "Mpool.create: capacity must be positive";
  let soft =
    match soft_watermark with
    | Some s ->
      if s <= 0 || s > capacity then
        invalid_arg "Mpool.create: soft watermark out of range";
      s
    | None -> if capacity = max_int then max_int else max 1 (capacity / 2)
  in
  {
    plat;
    capacity;
    soft;
    in_pressure = false;
    pressure_entries = 0;
    refusals = 0;
    headroom_waiters = [];
    pressure_hook = None;
    malloc_lock =
      Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair ~name:"malloc";
    caches = [||];
    cache_table_growths = 0;
    next_id = 0;
    allocations = 0;
    cache_hits = 0;
    global_allocations = 0;
    live = 0;
    arena_free = Array.make 2 [];
    arena_free_n = Array.make 2 0;
    arena_out = 0;
    arena_hwm = 0;
  }

(* Extend the tid-indexed table to cover [tid], creating a cache per new
   slot.  The only non-O(1) step in the cache path, and it runs once per
   table doubling — the fast path below is a bounds check and two array
   loads, never a hash lookup. *)
let grow_caches t tid =
  t.cache_table_growths <- t.cache_table_growths + 1;
  let cap = max 16 (max (tid + 1) (2 * Array.length t.caches)) in
  let fresh () = { nodes = Array.make 2 []; depths = Array.make 2 0 } in
  let table = Array.init cap (fun i ->
      if i < Array.length t.caches then t.caches.(i) else fresh ())
  in
  t.caches <- table

let thread_cache t =
  let tid = Sim.tid (Sim.self t.plat.Platform.sim) in
  if tid >= Array.length t.caches then grow_caches t tid;
  Array.unsafe_get t.caches tid

(* Arena toggle (host allocation policy only; see the [t] field docs).
   PNP_NO_ARENA=1 gives the reference fresh-Bytes-per-node behaviour for
   A/B determinism diffs. *)
let arena_default =
  ref
    (match Sys.getenv_opt "PNP_NO_ARENA" with
    | Some ("1" | "true" | "yes") -> false
    | _ -> true)

let set_arena on = arena_default := on
let arena_enabled () = !arena_default

(* Bound on recycled buffers kept per class: enough to absorb steady-state
   churn without pinning an allocation spike's memory forever. *)
let arena_retain = 1024

let arena_take t cls cap =
  t.arena_out <- t.arena_out + cap;
  if t.arena_out > t.arena_hwm then t.arena_hwm <- t.arena_out;
  match t.arena_free.(cls) with
  | b :: rest ->
    t.arena_free.(cls) <- rest;
    t.arena_free_n.(cls) <- t.arena_free_n.(cls) - 1;
    b
  | [] -> Bytes.create cap

(* A dead node's buffer returns to the free lists; only ever called at
   refcount zero for nodes not parked in a simulated per-thread cache. *)
let arena_recycle t node =
  if node.from_arena then begin
    if tracing t then trace_node t (Trace.Mnode_recycle { node = node.id });
    t.arena_out <- t.arena_out - Bytes.length node.data;
    let cls = node.size_class in
    if t.arena_free_n.(cls) < arena_retain then begin
      t.arena_free.(cls) <- node.data :: t.arena_free.(cls);
      t.arena_free_n.(cls) <- t.arena_free_n.(cls) + 1
    end
  end

let fresh_node t n cls =
  let cap = if cls = 2 then n else class_capacities.(cls) in
  let from_arena = cls < 2 && !arena_default in
  let node =
    {
      id = t.next_id;
      data = (if from_arena then arena_take t cls cap else Bytes.create cap);
      size_class = cls;
      from_arena;
      refs = Platform.refcnt t.plat ~name:"mnode" ~init:1;
      gen = 0;
      sum_gen = -1;
      sum_off = 0;
      sum_len = 0;
      sum_val = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  if tracing t then trace_node t (Trace.Mnode_alloc { node = node.id });
  node

let global_alloc t n cls =
  t.global_allocations <- t.global_allocations + 1;
  if Sim.in_thread t.plat.Platform.sim then begin
    Lock.acquire t.malloc_lock;
    Platform.charge_instrs t.plat malloc_instrs;
    Lock.release t.malloc_lock;
    (* Freshly allocated memory is cold for this CPU. *)
    Platform.charge t.plat (Arch.touch_ns t.plat.Platform.arch 128)
  end;
  fresh_node t n cls

(* Pressure edges.  Both are out of line: the hot paths only pay a
   compare-and-branch against [soft] / [in_pressure]. *)
let enter_pressure t =
  t.in_pressure <- true;
  t.pressure_entries <- t.pressure_entries + 1;
  match t.pressure_hook with Some f -> f true | None -> ()

let leave_pressure t =
  t.in_pressure <- false;
  (match t.pressure_hook with Some f -> f false | None -> ());
  match t.headroom_waiters with
  | [] -> ()
  | ws ->
    t.headroom_waiters <- [];
    let now = Sim.now t.plat.Platform.sim in
    (* Registration order (the list is a LIFO): deterministic wakeups. *)
    List.iter (fun resume -> resume now) (List.rev ws)

let alloc t n =
  if n < 0 then invalid_arg "Mpool.alloc: negative size";
  if t.live >= t.capacity then
    raise (Out_of_mnodes { requested = n; live = t.live; capacity = t.capacity });
  t.allocations <- t.allocations + 1;
  t.live <- t.live + 1;
  if (not t.in_pressure) && t.live >= t.soft then enter_pressure t;
  let cls = class_of n in
  let use_cache =
    cls < 2 && t.plat.Platform.message_caching && Sim.in_thread t.plat.Platform.sim
  in
  if not use_cache then begin
    if tracing t then trace_node t (Trace.Mpool_alloc { hit = false });
    global_alloc t n cls
  end
  else begin
    let cache = thread_cache t in
    match cache.nodes.(cls) with
    | node :: rest ->
      cache.nodes.(cls) <- rest;
      cache.depths.(cls) <- cache.depths.(cls) - 1;
      t.cache_hits <- t.cache_hits + 1;
      if tracing t then trace_node t (Trace.Mpool_alloc { hit = true });
      Platform.charge_instrs t.plat cache_hit_instrs;
      ignore (Atomic_ctr.incr node.refs);
      (* A cached node comes back to life: 0 -> 1 is a re-arm, not a
         reference taken on a live node, so it traces as an alloc. *)
      if tracing t then trace_node t (Trace.Mnode_alloc { node = node.id });
      node
    | [] ->
      if tracing t then trace_node t (Trace.Mpool_alloc { hit = false });
      global_alloc t n cls
  end

let incref t node =
  let r = Atomic_ctr.incr node.refs in
  if tracing t then trace_node t (Trace.Mnode_ref { node = node.id; refs = r })

let global_free t =
  if Sim.in_thread t.plat.Platform.sim then begin
    Lock.acquire t.malloc_lock;
    Platform.charge_instrs t.plat free_instrs;
    Lock.release t.malloc_lock
  end

let decref t node =
  let r = Atomic_ctr.decr node.refs in
  if r < 0 then failwith "Mpool.decref: reference count went negative";
  if tracing t then trace_node t (Trace.Mnode_unref { node = node.id; refs = r });
  if r = 0 then begin
    t.live <- t.live - 1;
    if t.in_pressure && t.live < t.soft then leave_pressure t;
    let use_cache =
      node.size_class < 2
      && t.plat.Platform.message_caching
      && Sim.in_thread t.plat.Platform.sim
    in
    if use_cache then begin
      let cache = thread_cache t in
      let cls = node.size_class in
      if cache.depths.(cls) < cache_limit then begin
        Platform.charge_instrs t.plat cache_hit_instrs;
        cache.nodes.(cls) <- node :: cache.nodes.(cls);
        cache.depths.(cls) <- cache.depths.(cls) + 1
      end
      else begin
        global_free t;
        arena_recycle t node
      end
    end
    else begin
      global_free t;
      arena_recycle t node
    end
  end

(* Wire-boundary allocation: a denial is an accounted drop (the NIC's
   "no mbufs, drop the frame" path), never an exception. *)
let try_alloc t n =
  if t.live >= t.capacity then begin
    t.refusals <- t.refusals + 1;
    None
  end
  else Some (alloc t n)

let under_pressure t = t.in_pressure
let headroom t = if t.capacity = max_int then max_int else t.capacity - t.live

(* Admission control for producers running in simulated threads: park
   until the pool falls back below the soft watermark.  Loops because a
   wakeup races other woken producers re-entering pressure.  Outside a
   simulated thread (setup traffic) this is a no-op — there is nothing
   to suspend. *)
let rec await_headroom t =
  if t.in_pressure && Sim.in_thread t.plat.Platform.sim then begin
    Sim.suspend t.plat.Platform.sim (fun resume ->
        t.headroom_waiters <- resume :: t.headroom_waiters);
    await_headroom t
  end

let set_pressure_hook t f = t.pressure_hook <- Some f

let data node = node.data
let capacity node = Bytes.length node.data
let refs node = Atomic_ctr.get node.refs

(* Checksum-sum memo.  PNP_NO_COALESCE=1 (or [set_sum_cache false])
   turns lookups into unconditional misses for A/B determinism diffs;
   cached and recomputed sums are equal by construction, which the
   fault-plan digest tests pin down. *)
let sum_cache_default =
  ref
    (match Sys.getenv_opt "PNP_NO_COALESCE" with
    | Some ("1" | "true" | "yes") -> false
    | _ -> true)

let set_sum_cache on = sum_cache_default := on
let sum_cache_enabled () = !sum_cache_default

let bump_gen t node =
  node.gen <- node.gen + 1;
  if tracing t then trace_node t (Trace.Mnode_write { node = node.id })

let cached_sum node ~off ~len =
  if
    !sum_cache_default && node.sum_gen = node.gen && node.sum_off = off
    && node.sum_len = len
  then node.sum_val
  else -1

let cache_sum node ~off ~len v =
  if !sum_cache_default then begin
    node.sum_gen <- node.gen;
    node.sum_off <- off;
    node.sum_len <- len;
    node.sum_val <- v
  end

(* Reset at quiescence: at a point where no simulated thread is running
   (between the warmup and measure phases, teardown) the caller lets the
   arena drop surplus recycled buffers back to the GC, so one phase's
   allocation burst does not pin host memory for the rest of the run. *)
let quiesce ?(retain = 64) t =
  for cls = 0 to Array.length t.arena_free - 1 do
    if t.arena_free_n.(cls) > retain then begin
      let rec take n = function
        | b :: rest when n > 0 -> b :: take (n - 1) rest
        | _ -> []
      in
      t.arena_free.(cls) <- take retain t.arena_free.(cls);
      t.arena_free_n.(cls) <- retain
    end
  done

let arena_hwm t = t.arena_hwm
let arena_out t = t.arena_out

let pool_capacity t = t.capacity
let soft_watermark t = t.soft
let pressure_entries t = t.pressure_entries
let refusals t = t.refusals
let allocations t = t.allocations
let cache_hits t = t.cache_hits
let global_allocations t = t.global_allocations
let live_nodes t = t.live
let cache_table_growths t = t.cache_table_growths

(* id is kept for debugging/printing even though nothing reads it yet. *)
let _ = fun (n : mnode) -> n.id

open Pnp_util

type thread = {
  tid : int;
  cpu : int;
  name : string;
  mutable finished : bool;
  mutable runnable : bool; (* has a scheduled resumption (or is running) *)
  mutable waited_ns : int;
  mutable suspend_gen : int; (* suspension generation; catches stale resumes *)
  mutable parked : (unit, unit) Effect.Deep.continuation; (* resumed by [wake] *)
  mutable wake : unit -> unit; (* this thread's resume event, built once *)
}

type t = {
  mutable now : int;
  events : (unit -> unit) Eventq.t;
  rng : Prng.t;
  mutable next_tid : int;
  mutable next_cpu : int;
  mutable current : thread; (* [no_thread] between bursts *)
  mutable threads : thread array; (* tid-indexed; first [next_tid] slots live *)
  mutable stopping : bool;
  mutable processed : int;
  tracer : Trace.t;
  (* Batched dispatch (see [run]).  [batching] freezes the global toggle
     at creation so one world never mixes dispatch modes. *)
  batching : bool;
  mutable ring : (unit -> unit) array; (* circular FIFO of time-[now] events *)
  mutable ring_head : int;
  mutable ring_len : int;
  batch : (unit -> unit) array ref; (* pop_run scratch, drained by [run] *)
  mutable batch_pos : int;
  mutable batch_len : int;
  mutable limit : int; (* the active [run]'s [until] (max_int when none) *)
  mutable drains : int; (* timestamps dispatched, for the batch histogram *)
  batch_hist : int array; (* bucket i = drains of i events; last = overflow *)
  mutable cur_run : int; (* events dispatched at the current timestamp *)
  (* Deferred charging (SCR replay): while active, [delay] accumulates
     into [defer_acc] instead of advancing the clock, and [suspend] is an
     error — the section must be host-atomic. *)
  mutable defer_on : bool;
  mutable defer_acc : int;
  (* The pending [Delay]'s wake-up time, -1 when none: the effect itself
     carries no payload, so performing it allocates nothing. *)
  mutable wake_at : int;
}

type _ Effect.t +=
  | Delay : unit Effect.t
  | Suspend : t * ((int -> unit) -> unit) -> unit Effect.t

(* Resting value of [thread.parked]: a continuation captured once at
   start-up and never resumed, so the slot needs no option box. *)
let no_k : (unit, unit) Effect.Deep.continuation =
  let open Effect.Deep in
  let module M = struct
    type _ Effect.t += Capture : unit Effect.t
    exception Captured of (unit, unit) continuation
  end in
  match
    match_with Effect.perform M.Capture
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | M.Capture -> Some (fun (k : (a, unit) continuation) -> raise (M.Captured k))
            | _ -> None);
      }
  with
  | () -> assert false
  | exception M.Captured k -> k

(* Batched dispatch is semantics-preserving (enforced by test and CI
   determinism diffs), so it defaults on; PNP_NO_BATCH=1 or
   [set_batching false] selects the one-event-at-a-time reference loop
   for A/B determinism checks and bisection. *)
let batching_default =
  ref
    (match Sys.getenv_opt "PNP_NO_BATCH" with
    | Some ("1" | "true" | "yes") -> false
    | _ -> true)

let set_batching on = batching_default := on
let batching_enabled () = !batching_default

let nop () = ()

(* [t.current] outside any burst: a sentinel rather than an option, so
   entering a burst is a field write with no [Some] box. *)
let no_thread =
  {
    tid = -1;
    cpu = -1;
    name = "<no thread>";
    finished = true;
    runnable = false;
    waited_ns = 0;
    suspend_gen = 0;
    parked = no_k;
    wake = nop;
  }

let create ?(seed = 42) ?batching () =
  {
    now = 0;
    events = Eventq.create ();
    rng = Prng.create seed;
    next_tid = 0;
    next_cpu = 0;
    current = no_thread;
    threads = [||];
    stopping = false;
    processed = 0;
    tracer = Trace.create ();
    batching = (match batching with Some b -> b | None -> !batching_default);
    ring = [||];
    ring_head = 0;
    ring_len = 0;
    batch = ref [||];
    batch_pos = 0;
    batch_len = 0;
    limit = max_int;
    drains = 0;
    batch_hist = Array.make 65 0;
    cur_run = 0;
    defer_on = false;
    defer_acc = 0;
    wake_at = -1;
  }

let now t = t.now
let prng t = t.rng
let tracer t = t.tracer

let trace_thread t th ev =
  if Trace.enabled t.tracer then
    Trace.emit t.tracer ~ts:t.now ~tid:th.tid ~cpu:th.cpu ev

(* Ring capacities stay powers of two so indexing is a mask. *)
let ring_push t f =
  let cap = Array.length t.ring in
  if t.ring_len = cap then begin
    let ncap = max 16 (2 * cap) in
    let nr = Array.make ncap nop in
    for i = 0 to t.ring_len - 1 do
      nr.(i) <- t.ring.((t.ring_head + i) land (cap - 1))
    done;
    t.ring <- nr;
    t.ring_head <- 0
  end;
  t.ring.((t.ring_head + t.ring_len) land (Array.length t.ring - 1)) <- f;
  t.ring_len <- t.ring_len + 1

let ring_pop t =
  let i = t.ring_head in
  let f = t.ring.(i) in
  t.ring.(i) <- nop;
  t.ring_head <- (i + 1) land (Array.length t.ring - 1);
  t.ring_len <- t.ring_len - 1;
  f

(* An [at] for the current instant joins the FIFO ring instead of the
   heap.  Order argument: every heap entry with time = [now] was added
   before [now] became current (adds at the current time go to the ring,
   past times are rejected), so heap entries always precede ring entries
   in insertion order — [run] drains heap-run first, then ring, which is
   exactly global (time, seq) order. *)
let at t time f =
  if time > t.now then Eventq.add t.events ~time f
  else if time = t.now && t.batching then ring_push t f
  else if time = t.now then Eventq.add t.events ~time f
  else
    invalid_arg
      (Printf.sprintf "Sim.at: time %d is in the past (now %d)" time t.now)

let after t d = at t (t.now + d)

let self t =
  if t.current == no_thread then failwith "Sim.self: not inside a simulated thread"
  else t.current

(* One burst of a thread's execution: [t.current] is set while [f x] runs
   and cleared when the thread suspends, finishes, or escapes with an
   exception.  Hand-rolled rather than [Fun.protect] so the per-burst
   cost is two field writes, not a finaliser closure. *)
let run_burst t th f x =
  t.current <- th;
  match f x with
  | () -> t.current <- no_thread
  | exception e ->
    t.current <- no_thread;
    raise e

let continue_parked k = Effect.Deep.continue k ()

(* Run [f] as the body of [th]: effects performed inside are handled here.
   Each resumption of the thread's continuation happens from an event-loop
   callback, so [t.current] is set for the duration of each burst of
   execution and cleared when the thread suspends or finishes.

   Everything a suspension needs is built here, once per thread: the
   [Delay] branch of the handler and the resume event [th.wake], which
   continues whatever continuation is parked in [th.parked].  A thread
   has at most one pending resumption, so one event per thread is
   enough; a contended [delay] then allocates only the continuation the
   runtime captures. *)
let start_thread t th body =
  let open Effect.Deep in
  (* A fresh generation per suspension: a [resume] carrying an old
     generation (or arriving while the thread is already runnable) is a
     double or stale resume. *)
  let park k =
    th.suspend_gen <- th.suspend_gen + 1;
    th.runnable <- false;
    th.parked <- k;
    trace_thread t th Trace.Thread_block
  in
  th.wake <-
    (fun () ->
      trace_thread t th Trace.Thread_resume;
      run_burst t th continue_parked th.parked);
  let on_delay =
    Some
      (fun k ->
        let time = t.wake_at in
        t.wake_at <- -1;
        park k;
        th.runnable <- true;
        at t time th.wake)
  in
  let handler =
    {
      retc =
        (fun () ->
          th.finished <- true;
          trace_thread t th Trace.Thread_exit);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Delay when t.wake_at >= 0 -> on_delay
          | Suspend (owner, register) when owner == t ->
            Some
              (fun k ->
                park k;
                let gen = th.suspend_gen in
                register (fun time ->
                    if th.runnable || gen <> th.suspend_gen then
                      failwith (Printf.sprintf "Sim: thread %S resumed twice" th.name);
                    th.runnable <- true;
                    at t time th.wake))
          | _ -> None);
    }
  in
  run_burst t th (match_with body ()) handler

(* Append [th] to the tid-indexed table, doubling the backing array as
   needed (the table replaces the old newest-first list, so diagnostics
   walk threads in tid order and tid lookups are O(1)). *)
let register_thread t th =
  let cap = Array.length t.threads in
  if t.next_tid >= cap then begin
    let table = Array.make (max 8 (2 * cap)) th in
    Array.blit t.threads 0 table 0 t.next_tid;
    t.threads <- table
  end;
  t.threads.(t.next_tid) <- th;
  t.next_tid <- t.next_tid + 1

let spawn t ?cpu ~name body =
  let cpu =
    match cpu with
    | Some c -> c
    | None ->
      let c = t.next_cpu in
      t.next_cpu <- t.next_cpu + 1;
      c
  in
  let th =
    {
      tid = t.next_tid;
      cpu;
      name;
      finished = false;
      runnable = true;
      waited_ns = 0;
      suspend_gen = 0;
      parked = no_k;
      wake = nop;
    }
  in
  register_thread t th;
  Trace.register_thread t.tracer ~tid:th.tid ~cpu:th.cpu name;
  (* The fork edge: when the spawner is itself a simulated thread, its
     past happens-before everything the child does.  Emitted with the
     parent's tid so the happens-before checker can seed the child's
     clock from it; top-level spawns (setup code) have no parent edge. *)
  if Trace.enabled t.tracer then begin
    if t.current != no_thread then
      trace_thread t t.current (Trace.Thread_fork { child = th.tid });
    trace_thread t th (Trace.Thread_spawn { name })
  end;
  at t t.now (fun () -> start_thread t th body);
  th

let in_thread t = t.current != no_thread

let suspend t register =
  if t.defer_on then
    failwith "Sim.suspend: blocking operation inside a deferred-charge section";
  Effect.perform (Suspend (t, register))

(* Deferred charging: between [defer_begin] and [defer_end] every [delay]
   (and [yield]) accumulates into a counter instead of consuming simulated
   time, so a caller can run a whole protocol-processing section
   host-atomically and learn its total simulated cost afterwards.  SCR
   replay uses this to apply log entries in place and charge the stored
   cost on the applying thread's own clock.  Sections must not block:
   [suspend] raises while a defer is active.  Not nestable. *)
let defer_begin t =
  if t.defer_on then invalid_arg "Sim.defer_begin: already deferring";
  t.defer_on <- true;
  t.defer_acc <- 0

let defer_end t =
  if not t.defer_on then invalid_arg "Sim.defer_end: no deferred section";
  t.defer_on <- false;
  t.defer_acc

let defer_active t = t.defer_on

(* Close out the histogram entry for the timestamp being dispatched. *)
let note_drain_end t =
  if t.cur_run > 0 then begin
    t.drains <- t.drains + 1;
    let b = min t.cur_run (Array.length t.batch_hist - 1) in
    t.batch_hist.(b) <- t.batch_hist.(b) + 1;
    t.cur_run <- 0
  end

(* The suspend/resume machinery exists to let *other* pending events run
   while a thread waits.  When there provably are none — the batch and
   ring are drained and every heap event is strictly later than the
   wake-up — a [delay] can simply advance the clock in place: no effect,
   no continuation capture, no heap round-trip.  The skipped resume
   event still counts toward [processed] (and as a 1-event drain), so
   event totals and rates are comparable across modes.  Gated off when
   tracing: the real path emits Thread_block/Thread_resume records that
   replay analysis consumes. *)
let delay_fast t d =
  let wake = t.now + d in
  if
    t.batching && t.current != no_thread && (not t.stopping)
    && t.batch_pos >= t.batch_len
    && t.ring_len = 0
    && wake <= t.limit
    && (not (Trace.enabled t.tracer))
    && (Eventq.is_empty t.events || Eventq.peek_time_exn t.events > wake)
  then begin
    note_drain_end t;
    t.now <- wake;
    t.processed <- t.processed + 1;
    t.cur_run <- 1;
    true
  end
  else false

let delay t d =
  if d < 0 then invalid_arg "Sim.delay: negative duration";
  if t.defer_on then t.defer_acc <- t.defer_acc + d
  else if d = 0 then ()
  else if not (delay_fast t d) then begin
    t.wake_at <- t.now + d;
    Effect.perform Delay
  end

let yield t =
  (* Same fast path with d = 0: nothing else is pending at this instant,
     so yielding to nobody is a plain no-op (minus the event count). *)
  if t.defer_on then ()
  else if not (delay_fast t 0) then begin
    t.wake_at <- t.now;
    Effect.perform Delay
  end

let stop t = t.stopping <- true

(* Reference one-event-at-a-time loop, kept verbatim for PNP_NO_BATCH
   A/B determinism diffs: peek_time_exn/pop_exn return immediates rather
   than options/tuples, and emptiness is checked up front. *)
let run_unbatched ?until t =
  let continue_ = ref true in
  while !continue_ && not t.stopping do
    if Eventq.is_empty t.events then continue_ := false
    else begin
      let time = Eventq.peek_time_exn t.events in
      match until with
      | Some limit when time > limit ->
        t.now <- max t.now limit;
        continue_ := false
      | _ ->
        let action = Eventq.pop_exn t.events in
        assert (time >= t.now);
        t.now <- time;
        t.processed <- t.processed + 1;
        action ()
    end
  done

(* Batched loop: advance to the earliest timestamp, [Eventq.pop_run] its
   whole run into the scratch batch in one pass, dispatch the batch, then
   drain the ring of events added *at* that timestamp (FIFO), and only
   then look at the heap again.  [stop] mid-batch leaves the tail in
   [t.batch]; a later [run] resumes from it, preserving order. *)
let run_batched t limit =
  let continue_ = ref true in
  while !continue_ && not t.stopping do
    if t.batch_pos < t.batch_len then begin
      let b = !(t.batch) in
      let action = b.(t.batch_pos) in
      b.(t.batch_pos) <- nop;
      t.batch_pos <- t.batch_pos + 1;
      t.processed <- t.processed + 1;
      t.cur_run <- t.cur_run + 1;
      action ()
    end
    else if t.ring_len > 0 && t.now <= limit then begin
      let action = ring_pop t in
      t.processed <- t.processed + 1;
      t.cur_run <- t.cur_run + 1;
      action ()
    end
    else if Eventq.is_empty t.events then continue_ := false
    else begin
      let time = Eventq.peek_time_exn t.events in
      if time > limit then begin
        t.now <- max t.now limit;
        continue_ := false
      end
      else begin
        note_drain_end t;
        assert (time >= t.now);
        t.now <- time;
        t.batch_len <- Eventq.pop_run t.events t.batch;
        t.batch_pos <- 0
      end
    end
  done;
  note_drain_end t

let run ?until t =
  t.stopping <- false;
  t.limit <- (match until with Some l -> l | None -> max_int);
  if t.batching then run_batched t t.limit else run_unbatched ?until t;
  match until with
  | Some limit when not t.stopping -> t.now <- max t.now limit
  | _ -> ()

let dispatch_stats t = (t.drains, Array.copy t.batch_hist)

(* Diagnostics below walk the live prefix of the table; results come back
   in tid (spawn) order. *)
let filter_threads t pred =
  let acc = ref [] in
  for i = t.next_tid - 1 downto 0 do
    let th = t.threads.(i) in
    if pred th then acc := th :: !acc
  done;
  !acc

let blocked_threads t =
  filter_threads t (fun th -> (not th.finished) && not th.runnable)

let live_threads t = filter_threads t (fun th -> not th.finished)

let pp_blocked fmt t =
  match blocked_threads t with
  | [] -> Format.fprintf fmt "no blocked threads"
  | bs ->
    Format.fprintf fmt "%d blocked thread(s):" (List.length bs);
    List.iter
      (fun th -> Format.fprintf fmt "@ [tid %d cpu %d %S]" th.tid th.cpu th.name)
      bs

let tid th = th.tid
let cpu th = th.cpu
let thread_name th = th.name
let is_finished th = th.finished
let note_wait th d = th.waited_ns <- th.waited_ns + d
let wait_ns th = th.waited_ns
let events_processed t = t.processed

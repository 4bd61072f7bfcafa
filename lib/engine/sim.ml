open Pnp_util

(* A record spawned by [spawn_detached] is recycled: on exit it goes back
   to its world's free list and the next detached spawn gives it a fresh
   tid, cpu and name, so those three are mutable. *)
type thread = {
  mutable tid : int;
  mutable cpu : int;
  mutable name : string;
  mutable finished : bool;
  mutable runnable : bool; (* has a scheduled resumption (or is running) *)
  mutable waited_ns : int;
  mutable suspend_gen : int; (* suspension generation; catches stale resumes *)
  mutable parked : (unit, unit) Effect.Deep.continuation; (* resumed by [wake] *)
  mutable wake : unit -> unit; (* this thread's resume event, built once *)
  mutable body : unit -> unit; (* run by [start] *)
  mutable start : unit -> unit; (* this thread's start event, built once *)
  detached : bool; (* no handle was returned: recycled on exit *)
}

type t = {
  mutable now : int;
  events : (unit -> unit) Eventq.t;
  rng : Prng.t;
  mutable next_tid : int;
  mutable next_cpu : int;
  mutable current : thread; (* [no_thread] between bursts *)
  mutable threads : thread array;
      (* tid-indexed over the first [next_tid] slots; a recycled thread's
         slot holds [no_thread] *)
  spare : thread Ring.t; (* exited detached threads *)
  mutable stopping : bool;
  mutable processed : int;
  tracer : Trace.t;
  mutable limit : int; (* the active [run]'s [until] (max_int when none) *)
  mutable instant : int; (* timestamp of the last dispatch, -1 before any *)
  mutable instants : int; (* distinct timestamps dispatched *)
  (* Deferred charging (SCR replay): while active, [delay] accumulates
     into [defer_acc] instead of advancing the clock, and [suspend] is an
     error — the section must be host-atomic. *)
  mutable defer_on : bool;
  mutable defer_acc : int;
  (* The pending [Delay]'s wake-up time, -1 when none: the effect itself
     carries no payload, so performing it allocates nothing. *)
  mutable wake_at : int;
  (* Set by [park] just before it performs [Park], so only this world's
     handler takes the effect. *)
  mutable parking : bool;
}

type _ Effect.t +=
  | Delay : unit Effect.t
  | Park : unit Effect.t
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
    body = nop;
    start = nop;
    detached = false;
  }

let create ?(seed = 42) () =
  {
    now = 0;
    events = Eventq.create ();
    rng = Prng.create seed;
    next_tid = 0;
    next_cpu = 0;
    current = no_thread;
    threads = [||];
    spare = Ring.create ();
    stopping = false;
    processed = 0;
    tracer = Trace.create ();
    limit = max_int;
    instant = -1;
    instants = 0;
    defer_on = false;
    defer_acc = 0;
    wake_at = -1;
    parking = false;
  }

let now t = t.now
let prng t = t.rng
let tracer t = t.tracer

let trace_thread t th ev =
  if Trace.enabled t.tracer then
    Trace.emit t.tracer ~ts:t.now ~tid:th.tid ~cpu:th.cpu ev

let at t time f =
  if time >= t.now then Eventq.add t.events ~time f
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

(* The one wake path, for [park]ed and [suspend]ed threads alike:
   schedule the thread's resume event.  A thread that is already
   runnable has been resumed before. *)
let unpark t th time =
  if th.runnable then failwith (Printf.sprintf "Sim: thread %S resumed twice" th.name);
  th.runnable <- true;
  at t time th.wake

(* Give a retired detached thread back to the free list: its tid slot
   is cleared, so diagnostics no longer list it, and the record with its
   prebuilt handler and events waits for the next [spawn_detached]. *)
let retire t th =
  t.threads.(th.tid) <- no_thread;
  th.body <- nop;
  th.parked <- no_k;
  Ring.push t.spare th

(* Build [th]'s handler and events: effects performed by its body are
   handled here.  Each resumption of the thread's continuation happens
   from an event-loop callback, so [t.current] is set for the duration of
   each burst of execution and cleared when the thread suspends or
   finishes.

   Everything a suspension needs is built here, once per thread record:
   the [Delay] and [Park] branches of the handler and the resume event
   [th.wake], which continues whatever continuation is parked in
   [th.parked].  A thread has at most one pending resumption, so one
   event per thread is enough; a contended [delay] or a [park] then
   allocates only the continuation the runtime captures.  A recycled
   record keeps all of it, start event included, across its lives. *)
let init_thread t th =
  let open Effect.Deep in
  (* A fresh generation per suspension: a [resume] carrying an old
     generation (or arriving while the thread is already runnable) is a
     double or stale resume. *)
  let block k =
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
        block k;
        th.runnable <- true;
        at t time th.wake)
  in
  let on_park =
    Some
      (fun k ->
        t.parking <- false;
        block k)
  in
  let handler =
    {
      retc =
        (fun () ->
          th.finished <- true;
          trace_thread t th Trace.Thread_exit;
          if th.detached then retire t th);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Delay when t.wake_at >= 0 -> on_delay
          | Park when t.parking -> on_park
          | Suspend (owner, register) when owner == t ->
            Some
              (fun k ->
                block k;
                let gen = th.suspend_gen in
                register (fun time ->
                    if gen <> th.suspend_gen then
                      failwith (Printf.sprintf "Sim: thread %S resumed twice" th.name);
                    unpark t th time))
          | _ -> None);
    }
  in
  let enter th = match_with th.body () handler in
  th.start <- (fun () -> run_burst t th enter th)

(* Append [th] to the tid-indexed table under the next tid, doubling the
   backing array as needed (the table replaces the old newest-first list,
   so diagnostics walk threads in tid order and tid lookups are O(1)). *)
let register_thread t th =
  let cap = Array.length t.threads in
  if t.next_tid >= cap then begin
    let table = Array.make (max 8 (2 * cap)) th in
    Array.blit t.threads 0 table 0 t.next_tid;
    t.threads <- table
  end;
  th.tid <- t.next_tid;
  t.threads.(t.next_tid) <- th;
  t.next_tid <- t.next_tid + 1

(* Register [th] (its cpu, name and body already set) and schedule its
   start at the current time. *)
let launch t th =
  register_thread t th;
  Trace.register_thread t.tracer ~tid:th.tid ~cpu:th.cpu th.name;
  (* The fork edge: when the spawner is itself a simulated thread, its
     past happens-before everything the child does.  Emitted with the
     parent's tid so the happens-before checker can seed the child's
     clock from it; top-level spawns (setup code) have no parent edge. *)
  if Trace.enabled t.tracer then begin
    if t.current != no_thread then
      trace_thread t t.current (Trace.Thread_fork { child = th.tid });
    trace_thread t th (Trace.Thread_spawn { name = th.name })
  end;
  at t t.now th.start

let new_thread t ~cpu ~name ~detached body =
  let th =
    {
      tid = -1;
      cpu;
      name;
      finished = false;
      runnable = true;
      waited_ns = 0;
      suspend_gen = 0;
      parked = no_k;
      wake = nop;
      body;
      start = nop;
      detached;
    }
  in
  init_thread t th;
  th

let spawn t ?cpu ~name body =
  let cpu =
    match cpu with
    | Some c -> c
    | None ->
      let c = t.next_cpu in
      t.next_cpu <- t.next_cpu + 1;
      c
  in
  let th = new_thread t ~cpu ~name ~detached:false body in
  launch t th;
  th

let spawn_detached t ~cpu ~name body =
  if Ring.is_empty t.spare then launch t (new_thread t ~cpu ~name ~detached:true body)
  else begin
    let th = Ring.pop_last t.spare in
    th.cpu <- cpu;
    th.name <- name;
    th.finished <- false;
    th.runnable <- true;
    th.waited_ns <- 0;
    (* [suspend_gen] runs on across lives, so a resume function left over
       from an earlier life is still refused as stale. *)
    th.body <- body;
    launch t th
  end

let in_thread t = t.current != no_thread

let suspend t register =
  if t.defer_on then
    failwith "Sim.suspend: blocking operation inside a deferred-charge section";
  Effect.perform (Suspend (t, register))

let park t =
  if t.defer_on then
    failwith "Sim.park: blocking operation inside a deferred-charge section";
  t.parking <- true;
  Effect.perform Park

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

(* The suspend/resume machinery exists to let *other* pending events run
   while a thread waits.  When there provably are none — every heap event
   is strictly later than the wake-up — a [delay] can simply advance the
   clock in place: no effect, no continuation capture, no heap
   round-trip.  Dispatch order is untouched, because the skipped resume
   event would have been the next one popped anyway.  It still counts
   toward [processed] (and, when the clock moves, [instants]), so event
   totals match the suspend path.  Gated off when tracing: the real path
   emits Thread_block/Thread_resume records that replay analysis
   consumes. *)
let delay_fast t d =
  let wake = t.now + d in
  if
    t.current != no_thread && (not t.stopping)
    && wake <= t.limit
    && (not (Trace.enabled t.tracer))
    && (Eventq.is_empty t.events || Eventq.peek_time_exn t.events > wake)
  then begin
    if d > 0 then begin
      t.instant <- wake;
      t.instants <- t.instants + 1
    end;
    t.now <- wake;
    t.processed <- t.processed + 1;
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

(* The event loop: one event per iteration, in (time, seq) order.
   [peek_time_exn]/[pop_exn] return immediates rather than options or
   tuples, and emptiness is checked up front. *)
let run ?until t =
  t.stopping <- false;
  t.limit <- (match until with Some l -> l | None -> max_int);
  let continue_ = ref true in
  while !continue_ && not t.stopping do
    if Eventq.is_empty t.events then continue_ := false
    else begin
      let time = Eventq.peek_time_exn t.events in
      if time > t.limit then continue_ := false
      else begin
        let action = Eventq.pop_exn t.events in
        assert (time >= t.now);
        if time <> t.instant then begin
          t.instant <- time;
          t.instants <- t.instants + 1
        end;
        t.now <- time;
        t.processed <- t.processed + 1;
        action ()
      end
    end
  done;
  match until with
  | Some limit when not t.stopping -> t.now <- max t.now limit
  | _ -> ()

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
let instants t = t.instants

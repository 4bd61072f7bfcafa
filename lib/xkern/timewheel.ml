open Pnp_engine

(* Chains are intrusive: an entry links to the next one of its slot, and
   [nil] ends a chain, so scheduling and servicing build no list
   cells. *)
type entry = {
  fire_tick : int;
  action : unit -> unit;
  mutable state : [ `Pending | `Cancelled | `Fired ];
  mutable next : entry;
}

type handle = entry

let rec nil = { fire_tick = max_int; action = ignore; state = `Cancelled; next = nil }

type t = {
  plat : Platform.t;
  tick_prefix : string; (* [name ^ ".tick"]: service threads' name stem *)
  slot_ns : int;
  cpu : int;
  chains : entry array; (* chain heads, newest first *)
  chain_locks : Lock.t array;
  mutable pending : int;
  mutable fired : int;
  mutable armed : int;
      (** tick of the engine event that will service the wheel next, or
          [no_tick] while none is posted *)
  mutable tick_event : unit -> unit; (* the posted engine event, built once *)
  mutable service_body : unit -> unit; (* a service thread's body, built once *)
}

let no_tick = max_int

let nslots t = Array.length t.chains

(* A posted tick event fires, and the service thread it spawns starts, at
   [tick * slot_ns]: both read their tick off the clock. *)
let current_tick t = Sim.now t.plat.Platform.sim / t.slot_ns

(* The chain lock, taken only inside a simulated thread (setup code
   schedules from outside any).  Returns whether it was taken. *)
let lock_chain t slot =
  Sim.in_thread t.plat.Platform.sim
  && begin
    Lock.acquire t.chain_locks.(slot);
    true
  end

let unlock_chain t slot locked = if locked then Lock.release t.chain_locks.(slot)

(* The first tick from [base] on at which a wheel visiting every tick would
   find [e] due: its own tick, or whole revolutions later if that tick went
   by unvisited (a service thread overran its slot, or taking the chain
   lock carried a [schedule] past it). *)
let due_tick n base e =
  if e.fire_tick >= base then e.fire_tick
  else e.fire_tick + ((base - e.fire_tick + n - 1) / n * n)

let rec chain_earliest n base best e =
  if e == nil then best
  else
    let d = due_tick n base e in
    chain_earliest n base (if d < best then d else best) e.next

let rec chain_has_due tick e = e != nil && (e.fire_tick <= tick || chain_has_due tick e.next)

(* Unlink the entries of chain [slot] due at [tick], keeping both them
   and the entries that stay in chain order; returns the first due
   entry, the due ones linked through [next].  [prev] is the last entry
   kept so far ([nil]: none, the slot's head is next to rewrite). *)
let rec take_due t slot tick prev e due_head due_tail =
  if e == nil then begin
    if due_tail != nil then due_tail.next <- nil;
    due_head
  end
  else begin
    let next = e.next in
    if e.fire_tick > tick then take_due t slot tick e next due_head due_tail
    else begin
      if prev == nil then t.chains.(slot) <- next else prev.next <- next;
      if due_tail == nil then take_due t slot tick prev next e e
      else begin
        due_tail.next <- e;
        take_due t slot tick prev next due_head e
      end
    end
  end

(* Fire a detached list of due entries in order.  An entry cancelled
   after it was unlinked is skipped. *)
let rec fire_due t e =
  if e != nil then begin
    let next = e.next in
    e.next <- nil;
    (match e.state with
     | `Cancelled -> ()
     | `Fired -> assert false
     | `Pending ->
       e.state <- `Fired;
       t.pending <- t.pending - 1;
       t.fired <- t.fired + 1;
       e.action ());
    fire_due t next
  end

(* Service all due entries of the slot for [tick], then arm the next tick
   with work due. *)
let rec service t tick =
  let slot = tick mod nslots t in
  let locked = lock_chain t slot in
  match take_due t slot tick nil t.chains.(slot) nil nil with
  | due ->
    unlock_chain t slot locked;
    fire_due t due;
    arm t
  | exception e ->
    unlock_chain t slot locked;
    raise e

(* The engine event for [tick].  An event whose tick is no longer the armed
   one was overtaken by an earlier schedule and does nothing; an armed tick
   whose entries were all cancelled re-arms.  The service thread is
   detached, so its record and closures are recycled tick to tick. *)
and on_tick t tick =
  if tick = t.armed then begin
    t.armed <- no_tick;
    if chain_has_due tick t.chains.(tick mod nslots t) then
      Sim.spawn_detached t.plat.Platform.sim ~cpu:t.cpu
        ~name:(t.tick_prefix ^ string_of_int tick)
        t.service_body
    else arm t
  end

and post t tick =
  t.armed <- tick;
  Sim.at t.plat.Platform.sim (tick * t.slot_ns) t.tick_event

(* Post one event at the earliest tick with work due.  Nothing is armed
   while a service thread runs, so the scan starts at the next tick. *)
and arm t =
  if t.pending > 0 && t.armed = no_tick then begin
    let n = nslots t in
    let base = current_tick t + 1 in
    let best = ref no_tick in
    for i = 0 to n - 1 do
      best := chain_earliest n base !best t.chains.(i)
    done;
    if !best <> no_tick then post t !best
  end

let create plat ?(slot_ns = Pnp_util.Units.ms 10.0) ?(slots = 128) ?(cpu = 0) ~name () =
  if slots <= 0 then invalid_arg "Timewheel.create: slots must be positive";
  let chain_locks =
    Array.init slots (fun i ->
        Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair
          ~name:(name ^ ".chain" ^ string_of_int i))
  in
  let t =
    {
      plat;
      tick_prefix = name ^ ".tick";
      slot_ns;
      cpu;
      chains = Array.make slots nil;
      chain_locks;
      pending = 0;
      fired = 0;
      armed = no_tick;
      tick_event = ignore;
      service_body = ignore;
    }
  in
  t.tick_event <- (fun () -> on_tick t (current_tick t));
  t.service_body <- (fun () -> service t (current_tick t));
  t

let schedule t ~after action =
  if after < 0 then invalid_arg "Timewheel.schedule: negative delay";
  let now = Sim.now t.plat.Platform.sim in
  let fire_tick = max ((now + after + t.slot_ns - 1) / t.slot_ns) ((now / t.slot_ns) + 1) in
  let e = { fire_tick; action; state = `Pending; next = nil } in
  let slot = fire_tick mod nslots t in
  let locked = lock_chain t slot in
  (match
     e.next <- t.chains.(slot);
     t.chains.(slot) <- e
   with
   | () -> unlock_chain t slot locked
   | exception ex ->
     unlock_chain t slot locked;
     raise ex);
  t.pending <- t.pending + 1;
  (if t.armed = no_tick then arm t
   else
     let d = due_tick (nslots t) (current_tick t + 1) e in
     if d < t.armed then post t d);
  e

(* Unlink [target] from the chain starting at [e]; an entry already
   taken off by a service thread is not found and stays where it is. *)
let rec unlink t slot prev e target =
  if e != nil then
    if e == target then begin
      if prev == nil then t.chains.(slot) <- e.next else prev.next <- e.next;
      e.next <- nil
    end
    else unlink t slot e e.next target

let cancel t e =
  let slot = e.fire_tick mod nslots t in
  let locked = lock_chain t slot in
  let cancelled =
    match e.state with
    | `Pending ->
      e.state <- `Cancelled;
      t.pending <- t.pending - 1;
      (* Unlink eagerly; the chain is short. *)
      unlink t slot nil t.chains.(slot) e;
      true
    | `Cancelled | `Fired -> false
  in
  unlock_chain t slot locked;
  cancelled

let pending t = t.pending
let fired t = t.fired

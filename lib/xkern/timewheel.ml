open Pnp_engine

type entry = {
  fire_tick : int;
  action : unit -> unit;
  mutable state : [ `Pending | `Cancelled | `Fired ];
}

type handle = entry

type t = {
  plat : Platform.t;
  name : string;
  slot_ns : int;
  cpu : int;
  chains : entry list array;
  chain_locks : Lock.t array;
  mutable pending : int;
  mutable fired : int;
  mutable armed : int;
      (** tick of the engine event that will service the wheel next, or
          [no_tick] while none is posted *)
}

let no_tick = max_int

let create plat ?(slot_ns = Pnp_util.Units.ms 10.0) ?(slots = 128) ?(cpu = 0) ~name () =
  if slots <= 0 then invalid_arg "Timewheel.create: slots must be positive";
  let chain_locks =
    Array.init slots (fun i ->
        Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair
          ~name:(name ^ ".chain" ^ string_of_int i))
  in
  {
    plat;
    name;
    slot_ns;
    cpu;
    chains = Array.make slots [];
    chain_locks;
    pending = 0;
    fired = 0;
    armed = no_tick;
  }

let nslots t = Array.length t.chains

let with_chain_lock t i f =
  if Sim.in_thread t.plat.Platform.sim then Lock.with_lock t.chain_locks.(i) f
  else f ()

(* The first tick from [base] on at which a wheel visiting every tick would
   find [e] due: its own tick, or whole revolutions later if that tick went
   by unvisited (a service thread overran its slot, or taking the chain
   lock carried a [schedule] past it). *)
let due_tick n base e =
  if e.fire_tick >= base then e.fire_tick
  else e.fire_tick + ((base - e.fire_tick + n - 1) / n * n)

let rec chain_earliest n base best = function
  | [] -> best
  | e :: rest ->
    let d = due_tick n base e in
    chain_earliest n base (if d < best then d else best) rest

let rec chain_has_due tick = function
  | [] -> false
  | e :: rest -> e.fire_tick <= tick || chain_has_due tick rest

(* Service all due entries of the slot for [tick], then arm the next tick
   with work due. *)
let rec service t tick =
  let slot = tick mod nslots t in
  let due = ref [] in
  with_chain_lock t slot (fun () ->
      let stay, fire = List.partition (fun e -> e.fire_tick > tick) t.chains.(slot) in
      t.chains.(slot) <- stay;
      due := fire);
  List.iter
    (fun e ->
      match e.state with
      | `Cancelled -> ()
      | `Fired -> assert false
      | `Pending ->
        e.state <- `Fired;
        t.pending <- t.pending - 1;
        t.fired <- t.fired + 1;
        e.action ())
    !due;
  arm t

(* The engine event for [tick].  An event whose tick is no longer the armed
   one was overtaken by an earlier schedule and does nothing; an armed tick
   whose entries were all cancelled re-arms. *)
and on_tick t tick =
  if tick = t.armed then begin
    t.armed <- no_tick;
    if chain_has_due tick t.chains.(tick mod nslots t) then
      ignore
        (Sim.spawn t.plat.Platform.sim ~cpu:t.cpu
           ~name:(t.name ^ ".tick" ^ string_of_int tick)
           (fun () -> service t tick))
    else arm t
  end

and post t tick =
  t.armed <- tick;
  Sim.at t.plat.Platform.sim (tick * t.slot_ns) (fun () -> on_tick t tick)

(* Post one event at the earliest tick with work due.  Nothing is armed
   while a service thread runs, so the scan starts at the next tick. *)
and arm t =
  if t.pending > 0 && t.armed = no_tick then begin
    let n = nslots t in
    let base = (Sim.now t.plat.Platform.sim / t.slot_ns) + 1 in
    let best = ref no_tick in
    for i = 0 to n - 1 do
      best := chain_earliest n base !best t.chains.(i)
    done;
    if !best <> no_tick then post t !best
  end

let schedule t ~after action =
  if after < 0 then invalid_arg "Timewheel.schedule: negative delay";
  let now = Sim.now t.plat.Platform.sim in
  let fire_tick = max ((now + after + t.slot_ns - 1) / t.slot_ns) ((now / t.slot_ns) + 1) in
  let e = { fire_tick; action; state = `Pending } in
  let slot = fire_tick mod nslots t in
  with_chain_lock t slot (fun () -> t.chains.(slot) <- e :: t.chains.(slot));
  t.pending <- t.pending + 1;
  (if t.armed = no_tick then arm t
   else
     let d = due_tick (nslots t) ((Sim.now t.plat.Platform.sim / t.slot_ns) + 1) e in
     if d < t.armed then post t d);
  e

let cancel t e =
  let slot = e.fire_tick mod nslots t in
  with_chain_lock t slot (fun () ->
      match e.state with
      | `Pending ->
        e.state <- `Cancelled;
        t.pending <- t.pending - 1;
        (* Unlink eagerly; the chain is short. *)
        t.chains.(slot) <- List.filter (fun e' -> e' != e) t.chains.(slot);
        true
      | `Cancelled | `Fired -> false)

let pending t = t.pending
let fired t = t.fired

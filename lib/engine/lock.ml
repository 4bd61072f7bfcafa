open Pnp_util

type discipline = Unfair | Fifo | Barging

type waiter = { th : Sim.thread; resume : int -> unit }

type t = {
  sim : Sim.t;
  arch : Arch.t;
  disc : discipline;
  name : string;
  acquire_ns : int;
  mutable owner : Sim.thread option;
  mutable last_cpu : int;
  mutable waiters : waiter list; (* in arrival order *)
  mutable hold_start : int;
  mutable acquisitions : int;
  mutable contended : int;
  mutable total_wait_ns : int;
  mutable total_hold_ns : int;
}

let discipline_name = function
  | Unfair -> "unfair"
  | Fifo -> "fifo"
  | Barging -> "barging"

let create sim arch disc ~name =
  let acquire_ns =
    match disc with
    | Unfair | Barging -> arch.Arch.mutex_ns
    | Fifo -> arch.Arch.mcs_ns
  in
  Trace.register_lock (Sim.tracer sim) ~name ~discipline:(discipline_name disc);
  {
    sim;
    arch;
    disc;
    name;
    acquire_ns;
    owner = None;
    last_cpu = -1;
    waiters = [];
    hold_start = 0;
    acquisitions = 0;
    contended = 0;
    total_wait_ns = 0;
    total_hold_ns = 0;
  }

let discipline t = t.disc
let name t = t.name

let trace t ev =
  let tracer = Sim.tracer t.sim in
  if Trace.enabled tracer then
    let th = Sim.self t.sim in
    Trace.emit tracer ~ts:(Sim.now t.sim) ~tid:(Sim.tid th) ~cpu:(Sim.cpu th) ev

let migration_ns t th =
  match t.arch.Arch.sync with
  | Arch.Sync_bus -> 0
  | Arch.Coherency ->
    if t.last_cpu >= 0 && t.last_cpu <> Sim.cpu th then t.arch.Arch.coherency_ns
    else 0

let become_owner t th ~grant_time =
  t.owner <- Some th;
  t.last_cpu <- Sim.cpu th;
  t.acquisitions <- t.acquisitions + 1;
  t.hold_start <- grant_time

let acquire t =
  if Sim.defer_active t.sim then
    (* Deferred-charge section (SCR replay): the section re-executes code
       that took this lock, but a replica's lock operations are local —
       there is no cross-thread lock to contend on.  Charge the lock
       instruction cost and skip ownership entirely; the matching
       [release] below is a no-op.  Sections are host-atomic, so no other
       thread can observe the skipped ownership. *)
    Sim.delay t.sim t.acquire_ns
  else begin
  let th = Sim.self t.sim in
  (* The lock operation itself (test-and-set / MCS swap) costs time before
     we learn the outcome; another thread may slip in during it. *)
  Sim.delay t.sim t.acquire_ns;
  if Trace.enabled (Sim.tracer t.sim) then
    trace t (Trace.Lock_request { lock = t.name; waiters = List.length t.waiters });
  match t.owner with
  | None ->
    let mig = migration_ns t th in
    become_owner t th ~grant_time:(Sim.now t.sim + mig);
    if Trace.enabled (Sim.tracer t.sim) then
      trace t (Trace.Lock_grant { lock = t.name; waiters = 0; wait_ns = 0 });
    if mig > 0 then Sim.delay t.sim mig
  | Some _ ->
    t.contended <- t.contended + 1;
    let enq_time = Sim.now t.sim in
    Sim.suspend t.sim (fun resume ->
        t.waiters <- t.waiters @ [ { th; resume } ]);
    (* Resumed by [release]; ownership and stats were set there. *)
    let waited = Sim.now t.sim - enq_time in
    t.total_wait_ns <- t.total_wait_ns + waited;
    Sim.note_wait th waited;
    if Trace.enabled (Sim.tracer t.sim) then
      trace t
        (Trace.Lock_grant
           { lock = t.name; waiters = List.length t.waiters; wait_ns = waited })
  end

(* Remove and return the waiter chosen by the discipline.  Unfair locks
   model the IRIX mutex: the grant goes to an arbitrary waiter. *)
let pick_waiter t =
  match t.waiters with
  | [] -> None
  | [ w ] ->
    t.waiters <- [];
    Some w
  | ws -> (
    match t.disc with
    | Fifo ->
      (match ws with
       | w :: rest ->
         t.waiters <- rest;
         Some w
       | [] -> None)
    | Barging ->
      (* newest arrival wins the test-and-set race *)
      (match List.rev ws with
       | w :: rest_rev ->
         t.waiters <- List.rev rest_rev;
         Some w
       | [] -> None)
    | Unfair ->
      let i = Prng.int (Sim.prng t.sim) (List.length ws) in
      let w = List.nth ws i in
      t.waiters <- List.filteri (fun j _ -> j <> i) ws;
      Some w)

(* A non-owner release is always a caller bug; name everyone involved so
   the report is actionable without a debugger. *)
let non_owner_release ~what ~lock ~owner th =
  let owner_desc =
    match owner with
    | Some o -> Printf.sprintf "owned by tid %d (%s)" (Sim.tid o) (Sim.thread_name o)
    | None -> "not held"
  in
  invalid_arg
    (Printf.sprintf "%s %S: caller tid %d (%s) is not the owner; lock is %s" what lock
       (Sim.tid th) (Sim.thread_name th) owner_desc)

let release t =
  if Sim.defer_active t.sim then ()
  else begin
  let th = Sim.self t.sim in
  (match t.owner with
   | Some o when o == th -> ()
   | owner -> non_owner_release ~what:"Lock.release" ~lock:t.name ~owner th);
  let now = Sim.now t.sim in
  t.total_hold_ns <- t.total_hold_ns + (now - t.hold_start);
  if Trace.enabled (Sim.tracer t.sim) then
    trace t (Trace.Lock_release { lock = t.name; hold_ns = now - t.hold_start });
  match pick_waiter t with
  | None ->
    t.owner <- None;
    t.last_cpu <- Sim.cpu th
  | Some w ->
    let mig = migration_ns t w.th in
    let grant_time = now + t.arch.Arch.handoff_ns + mig in
    if Trace.enabled (Sim.tracer t.sim) then
      trace t
        (Trace.Lock_handoff
           {
             lock = t.name;
             to_tid = Sim.tid w.th;
             handoff_ns = t.arch.Arch.handoff_ns + mig;
           });
    become_owner t w.th ~grant_time;
    w.resume grant_time
  end

(* Release on both paths without [Fun.protect]'s per-call finaliser
   closure: critical sections run once per packet. *)
let with_lock t f =
  acquire t;
  match f () with
  | v ->
    release t;
    v
  | exception e ->
    release t;
    raise e

let holding t =
  match t.owner with Some o -> o == Sim.self t.sim | None -> false

let acquisitions t = t.acquisitions
let contended_acquisitions t = t.contended
let total_wait_ns t = t.total_wait_ns
let total_hold_ns t = t.total_hold_ns

let reset_stats t =
  t.acquisitions <- 0;
  t.contended <- 0;
  t.total_wait_ns <- 0;
  t.total_hold_ns <- 0

module Counting = struct
  type nonrec t = { lock : t; mutable owner : Sim.thread option; mutable depth : int }

  let create sim arch disc ~name = { lock = create sim arch disc ~name; owner = None; depth = 0 }

  let acquire t =
    let th = Sim.self t.lock.sim in
    match t.owner with
    | Some o when o == th -> t.depth <- t.depth + 1
    | _ ->
      acquire t.lock;
      t.owner <- Some th;
      t.depth <- 1

  let release t =
    let th = Sim.self t.lock.sim in
    (match t.owner with
     | Some o when o == th -> ()
     | owner ->
       non_owner_release ~what:"Lock.Counting.release" ~lock:t.lock.name ~owner th);
    t.depth <- t.depth - 1;
    if t.depth = 0 then begin
      t.owner <- None;
      release t.lock
    end

  let with_lock t f =
    acquire t;
    match f () with
    | v ->
      release t;
      v
    | exception e ->
      release t;
      raise e

  let depth t = t.depth
  let underlying t = t.lock
end

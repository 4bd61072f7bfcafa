(* Flamegraph-friendly sampling profiler for the host engine.

   `bench --profile FILE` and `repro perf --profile FILE` need to say
   *where* host time goes when the events-per-second figure moves, not
   just that it moved.  OCaml has no built-in sampling profiler, but it
   has the two halves of one: [Unix.setitimer ITIMER_PROF] delivers
   SIGPROF every quantum of consumed CPU time, and
   [Printexc.get_callstack] captures the current call stack from any
   OCaml code — including a signal handler, which the runtime runs at
   the program's next safe point, i.e. on top of the frames we want.

   Each sample is collapsed to a "root;caller;...;leaf" line keyed in a
   table of counts; [write] emits the classic collapsed-stacks format
   ("stack count" per line) that flamegraph.pl, speedscope and most
   flamegraph viewers consume directly.

   Runtime leaves are folded into their caller.  A sample often lands
   in a frame with neither a name nor a location (runtime code reached
   from an allocation, an effect or a poll), which collapses to "?".  A run of such frames at the leaf end becomes one frame
   "[runtime] <Caller>", named after the nearest named OCaml frame
   above it, so the self time is charged to code that can be changed.

   Caveats, stated rather than hidden: samples land on safe points
   (allocations and loop polls), where the runtime handles the signal,
   so allocating code is over-represented and allocation-free loops
   under-sample (the sift loops in Eventq bias toward their callers);
   and frame names come from debug info — functions inlined by
   flambda-less OCaml keep their names, which is the common case for
   this repo's builds. *)

type t = {
  counts : (string, int ref) Hashtbl.t;
  mutable samples : int;
  mutable truncated : int; (* stacks deeper than the capture limit *)
}

let max_depth = 64

(* One profiler can run at a time (SIGPROF is process-wide). *)
let active : t option ref = ref None

let runtime_leaf = "?"

let frame_name slot =
  match Printexc.Slot.name slot with
  | Some n -> n
  | None -> (
    match Printexc.Slot.location slot with
    | Some loc -> Printf.sprintf "%s:%d" loc.Printexc.filename loc.Printexc.line_number
    | None -> runtime_leaf)

(* [names] runs outermost first.  A trailing run of unnamed frames
   becomes "[runtime] <Caller>" under its nearest named caller; a stack
   with no named frame at all is left as it is. *)
let fold_runtime_leaves names =
  let rec drop = function f :: rest when f = runtime_leaf -> drop rest | rest -> rest in
  match List.rev names with
  | f :: _ as leaf_first when f = runtime_leaf -> (
    match drop leaf_first with
    | [] -> names
    | caller :: _ as rest -> List.rev (("[runtime] " ^ caller) :: rest))
  | _ -> names

let record t raw =
  t.samples <- t.samples + 1;
  let n = Printexc.raw_backtrace_length raw in
  if n >= max_depth then t.truncated <- t.truncated + 1;
  (* Walk from the leaf (index 0) outwards, consing, so [names] ends up
     outermost first, the order of a collapsed line. *)
  let names = ref [] in
  for i = 0 to n - 1 do
    let entry = Printexc.get_raw_backtrace_slot raw i in
    let slot = Printexc.convert_raw_backtrace_slot entry in
    let name = frame_name slot in
    (* The handler's own frames sit below the program's; drop them. *)
    if name <> "Pnp_harness__Profiler.handler" && name <> "Pnp_harness__Profiler.record"
    then names := name :: !names
  done;
  let key =
    match fold_runtime_leaves !names with
    | [] -> "(unknown)"
    | frames -> String.concat ";" frames
  in
  match Hashtbl.find_opt t.counts key with
  | Some r -> incr r
  | None -> Hashtbl.replace t.counts key (ref 1)

let handler _ =
  match !active with
  | None -> ()
  | Some t -> record t (Printexc.get_callstack max_depth)

(* Start sampling at [hz] (default 997 Hz — prime, so the sampler does
   not phase-lock with millisecond-periodic work). *)
let start ?(hz = 997) () =
  if !active <> None then invalid_arg "Profiler.start: already profiling";
  let interval_us = max 1 (1_000_000 / hz) in
  let t = { counts = Hashtbl.create 1024; samples = 0; truncated = 0 } in
  active := Some t;
  ignore (Sys.signal Sys.sigprof (Sys.Signal_handle handler));
  let v = float_of_int interval_us /. 1e6 in
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = v; it_value = v });
  t

let stop t =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  ignore (Sys.signal Sys.sigprof Sys.Signal_default);
  active := None;
  t.samples

let samples t = t.samples

(* Heaviest stack first, so a plain `sort | head` or an eyeball both
   work on the written file without tooling. *)
let stacks t =
  let rows = Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.counts [] in
  List.sort (fun (_, a) (_, b) -> compare b a) rows

let write t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun (stack, n) -> Printf.fprintf oc "%s %d\n" stack n) (stacks t))

(* Run [f] under the profiler and write the profile; returns [f ()]'s
   result and the sample count. *)
let profile ?hz ~file f =
  let t = start ?hz () in
  let finish () = ignore (stop t); write t file in
  match f () with
  | v ->
    finish ();
    (v, t.samples)
  | exception e ->
    finish ();
    raise e

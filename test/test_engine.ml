open Pnp_util
open Pnp_engine

let arch = Arch.challenge_100

(* ------------------------------------------------------------------ *)
(* Eventq                                                              *)
(* ------------------------------------------------------------------ *)

let test_eventq_order () =
  let q = Eventq.create () in
  Eventq.add q ~time:30 "c";
  Eventq.add q ~time:10 "a";
  Eventq.add q ~time:20 "b";
  let popped =
    List.init 3 (fun _ ->
        let t = Eventq.peek_time_exn q in
        (t, Eventq.pop_exn q))
  in
  Alcotest.(check (list (pair int string)))
    "time order"
    [ (10, "a"); (20, "b"); (30, "c") ]
    popped;
  Alcotest.(check bool) "empty" true (Eventq.is_empty q)

let test_eventq_fifo_ties () =
  let q = Eventq.create () in
  List.iter (fun s -> Eventq.add q ~time:5 s) [ "x"; "y"; "z" ];
  let popped = List.init 3 (fun _ -> Eventq.pop_exn q) in
  Alcotest.(check (list string)) "insertion order at equal time" [ "x"; "y"; "z" ] popped

let test_eventq_pop_empty () =
  let q = Eventq.create () in
  Alcotest.(check bool) "peek none" true (Eventq.peek_time q = None);
  Alcotest.(check int) "size" 0 (Eventq.size q)

let test_eventq_pop_exn () =
  let q = Eventq.create () in
  Eventq.add q ~time:20 "b";
  Eventq.add q ~time:10 "a";
  Alcotest.(check int) "peek_time_exn" 10 (Eventq.peek_time_exn q);
  Alcotest.(check string) "earliest payload" "a" (Eventq.pop_exn q);
  Alcotest.(check string) "then next" "b" (Eventq.pop_exn q);
  (match Eventq.pop_exn q with
   | _ -> Alcotest.fail "pop_exn on empty must raise"
   | exception Eventq.Empty -> ());
  match Eventq.peek_time_exn q with
  | _ -> Alcotest.fail "peek_time_exn on empty must raise"
  | exception Eventq.Empty -> ()

let prop_eventq_sorted =
  QCheck.Test.make ~name:"eventq pops sorted" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) small_nat)
    (fun times ->
      let q = Eventq.create () in
      List.iter (fun t -> Eventq.add q ~time:t ()) times;
      let rec drain acc =
        if Eventq.is_empty q then List.rev acc
        else
          let t = Eventq.peek_time_exn q in
          let () = Eventq.pop_exn q in
          drain (t :: acc)
      in
      let out = drain [] in
      out = List.sort compare times)

(* Random interleavings of add and pop — long enough to cross several
   internal array grows — must drain in exact (time, seq) order against
   a sorted-list oracle, with FIFO tie-breaking at equal times.  Each
   op is (true, t) = add at time t (payload: the event's sequence
   number) or (false, _) = pop. *)
let prop_eventq_interleaved_oracle =
  QCheck.Test.make ~name:"eventq interleaved add/pop vs oracle" ~count:100
    QCheck.(list_of_size Gen.(0 -- 600) (pair bool (int_bound 40)))
    (fun ops ->
      let q = Eventq.create () in
      (* Oracle: pending (time, seq) pairs kept sorted lexicographically;
         seq assignment matches Eventq's monotone internal counter, so a
         plain sorted insert preserves FIFO ties. *)
      let pending = ref [] and next_seq = ref 0 in
      let insert ts =
        let rec go = function
          | [] -> [ ts ]
          | hd :: tl -> if ts < hd then ts :: hd :: tl else hd :: go tl
        in
        pending := go !pending
      in
      let ok = ref true in
      List.iter
        (fun (is_add, time) ->
          if is_add then begin
            Eventq.add q ~time !next_seq;
            insert (time, !next_seq);
            incr next_seq
          end
          else
            match !pending with
            | [] ->
              if not (Eventq.is_empty q) then ok := false;
              (match Eventq.pop_exn q with
               | _ -> ok := false
               | exception Eventq.Empty -> ())
            | (t, s) :: rest ->
              if Eventq.peek_time_exn q <> t then ok := false;
              if Eventq.pop_exn q <> s then ok := false;
              pending := rest)
        ops;
      (* Drain what's left: every remaining event in oracle order. *)
      List.iter
        (fun (t, s) ->
          if Eventq.peek_time_exn q <> t then ok := false;
          if Eventq.pop_exn q <> s then ok := false)
        !pending;
      !ok && Eventq.is_empty q)

(* Batched drains against the one-at-a-time oracle: any interleaving of
   adds and [pop_run] drains — including adds landing between drains at
   times at or below the pending minimum — must yield exactly the events
   repeated [pop_exn] calls on a twin queue produce, FIFO at ties.  The
   payloads are the events' sequence numbers, so an ordering slip inside
   a run is visible, not just a wrong multiset. *)
let prop_eventq_pop_run_oracle =
  QCheck.Test.make ~name:"eventq pop_run drains match the pop_exn oracle" ~count:100
    QCheck.(list_of_size Gen.(0 -- 400) (pair bool (int_bound 25)))
    (fun ops ->
      let batched = Eventq.create () and oracle = Eventq.create () in
      let buf = ref (Array.make 1 0) in
      let next_seq = ref 0 in
      let ok = ref true in
      let drain_one_run () =
        if Eventq.is_empty batched then begin
          if not (Eventq.is_empty oracle) then ok := false
        end
        else begin
          let t = Eventq.peek_time_exn batched in
          let n = Eventq.pop_run batched buf in
          if n <= 0 then ok := false;
          for i = 0 to n - 1 do
            if Eventq.peek_time_exn oracle <> t then ok := false;
            if Eventq.pop_exn oracle <> !buf.(i) then ok := false
          done;
          (* The run must be maximal: the oracle's next event, if any,
             sits at a strictly later time. *)
          match Eventq.peek_time oracle with
          | Some t' when t' = t -> ok := false
          | _ -> ()
        end
      in
      List.iter
        (fun (is_add, time) ->
          if is_add then begin
            Eventq.add batched ~time !next_seq;
            Eventq.add oracle ~time !next_seq;
            incr next_seq
          end
          else drain_one_run ())
        ops;
      while not (Eventq.is_empty batched) do
        drain_one_run ()
      done;
      !ok && Eventq.is_empty oracle)

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sim_delay () =
  let sim = Sim.create () in
  let trace = ref [] in
  let _ =
    Sim.spawn sim ~name:"t" (fun () ->
        Sim.delay sim 100;
        trace := (Sim.now sim, "a") :: !trace;
        Sim.delay sim 50;
        trace := (Sim.now sim, "b") :: !trace)
  in
  Sim.run sim;
  Alcotest.(check (list (pair int string))) "timeline" [ (100, "a"); (150, "b") ] (List.rev !trace)

let test_sim_interleaving () =
  let sim = Sim.create () in
  let trace = ref [] in
  let mk name d =
    ignore
      (Sim.spawn sim ~name (fun () ->
           Sim.delay sim d;
           trace := name :: !trace))
  in
  mk "slow" 200;
  mk "fast" 100;
  Sim.run sim;
  Alcotest.(check (list string)) "completion order" [ "fast"; "slow" ] (List.rev !trace)

let test_sim_run_until () =
  let sim = Sim.create () in
  let hits = ref 0 in
  let _ =
    Sim.spawn sim ~name:"ticker" (fun () ->
        for _ = 1 to 100 do
          Sim.delay sim 10;
          incr hits
        done)
  in
  Sim.run ~until:55 sim;
  Alcotest.(check int) "five ticks by t=55" 5 !hits;
  Alcotest.(check int) "clock at limit" 55 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "all ticks eventually" 100 !hits

let test_sim_at_callback () =
  let sim = Sim.create () in
  let fired = ref (-1) in
  Sim.at sim 42 (fun () -> fired := Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "fired at 42" 42 !fired

let test_sim_at_past_rejected () =
  let sim = Sim.create () in
  Sim.at sim 10 (fun () ->
      match Sim.at sim 5 (fun () -> ()) with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
  Sim.run sim

let test_sim_self_outside_thread () =
  let sim = Sim.create () in
  match Sim.self sim with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ()

let test_sim_suspend_resume () =
  let sim = Sim.create () in
  let resumer = ref None in
  let woke_at = ref (-1) in
  let _ =
    Sim.spawn sim ~name:"sleeper" (fun () ->
        Sim.suspend sim (fun resume -> resumer := Some resume);
        woke_at := Sim.now sim)
  in
  Sim.at sim 500 (fun () -> (Option.get !resumer) 700);
  Sim.run sim;
  Alcotest.(check int) "woken at requested time" 700 !woke_at

let test_sim_double_resume_fails () =
  let sim = Sim.create () in
  let resumer = ref None in
  let _ = Sim.spawn sim ~name:"s" (fun () -> Sim.suspend sim (fun r -> resumer := Some r)) in
  Sim.at sim 10 (fun () ->
      let r = Option.get !resumer in
      r 20;
      match r 30 with
      | () -> Alcotest.fail "second resume should fail"
      | exception Failure _ -> ());
  Sim.run sim

(* The generation check lives in each [resume]: a resume kept from an
   earlier suspension must fail even once the thread has parked again on
   a new registration (so it is not runnable), instead of waking it out
   of turn. *)
let test_sim_stale_resume_fails () =
  let sim = Sim.create () in
  let first = ref None and second = ref None in
  let _ =
    Sim.spawn sim ~name:"s" (fun () ->
        Sim.suspend sim (fun r -> first := Some r);
        Sim.suspend sim (fun r -> second := Some r))
  in
  Sim.at sim 10 (fun () -> (Option.get !first) 20);
  Sim.at sim 30 (fun () ->
      Alcotest.(check bool) "parked again" true (Option.is_some !second);
      match (Option.get !first) 40 with
      | () -> Alcotest.fail "stale resume should fail"
      | exception Failure _ -> (Option.get !second) 50);
  Sim.run sim;
  Alcotest.(check int) "woken by the live resume" 50 (Sim.now sim)

(* A contended [delay] (another thread's event pending first, so no
   in-place clock advance) allocates only the continuation the runtime
   captures: no effect payload, no closure per resume.  That block is 2
   words on OCaml 5.1; the budget of 4 leaves room for a runtime whose
   block is larger and still fails on any per-resume closure. *)
let test_sim_contended_delay_alloc () =
  let n = 20_000 in
  let sim = Sim.create () in
  let body () =
    for _ = 1 to n do
      Sim.delay sim 10
    done
  in
  ignore (Sim.spawn sim ~name:"a" body);
  ignore (Sim.spawn sim ~name:"b" body);
  Sim.run ~until:0 sim;
  let processed = Sim.events_processed sim in
  let w0 = Gc.minor_words () in
  Sim.run sim;
  let words = Gc.minor_words () -. w0 in
  let delays = 2 * n in
  Alcotest.(check int) "every delay took the suspending path" delays
    (Sim.events_processed sim - processed);
  let per_delay = words /. float_of_int delays in
  if per_delay > 4.0 then
    Alcotest.failf "%.2f minor words per contended delay (budget 4)" per_delay

let test_sim_spawn_on_cpu () =
  let sim = Sim.create () in
  let th = Sim.spawn sim ~cpu:3 ~name:"pinned" (fun () -> ()) in
  Alcotest.(check int) "cpu" 3 (Sim.cpu th);
  Sim.run sim;
  Alcotest.(check bool) "finished" true (Sim.is_finished th)

let test_sim_yield_fairness () =
  (* Two threads that yield in a loop interleave at the same timestamp. *)
  let sim = Sim.create () in
  let trace = Buffer.create 16 in
  let mk name =
    ignore
      (Sim.spawn sim ~name (fun () ->
           for _ = 1 to 3 do
             Buffer.add_string trace name;
             Sim.yield sim
           done))
  in
  mk "a";
  mk "b";
  Sim.run sim;
  Alcotest.(check string) "interleaved" "ababab" (Buffer.contents trace)

let test_sim_deterministic_given_seed () =
  let run seed =
    let sim = Sim.create ~seed () in
    let order = ref [] in
    for i = 1 to 5 do
      ignore
        (Sim.spawn sim ~name:(string_of_int i) (fun () ->
             Sim.delay sim (10 * Prng.int (Sim.prng sim) 100);
             order := i :: !order))
    done;
    Sim.run sim;
    !order
  in
  Alcotest.(check (list int)) "same seed, same order" (run 9) (run 9);
  (* Not a hard guarantee for every pair of seeds, but these differ. *)
  Alcotest.(check bool) "different seeds differ" true (run 1 <> run 5)

(* Batched dispatch must be invisible: the same program in a batched and
   an unbatched world fires every callback and thread step in the same
   order at the same times, and retires the same event count.  The
   program mixes contended locks (suspend/resume), timestamp ties
   ([at] callbacks and threads landing on the same instant), zero-length
   delays and PRNG-driven jitter — everything the now-ring, run drains
   and the inline delay path each handle specially. *)
let test_sim_batching_equivalence () =
  let run batching =
    let sim = Sim.create ~seed:17 ~batching () in
    let log = ref [] in
    let note tag = log := (tag, Sim.now sim) :: !log in
    let lock = Lock.create sim arch Lock.Fifo ~name:"l" in
    for k = 1 to 3 do
      Sim.at sim (k * 500) (fun () -> note (Printf.sprintf "cb%d" k));
      Sim.at sim (k * 500) (fun () -> note (Printf.sprintf "cb%d'" k))
    done;
    for i = 1 to 4 do
      ignore
        (Sim.spawn sim ~name:(Printf.sprintf "t%d" i) (fun () ->
             for r = 1 to 10 do
               Sim.delay sim (100 * Prng.int (Sim.prng sim) 5);
               Lock.acquire lock;
               note (Printf.sprintf "t%d.%d" i r);
               Sim.delay sim 100;
               Lock.release lock;
               if r mod 3 = 0 then Sim.yield sim
             done))
    done;
    Sim.run sim;
    (List.rev !log, Sim.events_processed sim)
  in
  let log_b, n_b = run true and log_u, n_u = run false in
  Alcotest.(check (list (pair string int))) "same dispatch order and times" log_u log_b;
  Alcotest.(check int) "same events processed" n_u n_b

(* ------------------------------------------------------------------ *)
(* Lock                                                                *)
(* ------------------------------------------------------------------ *)

let test_lock_mutual_exclusion () =
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Unfair ~name:"l" in
  let inside = ref 0 and max_inside = ref 0 and iterations = ref 0 in
  for i = 1 to 4 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "t%d" i) (fun () ->
           for _ = 1 to 25 do
             Lock.acquire lock;
             incr inside;
             if !inside > !max_inside then max_inside := !inside;
             Sim.delay sim 100;
             decr inside;
             incr iterations;
             Lock.release lock
           done))
  done;
  Sim.run sim;
  Alcotest.(check int) "never two holders" 1 !max_inside;
  Alcotest.(check int) "all iterations ran" 100 !iterations;
  Alcotest.(check int) "acquisitions counted" 100 (Lock.acquisitions lock)

let test_lock_fifo_grant_order () =
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Fifo ~name:"mcs" in
  let grants = ref [] in
  (* A holder keeps the lock while others line up in a known order. *)
  let _ =
    Sim.spawn sim ~name:"holder" (fun () ->
        Lock.acquire lock;
        Sim.delay sim 100_000;
        Lock.release lock)
  in
  for i = 1 to 5 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "w%d" i) (fun () ->
           Sim.delay sim (1000 * i);
           Lock.acquire lock;
           grants := i :: !grants;
           Lock.release lock))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO grants in arrival order" [ 1; 2; 3; 4; 5 ] (List.rev !grants)

let test_lock_unfair_reorders () =
  (* With many rounds, the unfair lock must grant out of arrival order at
     least once; the FIFO lock never does. *)
  let misorders disc =
    let sim = Sim.create ~seed:123 () in
    let lock = Lock.create sim arch disc ~name:"l" in
    let expected = ref 0 and misordered = ref 0 in
    let _ =
      Sim.spawn sim ~name:"holder" (fun () ->
          for _ = 1 to 50 do
            Lock.acquire lock;
            Sim.delay sim 50_000;
            Lock.release lock;
            Sim.delay sim 10_000
          done)
    in
    for i = 1 to 4 do
      ignore
        (Sim.spawn sim ~name:(Printf.sprintf "w%d" i) (fun () ->
             Sim.delay sim (100 * i);
             for _ = 1 to 40 do
               Lock.acquire lock;
               Sim.delay sim 10;
               Lock.release lock;
               Sim.delay sim 30_000
             done))
    done;
    (* Track grant order vs a per-round arrival sequence implicitly via
       monotonically increasing "ticket" assigned at acquire start. *)
    ignore expected;
    ignore misordered;
    Sim.run sim;
    Lock.contended_acquisitions lock
  in
  (* Both disciplines see contention; this test just checks the machinery
     runs to completion and contention is observed. Order-sensitivity is
     covered by the dedicated ordering test below. *)
  Alcotest.(check bool) "unfair contended" true (misorders Lock.Unfair > 0);
  Alcotest.(check bool) "fifo contended" true (misorders Lock.Fifo > 0)

let grant_sequence disc ~seed =
  (* Threads arrive at known distinct times while the lock is held; record
     the order they are granted the lock. *)
  let sim = Sim.create ~seed () in
  let lock = Lock.create sim arch disc ~name:"l" in
  let grants = ref [] in
  let _ =
    Sim.spawn sim ~name:"holder" (fun () ->
        Lock.acquire lock;
        Sim.delay sim 1_000_000;
        Lock.release lock)
  in
  for i = 1 to 6 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "w%d" i) (fun () ->
           Sim.delay sim (2_000 * i);
           Lock.acquire lock;
           grants := i :: !grants;
           Sim.delay sim 10;
           Lock.release lock))
  done;
  Sim.run sim;
  List.rev !grants

let test_lock_unfair_eventually_misorders () =
  let misordered =
    List.exists
      (fun seed -> grant_sequence Lock.Unfair ~seed <> [ 1; 2; 3; 4; 5; 6 ])
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "unfair lock reorders waiters for some seed" true misordered;
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        "fifo never reorders" [ 1; 2; 3; 4; 5; 6 ]
        (grant_sequence Lock.Fifo ~seed))
    [ 1; 2; 3; 4; 5 ]

let test_lock_unfair_grants_pinned () =
  (* Regression pin for the unfair discipline's grant order per seed: it is
     a pure function of the Prng stream, so any change to random-number
     generation shows up here before it silently shifts figure results. *)
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d grant order" seed)
        expected
        (grant_sequence Lock.Unfair ~seed))
    [ (1, [ 5; 6; 4; 3; 1; 2 ]); (2, [ 6; 2; 5; 1; 3; 4 ]); (3, [ 6; 1; 2; 5; 4; 3 ]) ]

let test_lock_release_by_non_owner_fails () =
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Unfair ~name:"demux" in
  let contains msg sub =
    let n = String.length msg and m = String.length sub in
    let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
    go 0
  in
  (* Released while not held at all: the message names the lock and says so. *)
  let _ =
    Sim.spawn sim ~name:"bad" (fun () ->
        match Lock.release lock with
        | () -> Alcotest.fail "release without acquire should fail"
        | exception Invalid_argument msg ->
          Alcotest.(check bool) "names the lock" true (contains msg "\"demux\"");
          Alcotest.(check bool) "says not held" true (contains msg "not held"))
  in
  Sim.run sim;
  (* Released by a thread other than the owner: both tids are named. *)
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Unfair ~name:"demux" in
  let owner = Sim.spawn sim ~name:"owner" (fun () ->
      Lock.acquire lock;
      Sim.delay sim 1_000_000;
      Lock.release lock)
  in
  let intruder = ref None in
  let it = Sim.spawn sim ~name:"intruder" (fun () ->
      Sim.delay sim 1_000;
      match Lock.release lock with
      | () -> Alcotest.fail "non-owner release should fail"
      | exception Invalid_argument msg -> intruder := Some msg)
  in
  Sim.run sim;
  match !intruder with
  | None -> Alcotest.fail "intruder never ran"
  | Some msg ->
    Alcotest.(check bool) "names caller tid" true
      (contains msg (Printf.sprintf "tid %d (intruder)" (Sim.tid it)));
    Alcotest.(check bool) "names owner tid" true
      (contains msg (Printf.sprintf "tid %d (owner)" (Sim.tid owner)))

let test_lock_with_lock_releases_on_exception () =
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Unfair ~name:"l" in
  let second_ran = ref false in
  let _ =
    Sim.spawn sim ~name:"thrower" (fun () ->
        match Lock.with_lock lock (fun () -> raise Exit) with
        | () -> ()
        | exception Exit -> ())
  in
  let _ =
    Sim.spawn sim ~name:"after" (fun () ->
        Sim.delay sim 10_000;
        Lock.with_lock lock (fun () -> second_ran := true))
  in
  Sim.run sim;
  Alcotest.(check bool) "lock released after exception" true !second_ran

let test_lock_wait_accounting () =
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Unfair ~name:"l" in
  let _ =
    Sim.spawn sim ~name:"holder" (fun () ->
        Lock.acquire lock;
        Sim.delay sim 100_000;
        Lock.release lock)
  in
  let waiter =
    Sim.spawn sim ~name:"waiter" (fun () ->
        Sim.delay sim 1_000;
        Lock.acquire lock;
        Lock.release lock)
  in
  Sim.run sim;
  Alcotest.(check bool) "lock wait recorded" true (Lock.total_wait_ns lock > 90_000);
  Alcotest.(check bool) "thread wait recorded" true (Sim.wait_ns waiter > 90_000);
  Alcotest.(check bool) "hold recorded" true (Lock.total_hold_ns lock >= 100_000)

let test_lock_coherency_penalty_cross_cpu () =
  (* Same-CPU reacquisition is cheaper than alternating CPUs on a
     coherency-synchronised machine. *)
  let elapsed ~cpus =
    let sim = Sim.create () in
    let lock = Lock.create sim arch Lock.Unfair ~name:"l" in
    let finish = ref 0 in
    let rounds = 100 in
    for i = 0 to 1 do
      ignore
        (Sim.spawn sim ~cpu:(if cpus = 1 then 0 else i) ~name:(Printf.sprintf "t%d" i)
           (fun () ->
             for _ = 1 to rounds do
               Lock.acquire lock;
               Sim.delay sim 10;
               Lock.release lock;
               Sim.delay sim 5_000
             done;
             finish := max !finish (Sim.now sim)))
    done;
    Sim.run sim;
    !finish
  in
  Alcotest.(check bool)
    "alternating CPUs slower than one CPU pair" true
    (elapsed ~cpus:2 > elapsed ~cpus:1)

let test_lock_power_series_no_penalty () =
  let elapsed a =
    let sim = Sim.create () in
    let lock = Lock.create sim a Lock.Unfair ~name:"l" in
    let t_end = ref 0 in
    for i = 0 to 1 do
      ignore
        (Sim.spawn sim ~cpu:i ~name:(Printf.sprintf "t%d" i) (fun () ->
             for _ = 1 to 50 do
               Lock.acquire lock;
               Lock.release lock;
               Sim.delay sim 10_000
             done;
             t_end := max !t_end (Sim.now sim)))
    done;
    Sim.run sim;
    !t_end
  in
  let no_pen = { arch with Arch.sync = Arch.Sync_bus } in
  Alcotest.(check bool) "sync-bus arch avoids migration cost" true (elapsed no_pen < elapsed arch)

let test_counting_lock_recursion () =
  let sim = Sim.create () in
  let cl = Lock.Counting.create sim arch Lock.Unfair ~name:"map" in
  let ok = ref false in
  let _ =
    Sim.spawn sim ~name:"recurser" (fun () ->
        Lock.Counting.acquire cl;
        Lock.Counting.acquire cl;
        Alcotest.(check int) "depth 2" 2 (Lock.Counting.depth cl);
        Lock.Counting.release cl;
        Alcotest.(check int) "depth 1" 1 (Lock.Counting.depth cl);
        Lock.Counting.release cl;
        ok := true)
  in
  Sim.run sim;
  Alcotest.(check bool) "completed" true !ok

let test_counting_lock_excludes_others () =
  let sim = Sim.create () in
  let cl = Lock.Counting.create sim arch Lock.Unfair ~name:"map" in
  let order = ref [] in
  let _ =
    Sim.spawn sim ~name:"first" (fun () ->
        Lock.Counting.acquire cl;
        Lock.Counting.acquire cl;
        Sim.delay sim 10_000;
        order := "first-release" :: !order;
        Lock.Counting.release cl;
        Lock.Counting.release cl)
  in
  let _ =
    Sim.spawn sim ~name:"second" (fun () ->
        Sim.delay sim 100;
        Lock.Counting.acquire cl;
        order := "second-acquired" :: !order;
        Lock.Counting.release cl)
  in
  Sim.run sim;
  Alcotest.(check (list string))
    "second waits for full release"
    [ "first-release"; "second-acquired" ]
    (List.rev !order)

let test_lock_barging_grant_order () =
  (* With every waiter queued by release time, the barging spinlock is
     LIFO: the newest arrival wins each test-and-set race.  No randomness
     is involved, so this holds for every seed. *)
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: newest waiter first" seed)
        [ 6; 5; 4; 3; 2; 1 ]
        (grant_sequence Lock.Barging ~seed))
    [ 1; 2; 3 ]

let test_counting_release_balance () =
  let sim = Sim.create () in
  let cl = Lock.Counting.create sim arch Lock.Unfair ~name:"map" in
  let contains msg sub =
    let n = String.length msg and m = String.length sub in
    let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
    go 0
  in
  let done_ = ref false in
  let _ =
    Sim.spawn sim ~name:"recurser" (fun () ->
        Lock.Counting.with_lock cl (fun () ->
            Lock.Counting.with_lock cl (fun () ->
                Alcotest.(check int) "nested depth" 2 (Lock.Counting.depth cl));
            Alcotest.(check int) "after inner" 1 (Lock.Counting.depth cl));
        Alcotest.(check int) "after outer" 0 (Lock.Counting.depth cl);
        (* A fresh acquire after full release starts a new depth-1 hold;
           the extra release beyond balance must raise, naming the lock. *)
        Lock.Counting.acquire cl;
        Alcotest.(check int) "re-acquired" 1 (Lock.Counting.depth cl);
        Lock.Counting.release cl;
        (match Lock.Counting.release cl with
         | () -> Alcotest.fail "unbalanced release must raise"
         | exception Invalid_argument msg ->
           Alcotest.(check bool) "names the lock" true (contains msg "\"map\"");
           Alcotest.(check bool) "says not held" true (contains msg "not held"));
        done_ := true)
  in
  Sim.run sim;
  Alcotest.(check bool) "completed" true !done_

(* ------------------------------------------------------------------ *)
(* Gate                                                                *)
(* ------------------------------------------------------------------ *)

let test_gate_orders_delivery () =
  let sim = Sim.create () in
  let gate = Gate.create sim arch ~name:"app" in
  let delivered = ref [] in
  (* Tickets are taken in order 0,1,2 but threads arrive at the gate in
     reverse; delivery must still be in ticket order. *)
  let tickets = Array.make 3 0 in
  let _ =
    Sim.spawn sim ~name:"issuer" (fun () ->
        for i = 0 to 2 do
          tickets.(i) <- Gate.take gate
        done)
  in
  for i = 0 to 2 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "d%d" i) (fun () ->
           (* Later tickets arrive earlier. *)
           Sim.delay sim (10_000 * (3 - i));
           Gate.await gate tickets.(i);
           delivered := i :: !delivered;
           Gate.advance gate))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "ticket order" [ 0; 1; 2 ] (List.rev !delivered)

let test_gate_no_wait_when_in_order () =
  let sim = Sim.create () in
  let gate = Gate.create sim arch ~name:"app" in
  let _ =
    Sim.spawn sim ~name:"t" (fun () ->
        let k = Gate.take gate in
        Gate.await gate k;
        Gate.advance gate;
        let k2 = Gate.take gate in
        Gate.await gate k2;
        Gate.advance gate)
  in
  Sim.run sim;
  Alcotest.(check int) "no wait time" 0 (Gate.total_wait_ns gate);
  Alcotest.(check int) "served two" 2 (Gate.serving gate)

(* ------------------------------------------------------------------ *)
(* Atomic_ctr                                                          *)
(* ------------------------------------------------------------------ *)

let test_atomic_ctr_counts () =
  List.iter
    (fun mode ->
      let sim = Sim.create () in
      let c = Atomic_ctr.create sim arch mode ~name:"ref" ~init:5 in
      let _ =
        Sim.spawn sim ~name:"t" (fun () ->
            ignore (Atomic_ctr.incr c);
            ignore (Atomic_ctr.incr c);
            Alcotest.(check int) "after incr" 7 (Atomic_ctr.get c);
            ignore (Atomic_ctr.decr c);
            Alcotest.(check int) "after decr" 6 (Atomic_ctr.get c))
      in
      Sim.run sim)
    [ Atomic_ctr.Ll_sc; Atomic_ctr.Locked ]

let test_atomic_faster_than_locked () =
  let elapsed mode =
    let sim = Sim.create () in
    let c = Atomic_ctr.create sim arch mode ~name:"ref" ~init:0 in
    let t_end = ref 0 in
    let _ =
      Sim.spawn sim ~name:"t" (fun () ->
          for _ = 1 to 100 do
            ignore (Atomic_ctr.incr c)
          done;
          t_end := Sim.now sim)
    in
    Sim.run sim;
    !t_end
  in
  Alcotest.(check bool) "LL/SC cheaper" true
    (elapsed Atomic_ctr.Ll_sc < elapsed Atomic_ctr.Locked)

let test_atomic_parallel_consistent () =
  let sim = Sim.create () in
  let c = Atomic_ctr.create sim arch Atomic_ctr.Locked ~name:"ref" ~init:0 in
  for i = 0 to 3 do
    ignore
      (Sim.spawn sim ~cpu:i ~name:(Printf.sprintf "t%d" i) (fun () ->
           for _ = 1 to 50 do
             ignore (Atomic_ctr.incr c)
           done))
  done;
  Sim.run sim;
  Alcotest.(check int) "no lost updates" 200 (Atomic_ctr.get c)

(* ------------------------------------------------------------------ *)
(* Membus                                                              *)
(* ------------------------------------------------------------------ *)

let test_membus_single_user_rate () =
  let sim = Sim.create () in
  let bus = Membus.create sim arch in
  (* 32 MB/s -> 4 KB takes 128 us. *)
  Alcotest.(check int) "4KB at 32MB/s" 128_000 (Membus.duration_ns bus ~bytes:4096 ~users:1)

let test_membus_shared_capacity () =
  let sim = Sim.create () in
  let bus = Membus.create sim arch in
  (* With 60 notional users the 1.2 GB/s bus gives each 20 MB/s < 32. *)
  let solo = Membus.duration_ns bus ~bytes:4096 ~users:1 in
  let crowded = Membus.duration_ns bus ~bytes:4096 ~users:60 in
  Alcotest.(check bool) "crowded slower" true (crowded > solo);
  (* At 8 users the Challenge bus is still not the bottleneck (paper: could
     support ~38 checksumming CPUs). *)
  Alcotest.(check int) "8 users same as 1" solo (Membus.duration_ns bus ~bytes:4096 ~users:8)

let test_membus_consume_blocks () =
  let sim = Sim.create () in
  let bus = Membus.create sim arch in
  let t_end = ref 0 in
  let _ =
    Sim.spawn sim ~name:"t" (fun () ->
        Membus.consume bus ~bytes:4096;
        t_end := Sim.now sim)
  in
  Sim.run sim;
  Alcotest.(check int) "blocked for transfer" 128_000 !t_end;
  Alcotest.(check int) "bytes accounted" 4096 (Membus.bytes_transferred bus);
  Alcotest.(check int) "no users left" 0 (Membus.concurrent_users bus)

(* ------------------------------------------------------------------ *)
(* Randomised engine properties                                        *)
(* ------------------------------------------------------------------ *)

(* Random programs of delays and critical sections over a few locks must
   preserve mutual exclusion, always terminate (no lost wakeups), and
   keep wait/hold accounting consistent. *)
let prop_random_lock_programs =
  QCheck.Test.make ~name:"random lock programs: exclusion, progress, accounting" ~count:60
    QCheck.(
      pair (int_bound 10_000)
        (list_of_size (Gen.return 4)
           (list_of_size Gen.(1 -- 12) (pair (int_bound 2) (int_bound 400)))))
    (fun (seed, programs) ->
      let sim = Sim.create ~seed:(seed + 1) () in
      let locks =
        Array.init 3 (fun i ->
            let disc = match i with 0 -> Lock.Unfair | 1 -> Lock.Fifo | _ -> Lock.Barging in
            Lock.create sim arch disc ~name:(Printf.sprintf "l%d" i))
      in
      let inside = Array.make 3 0 in
      let violated = ref false in
      let finished = ref 0 in
      List.iteri
        (fun ti prog ->
          ignore
            (Sim.spawn sim ~cpu:ti ~name:(Printf.sprintf "t%d" ti) (fun () ->
                 List.iter
                   (fun (which, d) ->
                     let l = locks.(which) in
                     Lock.acquire l;
                     inside.(which) <- inside.(which) + 1;
                     if inside.(which) > 1 then violated := true;
                     Sim.delay sim (1 + d);
                     inside.(which) <- inside.(which) - 1;
                     Lock.release l)
                   prog;
                 incr finished)))
        programs;
      Sim.run sim;
      (not !violated)
      && !finished = List.length programs
      && Array.for_all (fun l -> Lock.total_hold_ns l >= 0 && Lock.total_wait_ns l >= 0)
           locks
      && List.length (Sim.blocked_threads sim) = 0)

(* Every permutation of gate usage serves tickets strictly in order. *)
let prop_gate_serves_in_order =
  QCheck.Test.make ~name:"gate always serves tickets in order" ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 2 8))
    (fun (seed, n) ->
      let sim = Sim.create ~seed:(seed + 3) () in
      let gate = Gate.create sim arch ~name:"g" in
      let served = ref [] in
      let rng = Pnp_util.Prng.create (seed + 11) in
      let tickets = Array.init n (fun i -> i) in
      (* issue in order, arrive in random order *)
      let arrival = Array.copy tickets in
      Pnp_util.Prng.shuffle rng arrival;
      let issued = Array.map (fun _ -> -1) tickets in
      let _ =
        Sim.spawn sim ~name:"issuer" (fun () ->
            Array.iteri (fun i _ -> issued.(i) <- Gate.take gate) tickets)
      in
      Array.iteri
        (fun pos i ->
          ignore
            (Sim.spawn sim ~name:(Printf.sprintf "w%d" i) (fun () ->
                 (* let the issuer finish taking every ticket first *)
                 Sim.delay sim (5_000 + (1000 * (pos + 1)));
                 Gate.await gate issued.(i);
                 served := i :: !served;
                 Gate.advance gate)))
        arrival;
      Sim.run sim;
      List.rev !served = Array.to_list tickets)

let suites =
  [
    ( "engine.eventq",
      [
        Alcotest.test_case "pops in time order" `Quick test_eventq_order;
        Alcotest.test_case "FIFO at equal times" `Quick test_eventq_fifo_ties;
        Alcotest.test_case "pop empty" `Quick test_eventq_pop_empty;
        Alcotest.test_case "pop_exn / peek_time_exn" `Quick test_eventq_pop_exn;
        Qrand.to_alcotest prop_eventq_sorted;
        Qrand.to_alcotest prop_eventq_interleaved_oracle;
        Qrand.to_alcotest prop_eventq_pop_run_oracle;
      ] );
    ( "engine.sim",
      [
        Alcotest.test_case "delay advances time" `Quick test_sim_delay;
        Alcotest.test_case "threads interleave" `Quick test_sim_interleaving;
        Alcotest.test_case "run until" `Quick test_sim_run_until;
        Alcotest.test_case "scheduled callback" `Quick test_sim_at_callback;
        Alcotest.test_case "past scheduling rejected" `Quick test_sim_at_past_rejected;
        Alcotest.test_case "self outside thread" `Quick test_sim_self_outside_thread;
        Alcotest.test_case "suspend/resume" `Quick test_sim_suspend_resume;
        Alcotest.test_case "double resume fails" `Quick test_sim_double_resume_fails;
        Alcotest.test_case "stale resume fails" `Quick test_sim_stale_resume_fails;
        Alcotest.test_case "contended delay allocation budget" `Quick
          test_sim_contended_delay_alloc;
        Alcotest.test_case "spawn on cpu" `Quick test_sim_spawn_on_cpu;
        Alcotest.test_case "yield fairness" `Quick test_sim_yield_fairness;
        Alcotest.test_case "deterministic per seed" `Quick test_sim_deterministic_given_seed;
        Alcotest.test_case "batched dispatch equals unbatched" `Quick
          test_sim_batching_equivalence;
      ] );
    ( "engine.lock",
      [
        Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
        Alcotest.test_case "FIFO grant order" `Quick test_lock_fifo_grant_order;
        Alcotest.test_case "contention observed" `Quick test_lock_unfair_reorders;
        Alcotest.test_case "unfair reorders, fifo does not" `Quick
          test_lock_unfair_eventually_misorders;
        Alcotest.test_case "unfair grant order pinned" `Quick
          test_lock_unfair_grants_pinned;
        Alcotest.test_case "release by non-owner fails" `Quick
          test_lock_release_by_non_owner_fails;
        Alcotest.test_case "with_lock releases on exception" `Quick
          test_lock_with_lock_releases_on_exception;
        Alcotest.test_case "wait accounting" `Quick test_lock_wait_accounting;
        Alcotest.test_case "coherency penalty across CPUs" `Quick
          test_lock_coherency_penalty_cross_cpu;
        Alcotest.test_case "sync-bus arch has no penalty" `Quick
          test_lock_power_series_no_penalty;
        Alcotest.test_case "counting lock recursion" `Quick test_counting_lock_recursion;
        Alcotest.test_case "counting lock excludes others" `Quick
          test_counting_lock_excludes_others;
        Alcotest.test_case "barging grants newest first" `Quick
          test_lock_barging_grant_order;
        Alcotest.test_case "counting release balance" `Quick
          test_counting_release_balance;
      ] );
    ( "engine.gate",
      [
        Alcotest.test_case "orders delivery" `Quick test_gate_orders_delivery;
        Alcotest.test_case "no wait when in order" `Quick test_gate_no_wait_when_in_order;
      ] );
    ( "engine.atomic",
      [
        Alcotest.test_case "counts" `Quick test_atomic_ctr_counts;
        Alcotest.test_case "LL/SC faster than locked" `Quick test_atomic_faster_than_locked;
        Alcotest.test_case "parallel consistency" `Quick test_atomic_parallel_consistent;
      ] );
    ( "engine.random",
      [
        Qrand.to_alcotest prop_random_lock_programs;
        Qrand.to_alcotest prop_gate_serves_in_order;
      ] );
    ( "engine.membus",
      [
        Alcotest.test_case "single user rate" `Quick test_membus_single_user_rate;
        Alcotest.test_case "shared capacity" `Quick test_membus_shared_capacity;
        Alcotest.test_case "consume blocks" `Quick test_membus_consume_blocks;
      ] );
  ]

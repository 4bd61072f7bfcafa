open Pnp_util
open Pnp_engine
open Pnp_analysis

let arch = Arch.challenge_100

(* ------------------------------------------------------------------ *)
(* Hand-built traces                                                   *)
(* ------------------------------------------------------------------ *)

let make_trace ?(locks = []) evs =
  let t = Trace.create () in
  List.iter (fun (name, discipline) -> Trace.register_lock t ~name ~discipline) locks;
  Trace.enable t;
  (* The tracer was just enabled unconditionally above. *)
  List.iteri (fun i (tid, ev) -> Trace.emit t ~ts:(i * 10) ~tid ~cpu:0 ev) evs (* lint:allow *);
  t

let req lock = Trace.Lock_request { lock; waiters = 0 }
let grant lock = Trace.Lock_grant { lock; waiters = 0; wait_ns = 0 }
let rel lock = Trace.Lock_release { lock; hold_ns = 0 }
let acc ?(write = true) state = Trace.Access { state; write }
let enq seq = Trace.Span_begin { seq; phase = Trace.Enqueue }

(* ------------------------------------------------------------------ *)
(* Lockset (Eraser)                                                    *)
(* ------------------------------------------------------------------ *)

let test_lockset_clean_locked_counter () =
  let t =
    make_trace
      [
        (1, grant "l"); (1, acc "tcb#ctr"); (1, rel "l");
        (2, grant "l"); (2, acc "tcb#ctr"); (2, rel "l");
      ]
  in
  let states, findings = Lockset.run t in
  Alcotest.(check int) "no findings" 0 (List.length findings);
  match states with
  | [ s ] ->
    Alcotest.(check string) "id" "tcb#ctr" s.Lockset.id;
    (match s.Lockset.class_ with
     | Lockset.Shared_modified [ "l" ] -> ()
     | _ -> Alcotest.fail "expected Shared_modified [l]")
  | _ -> Alcotest.fail "expected one tracked id"

let test_lockset_fires_on_unlocked_counter () =
  (* Seeded defect: two threads write the same state with no common
     lock.  Exclusive first-thread initialisation is not reported; the
     second thread's write is. *)
  let t =
    make_trace
      [
        (1, acc "tcb#ctr"); (1, acc "tcb#ctr");  (* init, still Exclusive *)
        (2, acc "tcb#ctr");                       (* race *)
        (2, acc "tcb#ctr");                       (* already reported *)
      ]
  in
  let findings = Lockset.check t in
  (match findings with
   | [ f ] ->
     Alcotest.(check string) "checker" "lockset" f.Finding.checker;
     Alcotest.(check string) "subject" "tcb#ctr" f.Finding.subject;
     Alcotest.(check int) "witness pair" 2 (List.length f.Finding.witnesses)
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)))

let test_lockset_read_shared_not_reported () =
  (* Reads of stable data by many threads without locks are fine as long
     as nobody writes after the data becomes shared. *)
  let t =
    make_trace
      [
        (1, acc ~write:true "cfg#mtu");
        (2, acc ~write:false "cfg#mtu");
        (3, acc ~write:false "cfg#mtu");
      ]
  in
  Alcotest.(check int) "no findings" 0 (List.length (Lockset.check t))

let test_lockset_partial_lock_overlap_fires () =
  (* Each thread holds *a* lock, but not a common one: the candidate set
     goes empty exactly on the second thread's write. *)
  let t =
    make_trace
      [
        (1, grant "a"); (1, acc "x#f"); (1, rel "a");
        (2, grant "b"); (2, acc "x#f"); (2, rel "b");
      ]
  in
  (match Lockset.check t with
   | [ f ] -> Alcotest.(check string) "subject" "x#f" f.Finding.subject
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)))

let test_lockset_fires_on_unlocked_map_cache () =
  (* The pre-shard demux bug, as a trace: [Xmap.lookup]'s unlocked fast
     path used to write the map's shared 1-behind cache and counters.
     One thread updates the cache under the map lock (an insert), the
     other writes it holding nothing (the unlocked lookup) — the
     candidate set goes empty on the second write. *)
  let t =
    make_trace
      [
        (1, grant "tcp.demux");
        (1, acc "tcp.demux#cache");
        (1, rel "tcp.demux");
        (2, acc "tcp.demux#cache");
      ]
  in
  match Lockset.check t with
  | [ f ] ->
    Alcotest.(check string) "checker" "lockset" f.Finding.checker;
    Alcotest.(check string) "subject" "tcp.demux#cache" f.Finding.subject
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

module Imap = Pnp_xkern.Xmap.Make (struct
  type t = int

  let hash x = x * 2654435761
  let equal = Int.equal
end)

let test_unlocked_map_lookup_is_clean () =
  (* The fixed map against the real engine: with map locking disabled,
     concurrent lookups keep their 1-behind bookkeeping in per-thread
     slots, so a traced multi-thread run produces no lockset findings
     where the old shared-cache mutation pattern fired. *)
  let p = Platform.create ~map_locking:false arch in
  let m = Imap.create p ~shards:4 ~name:"demux" () in
  let tracer = Sim.tracer p.Platform.sim in
  Trace.enable tracer;
  let sum = ref 0 in
  for i = 0 to 3 do
    ignore
      (Sim.spawn p.Platform.sim ~cpu:i ~name:(Printf.sprintf "rdr.%d" i) (fun () ->
           Imap.insert m i i;
           for _ = 1 to 50 do
             (match Imap.lookup m i with Some v -> sum := !sum + v | None -> ());
             ignore (Imap.lookup m ((i + 1) mod 4));
             Sim.delay p.Platform.sim 100
           done))
  done;
  Sim.run p.Platform.sim;
  Alcotest.(check int) "lookups served" (50 * (0 + 1 + 2 + 3)) !sum;
  Alcotest.(check int) "no lockset findings" 0 (List.length (Lockset.check tracer))

(* ------------------------------------------------------------------ *)
(* Lock-order graph                                                    *)
(* ------------------------------------------------------------------ *)

(* The TCP-6 hazard as a seeded defect against the real engine: one
   thread takes reass before rexmt, another takes them inverted (at a
   disjoint time, so the run itself never deadlocks — the checker must
   still see the potential). *)
let inversion_trace ~invert =
  let sim = Sim.create () in
  let tracer = Sim.tracer sim in
  let reass = Lock.create sim arch Lock.Unfair ~name:"tcp.1.reass" in
  let rexmt = Lock.create sim arch Lock.Unfair ~name:"tcp.1.rexmt" in
  Trace.enable tracer;
  let pair_in_order a b =
    Lock.acquire a;
    Sim.delay sim 100;
    Lock.acquire b;
    Sim.delay sim 100;
    Lock.release b;
    Lock.release a
  in
  let _ = Sim.spawn sim ~name:"input" (fun () -> pair_in_order reass rexmt) in
  let _ =
    Sim.spawn sim ~name:"timer" (fun () ->
        Sim.delay sim 1_000_000;
        if invert then pair_in_order rexmt reass else pair_in_order reass rexmt)
  in
  Sim.run sim;
  tracer

let test_lock_order_cycle_detected () =
  let tracer = inversion_trace ~invert:true in
  match Lock_order.check tracer with
  | [ f ] ->
    Alcotest.(check string) "checker" "lock-order" f.Finding.checker;
    let mentions sub =
      let n = String.length f.Finding.subject and m = String.length sub in
      let rec go i = i + m <= n && (String.sub f.Finding.subject i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names reass" true (mentions "tcp.1.reass");
    Alcotest.(check bool) "names rexmt" true (mentions "tcp.1.rexmt");
    Alcotest.(check bool) "has witnesses" true (List.length f.Finding.witnesses >= 2)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 cycle, got %d" (List.length fs))

let test_lock_order_consistent_is_clean () =
  let tracer = inversion_trace ~invert:false in
  Alcotest.(check int) "no cycles" 0 (List.length (Lock_order.check tracer));
  (* The held-before edge itself is recorded. *)
  match Lock_order.edges tracer with
  | [ e ] ->
    Alcotest.(check string) "first" "tcp.1.reass" e.Lock_order.first;
    Alcotest.(check string) "second" "tcp.1.rexmt" e.Lock_order.second
  | es -> Alcotest.fail (Printf.sprintf "expected 1 edge, got %d" (List.length es))

let test_lock_order_three_cycle () =
  let t =
    make_trace
      [
        (1, grant "a"); (1, grant "b"); (1, rel "b"); (1, rel "a");
        (2, grant "b"); (2, grant "c"); (2, rel "c"); (2, rel "b");
        (3, grant "c"); (3, grant "a"); (3, rel "a"); (3, rel "c");
      ]
  in
  match Lock_order.check t with
  | [ _ ] -> ()
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 three-lock cycle, got %d" (List.length fs))

(* ------------------------------------------------------------------ *)
(* Grant order / reorder windows                                       *)
(* ------------------------------------------------------------------ *)

let test_fifo_order_violation_detected () =
  let evs = [ (1, req "m"); (2, req "m"); (2, grant "m"); (1, grant "m") ] in
  (match Order_check.check (make_trace ~locks:[ ("m", "fifo") ] evs) with
   | [ f ] ->
     Alcotest.(check string) "checker" "fifo-order" f.Finding.checker;
     Alcotest.(check string) "subject" "m" f.Finding.subject;
     Alcotest.(check int) "witnesses" 2 (List.length f.Finding.witnesses)
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* The same overtake on a lock that never promised FIFO is not a
     violation. *)
  Alcotest.(check int) "unfair lock may barge" 0
    (List.length (Order_check.check (make_trace ~locks:[ ("m", "unfair") ] evs)))

let test_fifo_order_in_order_clean () =
  let evs = [ (1, req "m"); (2, req "m"); (1, grant "m"); (2, grant "m") ] in
  Alcotest.(check int) "in-order grants" 0
    (List.length (Order_check.check (make_trace ~locks:[ ("m", "fifo") ] evs)))

let test_reorder_window_stats () =
  (* Thread 2 carries a later packet (seq 8192) and wins the lock before
     thread 1 (seq 0) and thread 3 (seq 4096). *)
  let t =
    make_trace
      [
        (1, enq 0); (2, enq 8192); (3, enq 4096);
        (2, grant "l"); (2, rel "l");
        (3, grant "l"); (3, rel "l");
        (1, grant "l"); (1, rel "l");
      ]
  in
  (match Order_check.stats t with
   | [ s ] ->
     Alcotest.(check string) "lock" "l" s.Order_check.lock;
     Alcotest.(check int) "grants" 3 s.Order_check.grants;
     Alcotest.(check int) "reordered" 2 s.Order_check.reordered;
     Alcotest.(check int) "deepest window" 8192 s.Order_check.max_window
   | rows -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length rows)));
  let reordered, grants = Order_check.reordered_total (Order_check.stats t) in
  Alcotest.(check (pair int int)) "totals" (2, 3) (reordered, grants)

(* ------------------------------------------------------------------ *)
(* Replay round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let test_replay_round_trip () =
  let t =
    make_trace
      [
        (1, enq 0); (1, req "l"); (1, grant "l"); (1, acc "x#f"); (1, rel "l");
        (2, req "l"); (2, grant "l"); (2, rel "l");
      ]
  in
  (* Replay re-delivers exactly the emitted records, in emission order. *)
  let replayed = ref [] in
  Replay.replay t (fun _ctx r -> replayed := r :: !replayed);
  Alcotest.(check int) "count matches" (Trace.count t) (List.length !replayed);
  Alcotest.(check bool) "order matches" true (List.rev !replayed = Trace.events t);
  (* iter and fold agree with events. *)
  let via_iter = ref [] in
  Trace.iter t (fun r -> via_iter := r :: !via_iter);
  Alcotest.(check bool) "iter order" true (List.rev !via_iter = Trace.events t);
  let n = Trace.fold t ~init:0 ~f:(fun acc _ -> acc + 1) in
  Alcotest.(check int) "fold count" (Trace.count t) n

let test_replay_held_and_seq () =
  let t =
    make_trace
      [ (1, enq 4096); (1, grant "a"); (1, grant "b"); (1, rel "b"); (1, rel "a") ]
  in
  (* Inspect the context right before each record is applied. *)
  let at_b_grant = ref [] and after_rel_b = ref [] and seq = ref None in
  Replay.replay t (fun ctx r ->
      match r.Trace.ev with
      | Trace.Lock_grant { lock = "b"; _ } ->
        at_b_grant := Replay.held ctx ~tid:1;
        seq := Replay.current_seq ctx ~tid:1
      | Trace.Lock_release { lock = "a"; _ } -> after_rel_b := Replay.held ctx ~tid:1
      | _ -> ());
  Alcotest.(check (list string)) "held before b's grant" [ "a" ] !at_b_grant;
  Alcotest.(check (option int)) "carried seq" (Some 4096) !seq;
  Alcotest.(check (list string)) "b released before a" [ "a" ] !after_rel_b

(* ------------------------------------------------------------------ *)
(* The real stack under the checkers                                   *)
(* ------------------------------------------------------------------ *)

let checked_scenario ?(side = Pnp_harness.Config.Recv) ~tcp_locking () =
  let open Pnp_harness in
  let cfg =
    Config.v ~arch ~procs:4 ~side ~protocol:Config.Tcp ~payload:4096
      ~checksum:true ~tcp_locking
      ~warmup:(Units.ms 5.0) ~measure:(Units.ms 20.0) ~seed:1 ()
  in
  Run.run_traced cfg

let test_clean_tcp6_run_has_no_findings () =
  let _result, tracer = checked_scenario ~tcp_locking:Pnp_proto.Tcp.Six () in
  let findings = Check.all tracer in
  List.iter (fun f -> Format.eprintf "unexpected: %a@." Finding.pp f) findings;
  Alcotest.(check int) "clean tree is clean" 0 (List.length findings);
  (* The run actually exercised the checkers: state was tracked and
     held-before edges exist under fine-grained locking. *)
  let states, _ = Lockset.run tracer in
  Alcotest.(check bool) "lockset saw annotated state" true (List.length states > 0);
  Alcotest.(check bool) "held-before edges exist" true
    (List.length (Lock_order.edges tracer) > 0)

let test_clean_tcp_send_run_has_no_findings () =
  let _result, tracer =
    checked_scenario ~side:Pnp_harness.Config.Send ~tcp_locking:Pnp_proto.Tcp.Two ()
  in
  Alcotest.(check int) "clean tree is clean" 0 (List.length (Check.all tracer))

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint ?(file = "lib/figures/fig_test.ml") src = Lint.check_source ~file src

let rules fs = List.map (fun f -> f.Lint.rule) fs

let test_lint_scrub () =
  let scrubbed =
    Lint.scrub
      "let x = 1 (* outer (* nested *) \"string with *) inside\" end *) + 2\n\
       let s = \"Printf.printf \\\" quoted\" in s\n"
  in
  let contains sub =
    let n = String.length scrubbed and m = String.length sub in
    let rec go i = i + m <= n && (String.sub scrubbed i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "code survives" true (contains "let x = 1");
  Alcotest.(check bool) "code after nested comment survives" true (contains "+ 2");
  Alcotest.(check bool) "comment text blanked" false (contains "outer");
  Alcotest.(check bool) "string text blanked" false (contains "Printf");
  Alcotest.(check int) "line structure preserved" 2
    (List.length
       (List.filter (fun c -> c = '\n') (List.init (String.length scrubbed) (String.get scrubbed))))

let test_lint_no_print_in_data_phase () =
  (match lint "let fig_data opts =\n  Printf.printf \"x\";\n  []\n" with
   | [ f ] ->
     Alcotest.(check string) "rule" "no-print" f.Lint.rule;
     Alcotest.(check int) "line" 2 f.Lint.line
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* Presentation bindings may print. *)
  Alcotest.(check (list string)) "_present exempt" []
    (rules (lint "let fig_present opts tables =\n  Printf.printf \"x\"\n"));
  (* sprintf is pure string formatting, not printing. *)
  Alcotest.(check (list string)) "sprintf allowed" []
    (rules (lint "let fig_data opts =\n  Printf.sprintf \"x\"\n"));
  (* A print mentioned in a comment or a string is not a print. *)
  Alcotest.(check (list string)) "comment not flagged" []
    (rules (lint "let fig_data opts =\n  (* Printf.printf \"x\" *)\n  []\n"));
  Alcotest.(check (list string)) "string not flagged" []
    (rules (lint "let fig_data opts =\n  ignore \"Printf.printf\";\n  []\n"));
  (* Only fig_*.ml files have data phases. *)
  Alcotest.(check (list string)) "non-fig file exempt" []
    (rules (lint ~file:"lib/harness/report.ml" "let f () =\n  Printf.printf \"x\"\n"))

let test_lint_no_wallclock_in_data_phase () =
  (match lint "let fig_data opts =\n  Unix.gettimeofday ()\n" with
   | [ f ] -> Alcotest.(check string) "rule" "no-wallclock" f.Lint.rule
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  match lint "let fig_data opts =\n  Random.self_init ()\n" with
  | [ f ] -> Alcotest.(check string) "rule" "no-wallclock" f.Lint.rule
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

let test_lint_no_global_mutable () =
  (match lint "let total = ref 0\nlet fig_data opts = !total\n" with
   | [ f ] ->
     Alcotest.(check string) "rule" "no-global-mutable" f.Lint.rule;
     Alcotest.(check int) "line" 1 f.Lint.line
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* Local refs inside a binding are fine. *)
  Alcotest.(check (list string)) "local ref allowed" []
    (rules (lint "let fig_data opts =\n  let n = ref 0 in\n  !n\n"))

let test_lint_lock_pairing () =
  (match lint ~file:"lib/proto/foo.ml" "let f l =\n  Lock.acquire l;\n  work ()\n" with
   | [ f ] ->
     Alcotest.(check string) "rule" "lock-pairing" f.Lint.rule;
     Alcotest.(check int) "whole file" 0 f.Lint.line
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* One acquire feeding several early-exit releases is legitimate. *)
  Alcotest.(check (list string)) "extra releases fine" []
    (rules
       (lint ~file:"lib/driver/foo.ml"
          "let f l =\n\
          \  Lock.acquire l;\n\
          \  if a then (Lock.release l; 0)\n\
          \  else (Lock.release l; 1)\n"));
  (* Tests exercise unpaired acquires on purpose. *)
  Alcotest.(check (list string)) "tests exempt" []
    (rules (lint ~file:"test/test_foo.ml" "let f l =\n  Lock.acquire l\n"))

let test_lint_trace_guard () =
  (match
     lint ~file:"lib/xkern/foo.ml"
       "let f tracer =\n  Trace.emit tracer ~ts:0 ~tid:0 ~cpu:0 ev\n"
   with
   | [ f ] -> Alcotest.(check string) "rule" "trace-guard" f.Lint.rule
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  Alcotest.(check (list string)) "guarded emit fine" []
    (rules
       (lint ~file:"lib/xkern/foo.ml"
          "let f tracer =\n\
          \  if Trace.enabled tracer then\n\
          \    Trace.emit tracer ~ts:0 ~tid:0 ~cpu:0 ev\n"));
  Alcotest.(check (list string)) "trace.ml itself exempt" []
    (rules
       (lint ~file:"lib/engine/trace.ml"
          "let f t =\n  Trace.emit t ~ts:0 ~tid:0 ~cpu:0 ev\n"))

let test_lint_trace_alloc () =
  (* Seeded defect: the record is built before the callee's guard runs. *)
  (match
     lint ~file:"lib/xkern/foo.ml"
       "let incref t node =\n\
       \  let r = bump node in\n\
       \  trace_node t (Trace.Mnode_ref { node = node.id; refs = r })\n"
   with
   | [ f ] ->
     Alcotest.(check string) "rule" "trace-alloc" f.Lint.rule;
     Alcotest.(check int) "line" 3 f.Lint.line
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* The brace may open the next line. *)
  Alcotest.(check (list string)) "record on the next line" [ "trace-alloc" ]
    (rules
       (lint ~file:"lib/engine/foo.ml"
          "let f t =\n  trace t\n    (Trace.Lock_grant\n       { lock = t.name })\n"));
  Alcotest.(check (list string)) "guarded by Trace.enabled" []
    (rules
       (lint ~file:"lib/engine/foo.ml"
          "let f t =\n\
          \  if Trace.enabled t.tracer then\n\
          \    trace t (Trace.Thread_fork { child = 1 })\n"));
  Alcotest.(check (list string)) "guarded by a tracing test" []
    (rules
       (lint ~file:"lib/proto/foo.ml"
          "let f sess =\n\
          \  if sync_tracing sess then sync_trace sess (Trace.Rcu_read { state = s })\n"));
  Alcotest.(check (list string)) "constant constructors allocate nothing" []
    (rules (lint ~file:"lib/engine/foo.ml" "let f t th =\n  trace_thread t th Trace.Thread_block\n"));
  Alcotest.(check (list string)) "match arms are patterns" []
    (rules
       (lint ~file:"lib/analysis/foo.ml"
          "let f r =\n  match r with\n  | Trace.Lock_grant { lock; _ } -> lock\n  | _ -> x\n"));
  Alcotest.(check (list string)) "tests exempt" []
    (rules (lint ~file:"test/test_foo.ml" "let ev = Trace.Mnode_alloc { node = 1 }\n"))

let test_lint_allow_marker () =
  Alcotest.(check (list string)) "lint:allow suppresses" []
    (rules
       (lint "let fig_data opts =\n  Printf.printf \"x\" (* lint:allow: demo *)\n"))

let test_lint_msg_bump_gen () =
  (* Seeded violation: a binding mutates node bytes (Mpool.data +
     Bytes.set) without calling bump_gen — the checksum memo would go
     stale. *)
  (match
     lint ~file:"lib/xkern/fake.ml"
       "let poke node =\n  Bytes.set (Mpool.data node) 0 'x'\n"
   with
   | [ f ] ->
     Alcotest.(check string) "rule" "msg-bump-gen" f.Lint.rule;
     Alcotest.(check int) "line of the mutation" 2 f.Lint.line
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* Calling bump_gen anywhere in the binding satisfies the rule. *)
  Alcotest.(check (list string)) "bump_gen present" []
    (rules
       (lint ~file:"lib/xkern/fake.ml"
          "let poke pool node =\n\
          \  Mpool.bump_gen pool node;\n\
          \  Bytes.set (Mpool.data node) 0 'x'\n"));
  (* Mutating a plain buffer (no node bytes in scope) is out of scope. *)
  Alcotest.(check (list string)) "non-node mutation exempt" []
    (rules (lint ~file:"lib/xkern/fake.ml" "let poke buf =\n  Bytes.set buf 0 'x'\n"));
  (* An explicit allow documents intentional exceptions. *)
  Alcotest.(check (list string)) "allow marker honoured" []
    (rules
       (lint ~file:"lib/xkern/fake.ml"
          "let poke node =\n\
          \  (* lint:allow msg-bump-gen: writes the caller's view *)\n\
          \  Bytes.set (Mpool.data node) 0 'x'\n"))

let test_lint_state_matrix () =
  (* Seeded violation: a proto-layer binding writes annotated shared
     state with no lock acquisition in scope. *)
  (match
     lint ~file:"lib/proto/fake.ml"
       "let f sess =\n  access sess ~write:true \"snd\"\n"
   with
   | [ f ] ->
     Alcotest.(check string) "rule" "state-matrix" f.Lint.rule;
     Alcotest.(check int) "anchored at the binding" 1 f.Lint.line
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* A lock acquisition in the same binding satisfies the rule; reads
     never require one. *)
  Alcotest.(check (list string)) "locked write fine" []
    (rules
       (lint ~file:"lib/proto/fake.ml"
          "let f sess l =\n\
          \  Lock.acquire l;\n\
          \  access sess ~write:true \"snd\";\n\
          \  Lock.release l\n"));
  Alcotest.(check (list string)) "unlocked read fine" []
    (rules
       (lint ~file:"lib/proto/fake.ml"
          "let f sess =\n  access sess ~write:false \"snd\"\n"));
  (* lint:allow documents caller-locked helpers. *)
  Alcotest.(check (list string)) "caller-locked allow" []
    (rules
       (lint ~file:"lib/proto/fake.ml"
          "let f sess =\n\
          \  (* lint:allow state-matrix: caller holds the input locks *)\n\
          \  access sess ~write:true \"snd\"\n"));
  (* Layers outside lib/proto are out of scope for the matrix. *)
  Alcotest.(check (list string)) "non-proto exempt" []
    (rules
       (lint ~file:"lib/driver/fake.ml"
          "let f sess =\n  access sess ~write:true \"snd\"\n"))

let test_lint_state_matrix_rows () =
  (* The inferred matrix itself: reads/writes/locks per binding. *)
  let src =
    "let reader sess l =\n\
    \  Lock.acquire l;\n\
    \  access sess ~write:false \"rcv\";\n\
    \  Lock.release l\n\
     \n\
     let writer sess =\n\
    \  with_reass_lock sess (fun () ->\n\
    \    access sess ~write:true \"reass\";\n\
    \    access sess ~write:false \"rcv\")\n"
  in
  let rows = Lint.state_matrix_source ~file:"lib/proto/fake.ml" src in
  (match rows with
   | [ r1; r2 ] ->
     Alcotest.(check string) "first binding" "reader" r1.Lint.m_binding;
     Alcotest.(check (list string)) "reader reads" [ "rcv" ] r1.Lint.m_reads;
     Alcotest.(check (list string)) "reader writes" [] r1.Lint.m_writes;
     Alcotest.(check bool) "reader locks seen" true (r1.Lint.m_locks <> []);
     Alcotest.(check string) "second binding" "writer" r2.Lint.m_binding;
     Alcotest.(check (list string)) "writer writes" [ "reass" ] r2.Lint.m_writes;
     Alcotest.(check (list string)) "writer reads" [ "rcv" ] r2.Lint.m_reads;
     Alcotest.(check bool) "with_* counts as a lock" true (r2.Lint.m_locks <> [])
   | rs -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length rs)));
  Alcotest.(check int) "no violations in the fixture" 0
    (List.length (Lint.matrix_violations rows));
  (* The real proto layer yields a non-empty, violation-free matrix. *)
  let root =
    let rec up d =
      if Sys.file_exists (Filename.concat d "dune-project") then Some d
      else
        let parent = Filename.dirname d in
        if parent = d then None else up parent
    in
    up (Sys.getcwd ())
  in
  match root with
  | None -> ()
  | Some root ->
    let rows = Lint.state_matrix ~roots:[ Filename.concat root "lib" ] in
    Alcotest.(check bool) "proto matrix non-empty" true (List.length rows > 0);
    Alcotest.(check int) "proto matrix violation-free" 0
      (List.length (Lint.matrix_violations rows));
    (* The JSON export is structurally plausible and names every row. *)
    let json = Lint.matrix_json rows in
    Alcotest.(check bool) "json mentions the matrix key" true
      (String.length json > 2
      && String.sub json 0 2 = "{\""
      && List.for_all
           (fun r ->
             let sub = "\"" ^ r.Lint.m_binding ^ "\"" in
             let n = String.length json and m = String.length sub in
             let rec go i = i + m <= n && (String.sub json i m = sub || go (i + 1)) in
             go 0)
           rows)

let test_lint_clean_tree () =
  (* The repo must lint clean — this is `dune build @lint` as a unit
     test, pinned to wherever the runner starts. *)
  let root =
    let rec up d =
      if Sys.file_exists (Filename.concat d "dune-project") then Some d
      else
        let parent = Filename.dirname d in
        if parent = d then None else up parent
    in
    up (Sys.getcwd ())
  in
  match root with
  | None -> () (* sandboxed runner without the source tree: nothing to lint *)
  | Some root ->
    let roots =
      List.filter_map
        (fun d ->
          let p = Filename.concat root d in
          if Sys.file_exists p then Some p else None)
        [ "lib"; "bin" ]
    in
    let findings = Lint.check_tree ~roots in
    List.iter (fun f -> Format.eprintf "lint: %a@." Lint.pp_finding f) findings;
    Alcotest.(check int) "clean" 0 (List.length findings)

let suites =
  [
    ( "analysis.lockset",
      [
        Alcotest.test_case "locked counter clean" `Quick test_lockset_clean_locked_counter;
        Alcotest.test_case "unlocked counter fires" `Quick
          test_lockset_fires_on_unlocked_counter;
        Alcotest.test_case "read-shared not reported" `Quick
          test_lockset_read_shared_not_reported;
        Alcotest.test_case "disjoint locksets fire" `Quick
          test_lockset_partial_lock_overlap_fires;
        Alcotest.test_case "unlocked map-cache write fires" `Quick
          test_lockset_fires_on_unlocked_map_cache;
        Alcotest.test_case "per-thread map cache is clean" `Quick
          test_unlocked_map_lookup_is_clean;
      ] );
    ( "analysis.lockorder",
      [
        Alcotest.test_case "inverted TCP-6 order is a cycle" `Quick
          test_lock_order_cycle_detected;
        Alcotest.test_case "consistent order is clean" `Quick
          test_lock_order_consistent_is_clean;
        Alcotest.test_case "three-lock cycle" `Quick test_lock_order_three_cycle;
      ] );
    ( "analysis.order",
      [
        Alcotest.test_case "fifo violation detected" `Quick
          test_fifo_order_violation_detected;
        Alcotest.test_case "in-order grants clean" `Quick test_fifo_order_in_order_clean;
        Alcotest.test_case "reorder windows quantified" `Quick test_reorder_window_stats;
      ] );
    ( "analysis.replay",
      [
        Alcotest.test_case "round-trip count and order" `Quick test_replay_round_trip;
        Alcotest.test_case "held locks and carried seq" `Quick test_replay_held_and_seq;
      ] );
    ( "analysis.e2e",
      [
        Alcotest.test_case "TCP-6 recv run is clean" `Quick
          test_clean_tcp6_run_has_no_findings;
        Alcotest.test_case "TCP-2 send run is clean" `Quick
          test_clean_tcp_send_run_has_no_findings;
      ] );
    ( "analysis.lint",
      [
        Alcotest.test_case "scrubber" `Quick test_lint_scrub;
        Alcotest.test_case "no print in data phase" `Quick test_lint_no_print_in_data_phase;
        Alcotest.test_case "no wallclock in data phase" `Quick
          test_lint_no_wallclock_in_data_phase;
        Alcotest.test_case "no global mutable state" `Quick test_lint_no_global_mutable;
        Alcotest.test_case "lock pairing" `Quick test_lint_lock_pairing;
        Alcotest.test_case "trace guard" `Quick test_lint_trace_guard;
        Alcotest.test_case "trace records built under a guard" `Quick test_lint_trace_alloc;
        Alcotest.test_case "allow marker" `Quick test_lint_allow_marker;
        Alcotest.test_case "msg mutators must bump_gen" `Quick test_lint_msg_bump_gen;
        Alcotest.test_case "state-access matrix violations" `Quick test_lint_state_matrix;
        Alcotest.test_case "state-access matrix rows" `Quick test_lint_state_matrix_rows;
        Alcotest.test_case "tree lints clean" `Quick test_lint_clean_tree;
      ] );
  ]

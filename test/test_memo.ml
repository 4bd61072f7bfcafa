(* The sweep-cell memo (Run) and its key (Config.canonical): caching
   repeated (config, seed) cells must never change a byte of figure
   output, at any -j level, and the key must distinguish every
   configuration field that changes what a run computes. *)

open Pnp_harness

let with_jobs n f =
  let old = Pool.jobs () in
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs old) f

let with_memo on f =
  Run.set_cell_memo on;
  Run.clear_cell_memo ();
  Fun.protect
    ~finally:(fun () ->
      Run.set_cell_memo true;
      Run.clear_cell_memo ())
    f

(* A reduced but real sweep whose figure shares cells internally (the
   speedup table reuses the throughput table's cells). *)
let sweep_opts =
  {
    Pnp_figures.Opts.max_procs = 2;
    seeds = 2;
    warmup = Pnp_util.Units.ms 30.0;
    measure = Pnp_util.Units.ms 60.0;
  }

let fig10_payload () =
  Json_out.figure_json ~id:"fig10" ~jobs:1 ~elapsed_s:0.0
    (Pnp_figures.Fig_ordering.fig10_data sweep_opts)

let test_memo_on_off_identical () =
  let cold = with_memo false fig10_payload in
  let warm =
    with_memo true (fun () ->
        let first = fig10_payload () in
        Alcotest.(check bool) "memo populated" true (Run.cell_memo_size () > 0);
        (* Second generation is served (partly) from the memo. *)
        let second = fig10_payload () in
        Alcotest.(check string) "memo-served repeat identical" first second;
        first)
  in
  Alcotest.(check string) "memo off and on byte-identical" cold warm

let test_memo_parallel_identical () =
  with_memo true (fun () ->
      let serial = with_jobs 1 fig10_payload in
      Run.clear_cell_memo ();
      let parallel = with_jobs 4 fig10_payload in
      Alcotest.(check string) "-j 1 and -j 4 byte-identical with memo" serial
        parallel)

(* The memo would silently corrupt figures if two different configs
   collided on one key; pin that every field that changes a run changes
   the key.  (The full every-field guarantee lives in Config.canonical's
   implementation: the key is built from an exhaustive field list.) *)
let test_canonical_distinguishes () =
  let base = Config.baseline in
  let distinct name a b =
    Alcotest.(check bool)
      (name ^ " changes the canonical key")
      false
      (String.equal (Config.canonical a) (Config.canonical b))
  in
  Alcotest.(check string)
    "equal configs, equal keys"
    (Config.canonical base)
    (Config.canonical { base with Config.seed = base.Config.seed });
  distinct "refcnt_mode" base
    { base with Config.refcnt_mode = Pnp_engine.Atomic_ctr.Locked };
  distinct "message_caching" base { base with Config.message_caching = false };
  distinct "loss_rate" base { base with Config.loss_rate = 0.01 };
  distinct "seed" base { base with Config.seed = base.Config.seed + 1 };
  distinct "procs" base { base with Config.procs = base.Config.procs + 1 };
  distinct "ticketing" base { base with Config.ticketing = true };
  distinct "cksum_under_lock" base { base with Config.cksum_under_lock = true };
  distinct "skew" base { base with Config.skew = 0.5 };
  distinct "offered_mbps" base { base with Config.offered_mbps = Some 100.0 };
  distinct "measure" base { base with Config.measure = base.Config.measure + 1 };
  distinct "steering" base { base with Config.steering = Some Pnp_driver.Steer.Hash };
  distinct "steering policy"
    { base with Config.steering = Some Pnp_driver.Steer.Hash }
    { base with Config.steering = Some Pnp_driver.Steer.Last_sender };
  distinct "demux_shards" base { base with Config.demux_shards = 8 }

(* A memo hit returns the very value a fresh run computes. *)
let test_memo_hit_equals_fresh_run () =
  let cfg =
    Config.v ~procs:2 ~side:Config.Recv ~protocol:Config.Tcp
      ~warmup:(Pnp_util.Units.ms 20.0)
      ~measure:(Pnp_util.Units.ms 40.0)
      ~seed:7 ()
  in
  let fresh = with_memo false (fun () -> Run.run cfg) in
  with_memo true (fun () ->
      let miss = Run.run cfg in
      let hit = Run.run cfg in
      Alcotest.(check bool) "miss equals fresh" true (miss = fresh);
      Alcotest.(check bool) "hit equals miss" true (hit = miss);
      Alcotest.(check int) "one cell cached" 1 (Run.cell_memo_size ()))

(* The committed per-cell fingerprint of the reduced sweep
   ([repro all --max-procs 2 --seeds 1 --warmup-ms 50 --measure-ms 100
   --cells test/golden/cells.txt]): CI diffs the whole file; here a
   subset of its figures re-runs, and every cell they produce must
   match its committed line exactly (configuration, engine events and
   result digest). *)
let golden_cells () =
  In_channel.with_open_text "golden/cells.txt" In_channel.input_lines

let test_golden_cell_fingerprints () =
  let golden = Hashtbl.create 256 in
  List.iter (fun l -> Hashtbl.replace golden l ()) (golden_cells ());
  let opts =
    {
      Pnp_figures.Opts.max_procs = 2;
      seeds = 1;
      warmup = Pnp_util.Units.ms 50.0;
      measure = Pnp_util.Units.ms 100.0;
    }
  in
  with_memo true (fun () ->
      List.iter
        (fun data -> ignore (data opts))
        Pnp_figures.
          [
            Fig_baseline.fig6_7_data;
            Fig_baseline.fig8_9_data;
            Fig_ordering.fig10_data;
            Fig_ordering.fig11_data;
            Fig_multiconn.fig12_data;
            Fig_locking.fig13_data;
            Fig_locking.fig14_data;
            Fig_atomics.fig15_data;
            Fig_caching.fig16_data;
            Fig_archcmp.fig17_18_data;
            Fig_extensions.cksum_placement_data;
            Fig_faults.faults_data;
            Fig_scr.scr_data;
          ];
      let lines = Run.cell_fingerprints () in
      Printf.printf "%d cells checked\n" (List.length lines);
      Alcotest.(check bool) "cells ran" true (List.length lines >= 16);
      List.iter
        (fun l ->
          if not (Hashtbl.mem golden l) then
            Alcotest.failf "cell fingerprint not in golden/cells.txt:\n%s" l)
        lines)

let suites =
  [
    ( "harness.memo",
      [
        Alcotest.test_case "golden cell fingerprints" `Quick test_golden_cell_fingerprints;
        Alcotest.test_case "canonical key distinguishes fields" `Quick
          test_canonical_distinguishes;
        Alcotest.test_case "hit equals fresh run" `Quick test_memo_hit_equals_fresh_run;
        Alcotest.test_case "memo on/off byte-identical" `Slow test_memo_on_off_identical;
        Alcotest.test_case "memo -j1 = -j4 on a real sweep" `Slow
          test_memo_parallel_identical;
      ] );
  ]

(* Tests of the benchmark's own pieces: the percentile rule, self time
   over a span tree, and simulated-output digests that do not depend on
   the worker count. *)

open Perfbench
open Pnp_harness

let feq = Alcotest.float 1e-9

(* ---- Percentile rule ---- *)

let test_tail_rule () =
  let rule = Alcotest.(option (float 0.0)) in
  Alcotest.check rule "100 samples: p90 has 10 beyond it" (Some 90.0) (Pct.tail_rule 100);
  Alcotest.check rule "99 samples: p90 has 9, p75 has 24" (Some 75.0) (Pct.tail_rule 99);
  Alcotest.check rule "1000 samples: p99" (Some 99.0) (Pct.tail_rule 1000);
  Alcotest.check rule "10000 samples: p99.9" (Some 99.9) (Pct.tail_rule 10000);
  Alcotest.check rule "20 samples: only the median" (Some 50.0) (Pct.tail_rule 20);
  Alcotest.check rule "19 samples: nothing" None (Pct.tail_rule 19)

let test_tail_values () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "median of 1..100" 50.0 (Pct.median xs);
  Alcotest.check feq "p90 of 1..100" 90.0 (Pct.percentile 90.0 xs);
  match Pct.tail xs with
  | None -> Alcotest.fail "100 samples must have a tail"
  | Some t ->
    Alcotest.check feq "tail percentile" 90.0 t.Pct.p;
    Alcotest.check feq "tail value" 90.0 t.Pct.value;
    Alcotest.(check int) "sample count stated" 100 t.Pct.n

(* ---- Self time ---- *)

(* root [0,10] with children a [1,4] and b [3,6] running concurrently;
   a has a child c [2,3].  Overlapping children are unioned. *)
let synthetic () =
  let t = Spans.create ~cell:0 in
  let root = Spans.record t ~parent:(-1) ~name:"root" ~start:0.0 ~stop:10.0 in
  let a = Spans.record t ~parent:root ~name:"a" ~start:1.0 ~stop:4.0 in
  ignore (Spans.record t ~parent:root ~name:"b" ~start:3.0 ~stop:6.0);
  ignore (Spans.record t ~parent:a ~name:"c" ~start:2.0 ~stop:3.0);
  t

let self_of name t = List.assoc name (Spans.self_by_name (Spans.spans t))

let test_self_time () =
  let t = synthetic () in
  Alcotest.check feq "root: 10 - |[1,6]|" 5.0 (self_of "root" t);
  Alcotest.check feq "a: 3 - |[2,3]|" 2.0 (self_of "a" t);
  Alcotest.check feq "b: leaf" 3.0 (self_of "b" t);
  Alcotest.check feq "c: leaf" 1.0 (self_of "c" t);
  Alcotest.check feq "busy counts children" 3.0 (Spans.busy "a" (Spans.spans t))

let test_merge () =
  let base = Spans.create ~cell:(-1) in
  let pass = Spans.record base ~parent:(-1) ~name:"pass" ~start:0.0 ~stop:10.0 in
  Spans.merge base [ (synthetic (), pass); (synthetic (), pass) ];
  let spans = Spans.spans base in
  Alcotest.(check int) "every span kept" 9 (List.length spans);
  let ids = List.sort_uniq compare (List.map (fun s -> s.Spans.id) spans) in
  Alcotest.(check int) "ids unique after merge" 9 (List.length ids);
  (* The two grafted roots cover [0,10] entirely. *)
  Alcotest.check feq "pass self time" 0.0 (self_of "pass" base);
  Alcotest.check feq "a summed over both trees" 4.0 (self_of "a" base)

(* ---- Cells and digests ---- *)

let test_cells_from_seed () =
  List.iter
    (fun workload ->
      let keys seed = List.map Cells.key (Cells.cells ~workload ~seed) in
      let k1 = keys 1 in
      Alcotest.(check bool) (workload ^ ": at least 100 cells") true (List.length k1 >= 100);
      Alcotest.(check (list string)) (workload ^ ": same seed, same cells") k1 (keys 1);
      Alcotest.(check bool) (workload ^ ": another seed, other cells") true (k1 <> keys 2);
      Alcotest.(check int) (workload ^ ": cells are distinct") (List.length k1)
        (List.length (List.sort_uniq compare k1)))
    Cells.workloads

(* The first cell of each kind, with short windows and at most 1000
   connections, so the slice stays cheap. *)
let slice workload =
  let short cfg =
    { cfg with Config.warmup = Pnp_util.Units.ms 10.0 + Cells.population_ns cfg;
      measure = Pnp_util.Units.ms 20.0 }
  in
  let shortened (c : Cells.cell) =
    match c.Cells.call with
    | Cells.Run cfg when cfg.Config.connections > 1000 -> None
    | Cells.Run cfg -> Some { c with Cells.call = Cells.Run (short cfg) }
    | Cells.Check cfg -> Some { c with Cells.call = Cells.Check (short cfg) }
    | _ -> Some c
  in
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (c : Cells.cell) ->
      (not (Hashtbl.mem seen c.Cells.kind)) && (Hashtbl.add seen c.Cells.kind (); true))
    (List.filter_map shortened (Cells.cells ~workload ~seed:7))

let digest_at jobs cells =
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) (fun () ->
      let outs = Pool.map (fun c -> Cells.exec c) cells in
      List.iter
        (fun (o : Cells.out) ->
          if o.Cells.problems <> [] then
            Alcotest.failf "%s: %s" (Cells.key o.Cells.cell) (String.concat "; " o.Cells.problems))
        outs;
      Cells.digest outs)

let test_digest_jobs workload () =
  Run.set_cell_memo false;
  let cells = slice workload in
  Alcotest.(check bool) (workload ^ ": slice covers several kinds") true (List.length cells >= 4);
  Alcotest.(check string) (workload ^ ": -j1 and -j2 digests") (digest_at 1 cells) (digest_at 2 cells)

(* ---- Known defects ---- *)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_known_defects () =
  Run.set_cell_memo false;
  List.iter
    (fun (expected, c) ->
      let problems = String.concat "; " (Cells.exec c).Cells.problems in
      if not (contains problems expected) then
        Alcotest.failf "%s no longer fails with %S (problems: [%s]); put its family back"
          (Cells.key c) expected problems)
    Cells.known_defects

let () =
  Alcotest.run "perfbench"
    [
      ( "pct",
        [
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "tail values" `Quick test_tail_values;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "merge" `Quick test_merge;
        ] );
      ( "cells",
        Alcotest.test_case "generated from the seed" `Quick test_cells_from_seed
        :: List.map
             (fun w -> Alcotest.test_case ("digest -j1 = -j2: " ^ w) `Quick (test_digest_jobs w))
             Cells.workloads
        @ [ Alcotest.test_case "known defects still fail" `Quick test_known_defects ] );
    ]

(* The repository benchmark.

     bench.exe --workload paper|ext|oracle --seed N --seconds S --trace 0|1
               [--jobs J] [--out DIR]

   One process runs one workload.  It generates the workload's cells from
   the seed, sets up (inputs and one warm-up cell per cell kind) several
   times, then runs the whole cell set as a closed loop over the Pool
   workers, pass after pass, until S seconds have gone.  Every timing is
   taken from outside the library: the benchmark times its own calls
   into [Run], [Check], [Chaos] and [Overload] and reads the counters
   those layers already expose.  End-to-end host times are CPU times,
   which a shared host's CPU steal does not inflate the way it does
   wall-clock times; span times are wall-clock.

   [--trace 0] prints the end-to-end metrics.  [--trace 1] alternates
   untraced and traced passes, records a span around every library call,
   runs the paired-cell probes, writes the span tree to DIR and prints
   the per-layer metrics.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

open Pnp_harness
open Perfbench

let t_process = Unix.gettimeofday ()

(* ---- Arguments ---- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let jobs = ref 2
let out_dir = ref "perfbench-out"

let usage = "bench.exe --workload paper|ext|oracle --seed N --seconds S --trace 0|1"

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME paper, ext or oracle");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_int seconds, "S measure for S seconds (at least one pass)");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced run (1)");
    ("--jobs", Arg.Set_int jobs, "J Pool workers (default 2)");
    ("--out", Arg.Set_string out_dir, "DIR where spans and seen digests are kept");
  ]

(* ---- Small helpers ---- *)

let now = Unix.gettimeofday
let fsum = List.fold_left ( +. ) 0.0
let isum = List.fold_left ( + ) 0
let mean = function [] -> 0.0 | xs -> fsum xs /. float_of_int (List.length xs)

let max_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let kb = go () in
  close_in ic;
  float_of_int kb /. 1024.0

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* ---- Set-up and passes ---- *)

(* One warm-up cell per kind: the cheapest cell of each kind. *)
let warm_cells cells =
  List.fold_left
    (fun acc (c : Cells.cell) ->
      match List.assoc_opt c.Cells.kind acc with
      | Some (w : Cells.cell) when w.Cells.size <= c.Cells.size -> acc
      | _ -> (c.Cells.kind, c) :: List.remove_assoc c.Cells.kind acc)
    [] cells
  |> List.rev_map snd

(* Generate the inputs and warm up, serially on the main domain; returns
   the cells and the CPU time taken since [cpu0].  The warm-up cells come
   from a fixed seed: their cost varies with the seed, and set-up should
   cost the same at every workload seed. *)
let setup ~cpu0 =
  let cells = Cells.cells ~workload:!workload ~seed:!seed in
  let warm = List.map (fun c -> Cells.exec c) (warm_cells (Cells.cells ~workload:!workload ~seed:0)) in
  List.iter
    (fun (o : Cells.out) ->
      if o.Cells.problems <> [] then
        Printf.printf "warm-up cell failed: %s: %s\n" (Cells.key o.Cells.cell)
          (String.concat "; " o.Cells.problems))
    warm;
  (cells, Clock.process_cpu_s () -. cpu0)

type pass = {
  wall : float;
  cpu : float;  (** process CPU seconds, all workers *)
  outs : Cells.out list;
  host : Hostprof.delta;
  start : float;
  spans : Spans.t option;  (** traced passes: the pass's span tree *)
}

let run_pass ~traced cells =
  let start = now () in
  let cpu0 = Clock.process_cpu_s () in
  let s0 = Hostprof.snapshot () in
  let outs, spans =
    if not traced then (Pool.map (fun c -> Cells.exec c) cells, None)
    else begin
      let root = Spans.create ~cell:(-1) in
      let results, pass_id =
        Spans.with_span root ~parent:(-1) "pass" (fun pass_id ->
            ( Pool.map
                (fun (i, c) ->
                  let r = Spans.create ~cell:i in
                  let o = Cells.exec ~rec_:r c in
                  (o, r))
                (List.mapi (fun i c -> (i, c)) cells),
              pass_id ))
      in
      Spans.merge root (List.map (fun (_, r) -> (r, pass_id)) results);
      (List.map fst results, Some root)
    end
  in
  let host = Hostprof.delta s0 (Hostprof.snapshot ()) in
  { wall = now () -. start; cpu = Clock.process_cpu_s () -. cpu0; outs; host; start; spans }

(* Pass after pass until [seconds] have gone; with [alternate], untraced
   and traced passes take turns, starting untraced. *)
let measure_passes ~alternate cells =
  let t0 = now () in
  let rec go acc i =
    let elapsed = now () -. t0 in
    let enough = if alternate then i >= 2 && i mod 2 = 0 else i >= 1 in
    if enough && elapsed >= float_of_int !seconds then List.rev acc
    else go (run_pass ~traced:(alternate && i mod 2 = 1) cells :: acc) (i + 1)
  in
  go [] 0

(* Time a worker went idle for good: the pass's end minus the earliest
   last-cell end among the workers. *)
let tail_s p =
  let last = Hashtbl.create 4 in
  List.iter
    (fun (o : Cells.out) ->
      let w = o.Cells.worker in
      match Hashtbl.find_opt last w with
      | Some t when t >= o.Cells.stop -> ()
      | _ -> Hashtbl.replace last w o.Cells.stop)
    p.outs;
  if Hashtbl.length last < 2 then 0.0
  else
    let ends = Hashtbl.fold (fun _ t acc -> t :: acc) last [] in
    p.start +. p.wall -. List.fold_left Float.min infinity ends

(* ---- Correctness ---- *)

let failed_outs outs = List.filter (fun (o : Cells.out) -> o.Cells.problems <> []) outs

let report_failures outs =
  List.iter
    (fun (o : Cells.out) ->
      Printf.printf "FAILED %s: %s\n" (Cells.key o.Cells.cell) (String.concat "; " o.Cells.problems))
    (failed_outs outs)

(* A run of one (workload, seed) must give the digest every earlier run
   of it in this checkout gave, at any worker count and with tracing on
   or off; the first run records it.  The file is keyed by the cell set
   too, so editing the workloads starts a fresh record. *)
let check_seen_digest cells digest =
  let dir = Filename.concat !out_dir "digests" in
  mkdir_p dir;
  let cell_set = Digest.to_hex (Digest.string (String.concat "\n" (List.map Cells.key cells))) in
  let file =
    Filename.concat dir (Printf.sprintf "%s-seed%d-%s.txt" !workload !seed (String.sub cell_set 0 12))
  in
  if Sys.file_exists file then begin
    let ic = open_in file in
    let seen = input_line ic in
    close_in ic;
    if seen <> digest then
      Printf.printf "digest %s differs from the %s an earlier run of this seed gave\n" digest seen;
    seen = digest
  end
  else begin
    let oc = open_out file in
    output_string oc (digest ^ "\n");
    close_out oc;
    true
  end

(* ---- Output ---- *)

let metrics = ref []

let metric name unit value =
  let value = if Float.is_finite value then value else 0.0 in
  metrics := (name, unit, value) :: !metrics

let print_result ~correct ~attempted ~failed =
  let ms = List.rev !metrics in
  List.iter (fun (n, u, v) -> Printf.printf "  %-40s %16.6f %s\n" n v u) ms;
  let body =
    String.concat ", "
      (List.map
         (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed body

(* ---- Anchors ---- *)

let anchor_pairs outs =
  List.filter_map
    (fun (o : Cells.out) ->
      match (o.Cells.cell.Cells.anchor, o.Cells.result) with
      | Some a, Some r -> Some (a, Anchors.simulated a r)
      | _ -> None)
    outs

let print_anchors pairs =
  Printf.printf "anchors (paper values read from the text and tables):\n";
  List.iter
    (fun ((a : Anchors.t), sim) ->
      Printf.printf "  %-22s paper %6.1f  sim %8.2f  err %6.1f%%  (%s)\n" a.Anchors.name a.Anchors.paper
        sim (100.0 *. Float.abs (sim -. a.Anchors.paper) /. a.Anchors.paper) a.Anchors.source)
    pairs

(* ---- Per-layer metrics (traced run) ---- *)

let is_check (o : Cells.out) =
  match o.Cells.cell.Cells.call with Cells.Check _ -> true | _ -> false

(* (config, result) of every TCP cell with a [Run.result]. *)
let tcp_results outs =
  List.filter_map
    (fun (o : Cells.out) ->
      match (o.Cells.cell.Cells.call, o.Cells.result) with
      | (Cells.Run cfg | Cells.Check cfg), Some r when cfg.Config.protocol = Config.Tcp ->
        Some (cfg, r)
      | _ -> None)
    outs

let spans_of p = match p.spans with Some r -> Spans.spans r | None -> []

let time f =
  let t0 = now () in
  ignore (f ());
  now () -. t0

(* Time both sides of a pair, the [i]-th pair going [a] first when [i]
   is even and [b] first when it is odd. *)
let time_pair i a b =
  if i mod 2 = 0 then
    let ta = time a in
    (ta, time b)
  else
    let tb = time b in
    (time a, tb)

let median_or_zero = function [] -> 0.0 | xs -> Pct.median xs

(* Paired probe: the median over [bases] of (time of [a] - time of [b]),
   ms, each side one [Run.run] span. *)
let paired_ms layer bases ~a ~b =
  let run f base () = layer Cells.span_run (fun () -> Run.run (f base)) in
  median_or_zero
    (List.mapi
       (fun i base ->
         let ta, tb = time_pair i (run a base) (run b base) in
         1000.0 *. (ta -. tb))
       bases)

(* The traced run's probe section: one reference call into each of the
   chaos, overload and check layers, then the paired probes, all under
   one "probe" span. *)
let run_probes (probes : Cells.probes) =
  let probe_rec = Spans.create ~cell:(-1) in
  let res =
    Spans.with_span probe_rec ~parent:(-1) "probe" (fun probe_id ->
        let layer name f = Cells.layer (Some probe_rec) ~parent:probe_id name f in
        let ref_outs =
          List.mapi
            (fun i c ->
              let r = Spans.create ~cell:(-2 - i) in
              let o = Cells.exec ~rec_:r c in
              Spans.merge probe_rec [ (r, probe_id) ];
              o)
            probes.Cells.reference
        in
        let pres_ms =
          paired_ms layer probes.Cells.pres
            ~a:(fun cfg -> { cfg with Config.presentation = true })
            ~b:(fun cfg -> { cfg with Config.presentation = false })
        in
        let scr_ms =
          paired_ms layer probes.Cells.scr
            ~a:(fun cfg -> { cfg with Config.tcp_locking = Pnp_proto.Tcp.Scr })
            ~b:(fun cfg -> { cfg with Config.tcp_locking = Pnp_proto.Tcp.One })
        in
        let trace_pct =
          List.mapi
            (fun i cfg ->
              let tt, tp =
                time_pair i
                  (fun () -> layer Cells.span_run_traced (fun () -> Run.run_traced cfg))
                  (fun () -> layer Cells.span_run (fun () -> Run.run cfg))
              in
              100.0 *. (tt -. tp) /. tp)
            probes.Cells.trace
        in
        let populate_ms =
          List.map
            (fun cfg ->
              1000.0 *. time (fun () -> layer Cells.span_run (fun () -> Run.run (Cells.populate_cfg cfg))))
            probes.Cells.populate
        in
        (ref_outs, pres_ms, scr_ms, trace_pct, populate_ms))
  in
  (probe_rec, res)

let per_layer ~untraced ~traced ~(probes : Cells.probes) =
  let probe_rec, (ref_outs, pres_ms, scr_ms, trace_pct, populate_ms) = run_probes probes in
  (* Counters come from the last traced pass's cells when they call the
     layer, otherwise from the reference calls. *)
  let pass_outs = (List.nth traced (List.length traced - 1)).outs in
  let source has = if List.exists has pass_outs then pass_outs else ref_outs in
  (* Busy time: median over traced passes, or the probe section's. *)
  let busy name =
    let in_passes = List.map (fun p -> Spans.busy name (spans_of p)) traced in
    if List.exists (fun b -> b > 0.0) in_passes then Pct.median in_passes
    else Spans.busy name (Spans.spans probe_rec)
  in
  let host f = Pct.median (List.map (fun p -> f p.host) untraced) in
  let count f xs = float_of_int (isum (List.map f xs)) in
  let tcp = tcp_results pass_outs in
  let tcp_mean f = mean (List.map (fun (_, r) -> f r) tcp) in
  let ch = List.filter_map (fun (o : Cells.out) -> o.Cells.chaos) (source (fun o -> o.Cells.chaos <> None)) in
  let ov =
    List.filter_map (fun (o : Cells.out) -> o.Cells.overload) (source (fun o -> o.Cells.overload <> None))
  in
  let scr = List.filter (fun (cfg, _) -> cfg.Config.tcp_locking = Pnp_proto.Tcp.Scr) tcp in
  let appends = isum (List.map (fun (_, r) -> r.Run.scr_appends) scr) in
  let links = List.concat_map (fun (c : Chaos.outcome) -> [ c.Chaos.tcp_link; c.Chaos.udp_link ]) ch in
  let corruption = List.map (fun (c : Chaos.outcome) -> c.Chaos.corruption) ch in
  let injected = count (fun (c : Pnp_analysis.Recovery.corruption) -> c.injected) corruption in
  let caught =
    count (fun (c : Pnp_analysis.Recovery.corruption) -> min c.caught c.injected) corruption
  in
  let check_busy = busy Cells.span_check in
  let check_events =
    count (fun (o : Cells.out) -> o.Cells.trace_events) (List.filter is_check (source is_check))
  in
  let latencies =
    List.concat_map
      (fun (o : Overload.outcome) ->
        List.map (fun (_, ns) -> float_of_int ns /. 1e6) o.Overload.completion_ns)
      ov
  in
  let wall ps = Pct.median (List.map (fun p -> p.wall) ps) in
  let cell_s p = fsum (List.map (fun (o : Cells.out) -> o.Cells.stop -. o.Cells.start) p.outs) in
  metric "harness.pool.wall_s" "s" (wall untraced);
  metric "harness.run.busy_s" "s" (busy Cells.span_run);
  metric "harness.pool.busy_pct" "%"
    (Pct.median (List.map (fun p -> 100.0 *. cell_s p /. (float_of_int !jobs *. p.wall)) traced));
  metric "harness.pool.tail_s" "s" (Pct.median (List.map tail_s (untraced @ traced)));
  metric "harness.run.populate_ms" "ms" (median_or_zero populate_ms);
  metric "harness.chaos.busy_s" "s" (busy Cells.span_chaos);
  metric "harness.overload.busy_s" "s" (busy Cells.span_incast +. busy Cells.span_bottleneck);
  metric "engine.events" "count" (host (fun h -> float_of_int h.Hostprof.sim_events));
  metric "engine.events_per_s" "1/s" (host Hostprof.events_per_sec);
  metric "engine.uncounted_cells" "count"
    (count
       (fun (o : Cells.out) -> Bool.to_int (o.Cells.chaos <> None || o.Cells.overload <> None))
       pass_outs);
  metric "engine.drain_mean" "events/drain" (host Hostprof.batch_mean);
  metric "engine.trace.events" "count"
    (count (fun (o : Cells.out) -> o.Cells.trace_events) (source (fun o -> o.Cells.trace_events > 0)));
  metric "engine.trace.overhead_pct" "%" (median_or_zero trace_pct);
  metric "engine.watchdog.stalls" "count"
    (count (fun (o : Overload.outcome) -> List.length o.Overload.stalls) ov);
  metric "engine.lock.wait_pct" "%" (tcp_mean (fun r -> r.Run.lock_wait_pct));
  metric "gc.minor_words_per_event" "words/event"
    (host (fun h -> h.Hostprof.gc_minor_words /. float_of_int (max 1 h.Hostprof.sim_events)));
  metric "gc.major_mwords" "Mwords" (host (fun h -> h.Hostprof.gc_major_words /. 1e6));
  metric "xkern.mpool.arena_hwm_mb" "MB" (host (fun h -> float_of_int h.Hostprof.arena_hwm /. 1e6));
  metric "xkern.mpool.cache_hit_pct" "%"
    (mean
       (List.filter_map
          (fun (o : Cells.out) -> Option.map (fun r -> r.Run.cache_hit_pct) o.Cells.result)
          pass_outs));
  metric "xkern.mpool.pressure_entries" "count"
    (count (fun (o : Overload.outcome) -> o.Overload.pool_pressure_entries) ov);
  metric "proto.tcp.ooo_pct" "%" (tcp_mean (fun r -> r.Run.ooo_pct));
  metric "proto.tcp.pred_miss_pct" "%" (tcp_mean (fun r -> r.Run.pred_miss_pct));
  metric "proto.tcp.rexmits" "count"
    (count (fun (c : Chaos.outcome) -> c.Chaos.tcp_rexmits) ch
     +. count (fun (o : Overload.outcome) -> o.Overload.rexmits) ov);
  metric "proto.tcp.syn_drops" "count"
    (count (fun (o : Overload.outcome) -> o.Overload.drops.Pnp_analysis.Recovery.syn_backlog) ov);
  metric "proto.tcp.scr.replays_per_append" "ratio"
    (if appends = 0 then 0.0 else count (fun (_, r) -> r.Run.scr_replayed) scr /. float_of_int appends);
  metric "proto.tcp.scr.extra_ms" "ms" scr_ms;
  metric "proto.pres.extra_ms" "ms" pres_ms;
  metric "driver.link.offered" "count" (count (fun l -> l.Pnp_driver.Link.offered) links);
  metric "driver.link.dropped" "count" (count (fun l -> l.Pnp_driver.Link.dropped) links);
  metric "driver.link.pool_pressure_drops" "count"
    (count (fun l -> l.Pnp_driver.Link.dropped_pool_pressure) links);
  metric "faults.corrupt_caught_pct" "%" (if injected = 0.0 then 100.0 else 100.0 *. caught /. injected);
  metric "analysis.check.busy_s" "s" check_busy;
  metric "analysis.check.us_per_event" "us" (1e6 *. check_busy /. Float.max 1.0 check_events);
  metric "analysis.findings" "count" (count (fun (o : Cells.out) -> o.Cells.findings) (pass_outs @ ref_outs));
  metric "harness.overload.goodput_mbps" "Mbit/s"
    (mean (List.map (fun (o : Overload.outcome) -> o.Overload.goodput_mbps) ov));
  metric "harness.overload.p99_ms" "ms" (if latencies = [] then 0.0 else Pct.percentile 99.0 latencies);
  metric "harness.overload.jain" "ratio"
    (mean (List.map (fun (o : Overload.outcome) -> o.Overload.fairness) ov));
  metric "bench.spans.overhead_pct" "%" (100.0 *. (wall traced -. wall untraced) /. wall untraced);
  (* The whole span tree, written out: every traced pass, then the probes. *)
  let tree = Spans.create ~cell:(-1) in
  List.iter (fun p -> Option.iter (fun r -> Spans.merge tree [ (r, -1) ]) p.spans) traced;
  Spans.merge tree [ (probe_rec, -1) ];
  let all_spans = Spans.spans tree in
  mkdir_p !out_dir;
  let file = Filename.concat !out_dir (Printf.sprintf "spans-%s-seed%d.json" !workload !seed) in
  Spans.write_json file ~t0:t_process all_spans;
  Printf.printf "spans: %d -> %s\nself time by span name:\n" (List.length all_spans) file;
  let selfs = Spans.self_by_name all_spans in
  List.iter (fun (n, s) -> Printf.printf "  %-28s %10.4f s\n" n s) selfs;
  List.iter
    (fun n -> metric (Printf.sprintf "self.%s_s" n) "s" (Option.value ~default:0.0 (List.assoc_opt n selfs)))
    [
      "pass"; "cell"; "probe"; Cells.span_run; Cells.span_run_traced; Cells.span_check;
      Cells.span_chaos; Cells.span_incast; Cells.span_bottleneck;
    ];
  ref_outs

(* ---- Main ---- *)

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload Cells.workloads) then begin
    prerr_endline ("unknown workload " ^ !workload ^ "; " ^ usage);
    exit 2
  end;
  if !seconds < 1 || !jobs < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 };
  Run.set_cell_memo false;
  Pool.set_jobs !jobs;
  let traced_run = !trace = 1 in
  (* Set-up, repeated: the first from process start. *)
  let setups = if traced_run then 1 else 5 in
  let cells, setup_times =
    let rec go i acc =
      let cpu0 = if i = 0 then 0.0 else Clock.process_cpu_s () in
      let cells, dt = setup ~cpu0 in
      if i + 1 >= setups then (cells, List.rev (dt :: acc)) else go (i + 1) (dt :: acc)
    in
    go 0 []
  in
  let passes = measure_passes ~alternate:traced_run cells in
  let untraced = List.filter (fun p -> p.spans = None) passes in
  let traced = List.filter (fun p -> p.spans <> None) passes in
  (* Anchors: timed cells on [paper], untimed extra cells elsewhere. *)
  let first = List.hd passes in
  let anchor_outs =
    if anchor_pairs first.outs <> [] then []
    else Pool.map (fun c -> Cells.exec c) (Cells.anchor_cells ~workload:!workload ~seed:!seed)
  in
  let anchors = Anchors.average (anchor_pairs (first.outs @ anchor_outs)) in
  let ref_outs =
    if traced_run then
      per_layer ~untraced ~traced ~probes:(Cells.probes ~workload:!workload ~seed:!seed)
    else []
  in
  (* Every pass must give the same digest, and so must every earlier run
     of this seed. *)
  let digests = List.map (fun p -> Cells.digest (p.outs @ anchor_outs)) passes in
  let digest = List.hd digests in
  let passes_agree = List.for_all (( = ) digest) digests in
  let seen_ok = check_seen_digest cells digest in
  let all_outs = List.concat_map (fun p -> p.outs) passes @ anchor_outs @ ref_outs in
  let attempted = List.length all_outs in
  let failed = List.length (failed_outs all_outs) in
  report_failures all_outs;
  let n_cells = List.length cells in
  let cell_ms = List.concat_map (fun p -> List.map (fun (o : Cells.out) -> o.Cells.cpu_ms) p.outs) passes in
  Printf.printf "workload %s seed %d: %d cells x %d passes (%d traced), jobs %d\n" !workload !seed
    n_cells (List.length passes) (List.length traced) !jobs;
  Printf.printf "set-up cpu s: %s\npass wall/cpu s: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times))
    (String.concat " "
       (List.map
          (fun p -> Printf.sprintf "%.3f/%.3f%s" p.wall p.cpu (if p.spans = None then "" else "*"))
          passes));
  Printf.printf "digest %s (%s across passes)\n" digest
    (if passes_agree then "identical" else "DIFFERENT");
  (match Pct.tail cell_ms with
   | Some t ->
     Printf.printf "cell cpu: p50 %.3f ms, tail p%g %.3f ms (n = %d)\n" (Pct.median cell_ms) t.Pct.p
       t.Pct.value t.Pct.n
   | None ->
     Printf.printf "cell cpu: p50 %.3f ms (n = %d, too few for a tail)\n" (Pct.median cell_ms)
       (List.length cell_ms));
  let err = match anchors with Some avg -> print_anchors avg; Anchors.err_pct avg | None -> 0.0 in
  if not traced_run then begin
    let med f = Pct.median (List.map f untraced) in
    metric "cpu_s" "s" (med (fun p -> p.cpu));
    metric "cell_ms_p50" "ms" (Pct.median cell_ms);
    metric "cell_ms_p90" "ms" (Pct.percentile 90.0 cell_ms);
    metric "setup_s" "s" (Pct.median setup_times);
    metric "max_rss_mb" "MB" (max_rss_mb ());
    metric "gc_minor_mwords" "Mwords" (med (fun p -> p.host.Hostprof.gc_minor_words /. 1e6));
    metric "paper_err_pct" "%" err
  end;
  let enough_cells = n_cells >= 100 in
  if not enough_cells then Printf.printf "only %d cells; a workload needs 100 for its p90\n" n_cells;
  if anchors = None then Printf.printf "some anchor cell gave no result\n";
  (* A failed cell counts in [failed]; the run is incorrect when its
     simulated outputs are not reproducible or incomplete. *)
  print_result ~correct:(passes_agree && seen_ok && enough_cells && anchors <> None) ~attempted
    ~failed

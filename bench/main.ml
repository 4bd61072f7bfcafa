(* Benchmark harness.

   Two parts:

   1. Bechamel micro-benchmarks — one Test.make per paper table/figure,
      each timing the simulation workload that regenerates that item (a
      single representative data point, so the suite completes quickly).
      This measures the *harness* cost on the host machine.

   2. The actual reproduction: every figure and table regenerated at the
      default sweep options — the output to compare against the paper
      (also recorded in EXPERIMENTS.md). *)

open Bechamel
open Bechamel.Toolkit
open Pnp_engine
open Pnp_harness

let quickest =
  {
    Pnp_figures.Opts.max_procs = 4;
    seeds = 1;
    warmup = Pnp_util.Units.ms 100.0;
    measure = Pnp_util.Units.ms 150.0;
  }

let cfg_point ?(arch = Arch.challenge_100) ?(procs = 4) ?(side = Config.Send)
    ?(protocol = Config.Tcp) ?(checksum = true) ?(lock_disc = Lock.Unfair)
    ?(tcp_locking = Pnp_proto.Tcp.One) ?(assume_in_order = false) ?(ticketing = false)
    ?(refcnt_mode = Atomic_ctr.Ll_sc) ?(message_caching = true) ?(connections = 1) () =
  Config.v ~arch ~procs ~side ~protocol ~payload:4096 ~checksum ~lock_disc ~tcp_locking
    ~assume_in_order ~ticketing ~refcnt_mode ~message_caching ~connections
    ~warmup:quickest.Pnp_figures.Opts.warmup ~measure:quickest.Pnp_figures.Opts.measure ()

let point name cfg =
  Test.make ~name (Staged.stage (fun () -> ignore (Run.run cfg)))

let tests =
  Test.make_grouped ~name:"figures"
    [
      point "fig2-3:udp-send" (cfg_point ~protocol:Config.Udp ~side:Config.Send ());
      point "fig4-5:udp-recv" (cfg_point ~protocol:Config.Udp ~side:Config.Recv ());
      point "fig6-7:tcp-send" (cfg_point ~side:Config.Send ());
      point "fig8-9:tcp-recv" (cfg_point ~side:Config.Recv ());
      point "fig10:mcs-recv" (cfg_point ~side:Config.Recv ~lock_disc:Lock.Fifo ());
      point "table1:ooo" (cfg_point ~side:Config.Recv ~procs:4 ());
      point "fig11:ticketing" (cfg_point ~side:Config.Recv ~ticketing:true ());
      point "send-ooo:wire" (cfg_point ~side:Config.Send ~procs:4 ());
      point "fig12:multiconn"
        (cfg_point ~side:Config.Recv ~lock_disc:Lock.Fifo ~connections:4 ());
      point "fig13:tcp6-send" (cfg_point ~side:Config.Send ~tcp_locking:Pnp_proto.Tcp.Six ());
      point "fig14:tcp6-recv" (cfg_point ~side:Config.Recv ~tcp_locking:Pnp_proto.Tcp.Six ());
      point "fig15:locked-refs" (cfg_point ~refcnt_mode:Atomic_ctr.Locked ());
      point "fig16:no-caching" (cfg_point ~message_caching:false ());
      point "fig17-18:power-series"
        (cfg_point ~arch:Arch.power_series_33 ~side:Config.Recv ());
      Test.make ~name:"micro-cksum"
        (Staged.stage (fun () ->
             ignore (Pnp_figures.Fig_micro.checksum_points quickest)));
      point "ext-clp"
        (Config.v ~protocol:Config.Tcp ~side:Config.Recv ~payload:4096 ~checksum:true
           ~lock_disc:Lock.Fifo ~connections:8 ~placement:Config.Connection_level
           ~skew:1.0 ~offered_mbps:360.0 ~procs:4
           ~warmup:quickest.Pnp_figures.Opts.warmup
           ~measure:quickest.Pnp_figures.Opts.measure ());
      point "ext-grant" (cfg_point ~side:Config.Recv ~lock_disc:Lock.Barging ());
      point "ext-jitter" (cfg_point ~side:Config.Recv ~lock_disc:Lock.Fifo ());
      point "ext-cksum-lock"
        (Config.v ~protocol:Config.Tcp ~side:Config.Recv ~payload:4096 ~checksum:true
           ~lock_disc:Lock.Fifo ~cksum_under_lock:true ~procs:4
           ~warmup:quickest.Pnp_figures.Opts.warmup
           ~measure:quickest.Pnp_figures.Opts.measure ());
      point "ext-pres"
        (Config.v ~protocol:Config.Udp ~side:Config.Recv ~payload:4096 ~checksum:true
           ~presentation:true ~procs:4 ~warmup:quickest.Pnp_figures.Opts.warmup
           ~measure:quickest.Pnp_figures.Opts.measure ());
      point "ext-steering:last-sender"
        (Config.v ~protocol:Config.Tcp ~side:Config.Recv ~payload:4096 ~checksum:true
           ~connections:256 ~steering:Pnp_driver.Steer.Last_sender ~demux_shards:64
           ~procs:4 ~warmup:quickest.Pnp_figures.Opts.warmup
           ~measure:quickest.Pnp_figures.Opts.measure ());
      point "ext-scr:scr-recv"
        (cfg_point ~side:Config.Recv ~tcp_locking:Pnp_proto.Tcp.Scr ());
    ]

let run_bechamel () =
  let cfg = Benchmark.cfg ~limit:8 ~quota:(Time.second 2.0) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      (Instance.monotonic_clock) raw
  in
  Printf.printf "%-28s %16s\n" "benchmark" "host ms/run";
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-28s %16.2f\n" name (est /. 1e6)
      | _ -> Printf.printf "%-28s %16s\n" name "n/a")
    results;
  flush stdout

(* --quick: the CI perf gate.  A fixed deterministic batch of sweep cells
   (the bechamel configurations, several seeds each) run with the
   sweep-cell memo OFF — the gate measures the engine, not the cache —
   and reported as one events-per-host-second figure plus the GC words
   the batch allocated.  [--out FILE] writes the profile as JSON;
   [--baseline FILE] compares against a previously written profile and
   fails (exit 1) on a >20% throughput regression or on minor-heap words
   per event more than 2% above the baseline's.  Minor words repeat to
   within a fraction of a percent run to run, so that half of the gate
   catches an allocation regression the noisy wall clock cannot. *)

let quick_cells =
  [
    cfg_point ~protocol:Config.Udp ~side:Config.Send ();
    cfg_point ~protocol:Config.Udp ~side:Config.Recv ();
    cfg_point ~side:Config.Send ();
    cfg_point ~side:Config.Recv ();
    cfg_point ~side:Config.Recv ~lock_disc:Lock.Fifo ();
    cfg_point ~side:Config.Recv ~ticketing:true ();
    cfg_point ~side:Config.Recv ~lock_disc:Lock.Fifo ~connections:4 ();
    cfg_point ~side:Config.Send ~tcp_locking:Pnp_proto.Tcp.Six ();
    cfg_point ~refcnt_mode:Atomic_ctr.Locked ();
    cfg_point ~message_caching:false ();
    cfg_point ~arch:Arch.power_series_33 ~side:Config.Recv ();
  ]

let quick_rounds = 4

let quick_json ~jobs ~best (d : Hostprof.delta) =
  Printf.sprintf
    "{\"bench\":\"quick\",\"jobs\":%d,\"rounds\":%d,\"cells\":%d,\"host\":{\"events\":%d,\"events_per_sec\":%.6g,\"mean_events_per_sec\":%.6g,\"elapsed_s\":%.6g,\"gc_minor_words\":%.6g,\"gc_major_words\":%.6g}}\n"
    jobs quick_rounds
    (List.length quick_cells)
    d.Hostprof.sim_events best (Hostprof.events_per_sec d) d.Hostprof.elapsed_s
    d.Hostprof.gc_minor_words d.Hostprof.gc_major_words

(* How to (re)record a baseline — printed whenever [--baseline FILE] is
   unusable, so the fix is in the error message, not in a doc hunt. *)
let baseline_help file =
  Printf.sprintf
    "expected a committed bench profile at %s (schema: {\"bench\":\"quick\",...,\
     \"host\":{\"events\":N,\"events_per_sec\":N,...,\"gc_minor_words\":N,...}}).\n\
     Record one with:  dune exec bench/main.exe -- --quick -j 2 --out %s\n\
     then commit it (the .gitignore negates BENCH_*.json)." file file

let read_baseline file =
  if not (Sys.file_exists file) then begin
    Printf.eprintf "bench: baseline file %s does not exist.\n%s\n" file
      (baseline_help file);
    exit 2
  end;
  match open_in_bin file with
  | exception Sys_error msg ->
    Printf.eprintf "bench: cannot read baseline %s (%s).\n%s\n" file msg
      (baseline_help file);
    exit 2
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s

(* Pull ["<field>": <num>] out of a baseline's text without a JSON
   parser: find the field name, then read the number after the colon. *)
let baseline_number s name =
  let field = "\"" ^ name ^ "\":" in
  let rec find i =
    if i + String.length field > String.length s then None
    else if String.sub s i (String.length field) = field then
      let j = i + String.length field in
      let k = ref j in
      while
        !k < String.length s
        && (match s.[!k] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr k
      done;
      float_of_string_opt (String.sub s j (!k - j))
    else find (i + 1)
  in
  find 0

let words_per_event ~words ~events =
  if events > 0.0 then words /. events else 0.0

let run_quick ~out ~baseline ~profile () =
  (* Measure the engine, not the cache. *)
  Run.set_cell_memo false;
  let seeds = 3 in
  let best = ref 0.0 in
  let rounds () =
    for round = 1 to quick_rounds do
      let (), rd =
        Hostprof.measure (fun () ->
            List.iter
              (fun cfg ->
                (* Distinct seeds per round so no two cells repeat even
                   if the memo were on by mistake. *)
                ignore
                  (Run.run_seeds { cfg with Config.seed = round * 100 } ~seeds))
              quick_cells)
      in
      let rate = Hostprof.events_per_sec rd in
      Printf.printf "  round %d/%d: %.0f events/sec\n%!" round quick_rounds rate;
      if rate > !best then best := rate
    done
  in
  let (), d =
    Hostprof.measure (fun () ->
        match profile with
        | None -> rounds ()
        | Some file ->
          let (), n = Profiler.profile ~file rounds in
          Printf.printf "  profile: %d samples -> %s (collapsed stacks)\n" n file)
  in
  Report.print_host_profile ~title:"bench --quick host profile" d;
  (* The gate metric is the BEST round, not the mean: a transient stall
     on a shared CI host slows some rounds, but nothing makes the engine
     run faster than it can, so max-of-rounds tracks the code while
     shrugging off noise. *)
  Printf.printf "  best round: %.0f events/sec\n" !best;
  (match out with
   | None -> ()
   | Some file ->
     let oc = open_out file in
     output_string oc (quick_json ~jobs:(Pool.jobs ()) ~best:!best d);
     close_out oc;
     Printf.printf "wrote %s\n" file);
  match baseline with
  | None -> ()
  | Some file ->
    let text = read_baseline file in
    let field name =
      match baseline_number text name with
      | Some v -> v
      | None ->
        Printf.eprintf
          "bench: baseline %s has no %S field — an old-schema or corrupt \
           profile.\n%s\n"
          file name (baseline_help file);
        exit 2
    in
    let base = field "events_per_sec" in
    let base_wpe =
      words_per_event ~words:(field "gc_minor_words") ~events:(field "events")
    in
    let fresh = !best in
    let ratio = if base > 0.0 then fresh /. base else 1.0 in
    Printf.printf "baseline %s: %.0f events/sec; fresh: %.0f (%.2fx)\n" file base
      fresh ratio;
    let wpe =
      words_per_event ~words:d.Hostprof.gc_minor_words
        ~events:(float_of_int d.Hostprof.sim_events)
    in
    Printf.printf "minor words/event: baseline %.2f; fresh: %.2f\n" base_wpe wpe;
    let slow = ratio < 0.8 and bloated = wpe > base_wpe *. 1.02 in
    if slow then
      Printf.eprintf
        "bench: PERF REGRESSION: %.0f events/sec is less than 80%% of the \
         baseline %.0f\n"
        fresh base;
    if bloated then
      Printf.eprintf
        "bench: ALLOCATION REGRESSION: %.2f minor words/event is more than 2%% \
         above the baseline %.2f\n"
        wpe base_wpe;
    if slow || bloated then exit 1
    else Printf.printf "perf gate: ok (throughput >= 0.8x, minor words/event <= 1.02x)\n"

type mode = {
  jobs : int;
  quick : bool;
  out : string option;
  baseline : string option;
  profile : string option;
}

(* `bench/main.exe [-j N] [--quick] [--out FILE] [--baseline FILE]
   [--profile FILE]`: five flags, so a hand scan beats cmdliner here. *)
let mode_of_argv () =
  let m =
    ref
      {
        jobs = Pool.default_jobs ();
        quick = false;
        out = None;
        baseline = None;
        profile = None;
      }
  in
  let rec scan = function
    | "-j" :: n :: rest | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 1 -> m := { !m with jobs = n }
       | _ ->
         Printf.eprintf "bench: -j expects a positive integer, got %S\n" n;
         exit 2);
      scan rest
    | "--quick" :: rest ->
      m := { !m with quick = true };
      scan rest
    | "--out" :: f :: rest ->
      m := { !m with out = Some f };
      scan rest
    | "--baseline" :: f :: rest ->
      m := { !m with baseline = Some f };
      scan rest
    | "--profile" :: f :: rest ->
      m := { !m with profile = Some f };
      scan rest
    | arg :: _ ->
      Printf.eprintf
        "bench: unknown argument %S (usage: bench [-j N] [--quick] [--out FILE] \
         [--baseline FILE] [--profile FILE])\n"
        arg;
      exit 2
    | [] -> ()
  in
  scan (List.tl (Array.to_list Sys.argv));
  !m

(* Same minor-heap sizing as bin/repro.ml: the sweeps allocate tens of
   words per simulated event, and GC scheduling never feeds back into
   simulated time. *)
let () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 }

let () =
  let m = mode_of_argv () in
  Pool.set_jobs m.jobs;
  if m.quick then run_quick ~out:m.out ~baseline:m.baseline ~profile:m.profile ()
  else begin
    Printf.printf "### Bechamel: host cost of regenerating each figure/table ###\n%!";
    (* Micro-benchmarks call Run.run on the same configuration over and
       over; with the memo on they would measure a Hashtbl lookup. *)
    Run.set_cell_memo false;
    run_bechamel ();
    Run.set_cell_memo true;
    Run.clear_cell_memo ();
    Printf.printf "\n### Reproduction: every figure and table (-j %d) ###\n%!"
      (Pool.jobs ());
    (* Mirror every printed table to BENCH_<id>.json next to the run, each
       stamped with the jobs level and the data phase's wall-clock cost. *)
    Pnp_figures.Registry.run_all ~json:(Json_out.make ~dir:"." ())
      Pnp_figures.Opts.default
  end

open Pnp_engine
open Pnp_util
open Pnp_harness

let one_point label p v =
  { Report.label; points = [ { Report.procs = p; mean = v; ci90 = 0.0 } ] }

(* Pure checksum load: threads stream cold data through the bus.  Each
   processor count is an independent simulation, so the sweep fans out
   over the worker pool. *)
let checksum_points opts =
  let chunk = 65536 in
  Pool.map
    (fun procs ->
      let plat = Platform.create ~seed:7 Arch.challenge_100 in
      let done_bytes = ref 0 in
      for i = 0 to procs - 1 do
        ignore
          (Sim.spawn plat.Platform.sim ~cpu:i ~name:(Printf.sprintf "ck%d" i) (fun () ->
               while true do
                 Membus.consume plat.Platform.bus ~bytes:chunk;
                 done_bytes := !done_bytes + chunk
               done))
      done;
      let horizon = opts.Opts.measure in
      Sim.run ~until:horizon plat.Platform.sim;
      Hostprof.note_sim plat.Platform.sim;
      let mb_per_s = float_of_int !done_bytes /. 1e6 /. Units.ns_to_sec horizon in
      (procs, mb_per_s))
    (Opts.procs opts)

let checksum_bandwidth_data opts =
  let data = checksum_points opts in
  let point (p, mb) = { Report.procs = p; mean = mb; ci90 = 0.0 } in
  [
    Report.table ~title:"Checksum bandwidth (cold data)" ~unit_label:"MB/s"
      [
        { Report.label = "aggregate"; points = List.map point data };
        {
          Report.label = "per-cpu";
          points = List.map (fun (p, mb) -> point (p, mb /. float_of_int p)) data;
        };
      ];
  ]

let checksum_bandwidth_present _opts tables =
  let data =
    match tables with
    | { Report.series = agg :: _; _ } :: _ ->
      List.map (fun (p : Report.point) -> (p.Report.procs, p.Report.mean)) agg.Report.points
    | _ -> []
  in
  Printf.printf
    "\n== Section 3.2 micro-benchmark: checksum bandwidth (cold data) ==\n";
  Printf.printf "%-6s %14s %14s\n" "procs" "aggregate MB/s" "per-CPU MB/s";
  List.iter
    (fun (p, mb) -> Printf.printf "%-6d %14.1f %14.1f\n" p mb (mb /. float_of_int p))
    data;
  let arch = Arch.challenge_100 in
  Printf.printf
    "bus %.0f MB/s / %.0f MB/s per CPU => supports ~%.0f checksumming CPUs (paper: 38)\n"
    arch.Arch.bus_mb_per_s arch.Arch.cksum_mb_per_s
    (arch.Arch.bus_mb_per_s /. arch.Arch.cksum_mb_per_s);
  flush stdout

let udp_recv_cfg opts ~map_locking procs =
  Opts.apply opts
    (Config.v ~protocol:Config.Udp ~side:Config.Recv ~payload:4096 ~checksum:true
       ~map_locking ~procs ())

let map_locking_data opts =
  let p = opts.Opts.max_procs in
  let tput ml =
    (Run.throughput_summary (udp_recv_cfg opts ~map_locking:ml p) ~seeds:opts.Opts.seeds)
      .Stats.mean
  in
  let locked = tput true in
  let unlocked = tput false in
  [
    Report.table ~title:"Demux map locking (UDP recv)" ~unit_label:"Mbit/s"
      [ one_point "maps-locked" p locked; one_point "maps-unlocked" p unlocked ];
  ]

let map_locking_present opts tables =
  let p = opts.Opts.max_procs in
  let locked, unlocked =
    match tables with
    | { Report.series = [ l; u ]; _ } :: _ -> (Report.value_at l p, Report.value_at u p)
    | _ -> (0.0, 0.0)
  in
  Printf.printf
    "\n== Section 3.1 aside: demultiplexing map locks (UDP recv, %d CPUs) ==\n" p;
  Printf.printf "maps locked:   %8.1f Mbit/s\n" locked;
  Printf.printf "maps unlocked: %8.1f Mbit/s  (+%.1f%%; paper: ~10%%)\n" unlocked
    (100.0 *. (unlocked -. locked) /. locked);
  flush stdout

let lock_profile_data opts =
  let p = opts.Opts.max_procs in
  let wait side =
    let cfg =
      Opts.apply opts
        (Config.v ~protocol:Config.Tcp ~side ~payload:4096 ~checksum:true ~procs:p ())
    in
    let results = Run.run_seeds cfg ~seeds:opts.Opts.seeds in
    Pnp_util.Stats.mean (List.map (fun r -> r.Run.lock_wait_pct) results)
  in
  let recv = wait Config.Recv in
  let send = wait Config.Send in
  [
    Report.table ~title:"Connection-lock wait profile" ~unit_label:"% of thread time"
      [ one_point "recv" p recv; one_point "send" p send ];
  ]

let lock_profile_present opts tables =
  let p = opts.Opts.max_procs in
  let recv, send =
    match tables with
    | { Report.series = [ r; s ]; _ } :: _ -> (Report.value_at r p, Report.value_at s p)
    | _ -> (0.0, 0.0)
  in
  Printf.printf
    "\n== Section 3 profile: time waiting on the TCP connection-state lock (%d CPUs) ==\n"
    p;
  Printf.printf "receive side: %5.1f%% of thread time  (paper: 90%%)\n" recv;
  Printf.printf "send side:    %5.1f%% of thread time  (paper: 85%%)\n" send;
  flush stdout

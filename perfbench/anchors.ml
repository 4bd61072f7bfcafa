(* The paper values behind [paper_err_pct].

   Every value below is a reading of the text or a table of Nahum,
   Yates, Kurose and Towsley, "Performance Issues in Parallelized
   Network Protocols" (OSDI 1994), not a number this repository
   produced.  Each anchor is measured on the configuration of the figure
   generator that reproduces the same result: [Fig_ordering.recv_cfg]
   for Table 1, the 4 KB checksum-on series of [Fig_baseline] for the
   send-side saturation, and [Fig_micro.lock_profile_data] for the
   connection-lock profile. *)

open Pnp_engine
open Pnp_harness

type metric = Ooo_pct | Throughput_mbps | Lock_wait_pct

type t = {
  name : string;
  paper : float;
  source : string;  (** where in the paper the value is read *)
  metric : metric;
  cfg : Config.t;  (** seed and window are set by the workload *)
}

let tcp ~side ?(lock_disc = Lock.Unfair) procs =
  Config.v ~protocol:Config.Tcp ~side ~payload:4096 ~checksum:true ~lock_disc ~procs ()

let table1 label disc values =
  List.mapi
    (fun i paper ->
      let procs = i + 2 in
      {
        name = Printf.sprintf "table1-%s-%dcpu" label procs;
        paper;
        source =
          Printf.sprintf "Table 1, %s column, %d CPUs: %% of packets out of order" label
            procs;
        metric = Ooo_pct;
        cfg = tcp ~side:Config.Recv ~lock_disc:disc procs;
      })
    values

let all =
  table1 "mutex" Lock.Unfair [ 2.; 4.; 5.; 11.; 25.; 42.; 54. ]
  @ table1 "mcs" Lock.Fifo [ 2.; 4.; 6.; 9.; 11.; 14.; 18. ]
  @ [
      {
        name = "tcp-send-8cpu-mbps";
        paper = 215.0;
        source =
          "Section 3 / Figure 6: TCP send side saturates near 215 Mbit/s (4 KB, \
           checksum on, 8 CPUs)";
        metric = Throughput_mbps;
        cfg = tcp ~side:Config.Send 8;
      };
      {
        name = "lock-wait-send-8cpu";
        paper = 85.0;
        source = "Section 3 profile: 85% of send-side time waits on the connection lock at 8 CPUs";
        metric = Lock_wait_pct;
        cfg = tcp ~side:Config.Send 8;
      };
      {
        name = "lock-wait-recv-8cpu";
        paper = 90.0;
        source =
          "Section 3 profile: 90% of receive-side time waits on the connection lock at 8 CPUs";
        metric = Lock_wait_pct;
        cfg = tcp ~side:Config.Recv 8;
      };
    ]

let simulated a (r : Run.result) =
  match a.metric with
  | Ooo_pct -> r.Run.ooo_pct
  | Throughput_mbps -> r.Run.throughput_mbps
  | Lock_wait_pct -> r.Run.lock_wait_pct

(* Simulated value per anchor, averaged over that anchor's seeds, in
   the order of [all]; [None] if some anchor has no value. *)
let average pairs =
  let per a =
    match List.filter_map (fun (b, v) -> if b.name = a.name then Some v else None) pairs with
    | [] -> None
    | vs -> Some (a, List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs))
  in
  let avg = List.filter_map per all in
  if List.length avg = List.length all then Some avg else None

(* Mean relative error, %, over (anchor, simulated value) pairs. *)
let err_pct avg =
  let errs = List.map (fun (a, sim) -> Float.abs (sim -. a.paper) /. a.paper) avg in
  100.0 *. List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)

open Pnp_engine
open Pnp_util
open Pnp_xkern
open Pnp_proto

type stream = { template : Msg.t; ring_lock : Lock.t }

type t = {
  stack : Stack.t;
  streams : stream array;
  jitter : Prng.t;
  jitter_mean_ns : float;
  mutable injected : int;
}



let attach stack ~peer_addr ~payload ~checksum ?(jitter_mean_ns = 8000.0) ~ports () =
  let plat = stack.Stack.plat in
  let streams =
    Array.of_list
      (List.map
         (fun (drv_port, rcv_port) ->
           let m = Msg.create stack.Stack.pool payload in
           Msg.fill_pattern m ~off:0 ~len:payload ~stream_off:0;
           let template =
             Frame.build_udp stack.Stack.pool ~src:peer_addr
               ~dst:stack.Stack.local_addr ~sport:drv_port ~dport:rcv_port ~payload:m
               ~checksum
           in
           {
             template;
             ring_lock =
               Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair
                 ~name:(Printf.sprintf "driver.ring.%d" drv_port);
           })
         ports)
  in
  (* Outbound traffic on a UDP receive test is nonexistent; discard. *)
  Fddi.set_transmit stack.Stack.fddi (fun frame -> Msg.destroy frame);
  { stack; streams; jitter = Prng.split (Sim.prng plat.Platform.sim); jitter_mean_ns; injected = 0 }

let next t ~stream =
  let s = t.streams.(stream) in
  let plat = t.stack.Stack.plat in
  Lock.acquire s.ring_lock;
  Costs.charge plat Costs.driver_recv;
  let frame = Msg.dup s.template in
  t.injected <- t.injected + 1;
  Lock.release s.ring_lock;
  (* Per-thread service variance, after the in-order handout. *)
  Platform.charge plat (Prng.exponential t.jitter ~mean:t.jitter_mean_ns);
  Fddi.input t.stack.Stack.fddi frame

let frames_injected t = t.injected

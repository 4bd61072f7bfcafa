(* Building a protocol on the x-kernel substrate directly: a tiny
   request/reply protocol ("PING", IP protocol number 200) implemented
   with the message tool, the map manager for demultiplexing, and the
   timing wheel for request timeouts — the same infrastructure FDDI, IP,
   UDP and TCP are built on.

   Run with: dune exec examples/custom_protocol.exe *)

open Pnp_engine
open Pnp_xkern
open Pnp_proto
open Pnp_driver

let proto_number = 200
let header_bytes = 8 (* ident (4) + kind (1) + pad (3) *)

module Ident_map = Xmap.Make (struct
  type t = int

  let hash x = x * 0x9e3779b1
  let equal = Int.equal
end)

let () =
  let plat = Platform.create ~seed:7 Arch.challenge_100 in
  let stack = Stack.create plat ~local_addr:0x0a000001 () in
  (* Loop the wire back: we talk to ourselves, like the paper's in-memory
     drivers talk to a simulated peer. *)
  Fddi.set_transmit stack.Stack.fddi (fun frame -> Fddi.input stack.Stack.fddi frame);

  (* Pending requests, demultiplexed by identifier through the map manager
     (chained-bucket hash with a 1-behind cache and a counting lock). *)
  let pending : (unit -> unit) Ident_map.t =
    Ident_map.create plat ~name:"ping.pending" ()
  in
  let wheel = stack.Stack.wheel in
  let replies = ref 0 and timeouts = ref 0 in

  let send_packet ~ident ~kind payload =
    Msg.push payload header_bytes;
    Msg.set_u32 payload 0 ident;
    Msg.set_u8 payload 4 kind;
    Ip.output stack.Stack.ip ~proto:proto_number ~dst:0x0a000001 payload
  in

  (* The protocol's receive side: replies complete pending requests;
     requests are echoed back as replies. *)
  Ip.register stack.Stack.ip ~proto:proto_number (fun ~src:_ ~dst:_ msg ->
      let ident = Msg.get_u32 msg 0 in
      let kind = Msg.get_u8 msg 4 in
      Msg.pop msg header_bytes;
      if kind = 0 then (* request: echo it back *)
        send_packet ~ident ~kind:1 msg
      else begin
        (match Ident_map.find pending ident with
         | complete ->
           ignore (Ident_map.remove pending ident);
           complete ()
         | exception Not_found -> ());
        Msg.destroy msg
      end);

  (* Issue requests from two processors, with timeouts on the wheel. *)
  for cpu = 0 to 1 do
    ignore
      (Sim.spawn plat.Platform.sim ~cpu ~name:(Printf.sprintf "pinger-%d" cpu)
         (fun () ->
           for i = 0 to 9 do
             let ident = (cpu * 100) + i in
             let timeout =
               Timewheel.schedule wheel ~after:(Pnp_util.Units.ms 50.0) (fun () ->
                   if Ident_map.remove pending ident then incr timeouts)
             in
             Ident_map.insert pending ident (fun () ->
                 ignore (Timewheel.cancel wheel timeout);
                 incr replies);
             send_packet ~ident ~kind:0 (Msg.of_string stack.Stack.pool "ping!");
             Sim.delay plat.Platform.sim (Pnp_util.Units.ms 1.0)
           done))
  done;

  Sim.run ~until:(Pnp_util.Units.ms 200.0) plat.Platform.sim;
  Printf.printf "requests sent:     20\n";
  Printf.printf "replies received:  %d\n" !replies;
  Printf.printf "timeouts fired:    %d\n" !timeouts;
  Printf.printf "map leftovers:     %d\n" (Ident_map.length pending);
  Printf.printf "ip datagrams:      %d out / %d in\n"
    (Ip.datagrams_out stack.Stack.ip) (Ip.datagrams_in stack.Stack.ip)

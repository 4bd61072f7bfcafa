(* Per-layer allocation budgets for the untraced packet path.

   Each test drives one layer's per-packet operation in a loop and
   measures the minor-heap words it allocates.  The budgets are the
   words the operation cannot avoid: zero for byte access, pops, header
   pushes into a free part slot, buffer cache round trips, checksums,
   header encode and field reads, uncontended locking, demux hits and
   random draws; the handle of a new message (6 words); the continuation
   the runtime captures when a contended lock parks a thread.  Each test
   warms its path first, so one-time growth (a cache stack, a waiter
   array, a spare part vector) stays out of the count.  The last tests
   run whole TCP cells and pin words per delivered packet, and whole
   fault-injection worlds: words per fired timer entry, per 1000-byte
   socket send and per datagram. *)

open Pnp_util
open Pnp_engine
open Pnp_xkern
open Pnp_faults
open Pnp_proto
open Pnp_driver

let plat () = Platform.create Arch.challenge_100

(* Run [body] inside a simulated thread and drive the world to completion
   (or to [horizon]: a TCP stack's timers re-arm forever). *)
let in_sim ?horizon plat body =
  let result = ref None in
  let _ = Sim.spawn plat.Platform.sim ~name:"test" (fun () -> result := Some (body ())) in
  Sim.run ?until:horizon plat.Platform.sim;
  match !result with Some r -> r | None -> Alcotest.fail "simulated thread did not finish"

(* Mean minor words per call of [f i], counted around [f] alone: [prep i]
   runs outside the window.  Deltas are stored in a float array, whose
   stores do not box. *)
let words_per_op ?(n = 10_000) ?(prep = fun _ -> ()) f =
  let deltas = Array.make n 0.0 in
  for i = 0 to n - 1 do
    prep i;
    let w0 = Gc.minor_words () in
    f i;
    deltas.(i) <- Gc.minor_words () -. w0
  done;
  Array.fold_left ( +. ) 0.0 deltas /. float_of_int n

let zero name words =
  if words > 0.0 then Alcotest.failf "%s: %.4f minor words/op, budget 0" name words

let budget name limit words =
  if words > limit then
    Alcotest.failf "%s: %.4f minor words/op, budget %.0f" name words limit

(* A header pushed onto a payload: the two-part message every encap and
   decap layer works on.  Accesses inside the header, and those that
   straddle into the payload, allocate nothing. *)
let test_msg_header_access () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let m = Msg.create pool 1000 in
      Msg.push m 40;
      Alcotest.(check int) "two parts" 2 (Msg.parts m);
      zero "set_u8" (words_per_op (fun i -> Msg.set_u8 m (i land 31) i));
      zero "get_u8" (words_per_op (fun i -> ignore (Msg.get_u8 m (i land 31))));
      zero "set_u16" (words_per_op (fun i -> Msg.set_u16 m (2 * (i land 15)) i));
      zero "get_u16" (words_per_op (fun i -> ignore (Msg.get_u16 m (2 * (i land 15)))));
      zero "set_u32" (words_per_op (fun i -> Msg.set_u32 m (4 * (i land 7)) i));
      zero "get_u32" (words_per_op (fun i -> ignore (Msg.get_u32 m (4 * (i land 7)))));
      zero "u32 straddling the part boundary"
        (words_per_op (fun i ->
             Msg.set_u32 m 38 i;
             ignore (Msg.get_u32 m 38)));
      zero "u16 inside the payload"
        (words_per_op (fun i ->
             Msg.set_u16 m 100 i;
             ignore (Msg.get_u16 m 100)));
      Msg.destroy m)

(* Popping a header and two payload bytes drops the header node and
   trims the payload part in place. *)
let test_msg_pop_across_parts () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let m = Msg.create pool 4000 in
      (* The first free creates the thread's header-class cache stack. *)
      Msg.push m 24;
      Msg.pop m 26;
      let n = 1000 in
      let words = words_per_op ~n ~prep:(fun _ -> Msg.push m 24) (fun _ -> Msg.pop m 26) in
      zero "pop across a part boundary" words;
      Alcotest.(check int) "payload left" (4000 - (2 * (n + 1))) (Msg.length m);
      Msg.destroy m)

(* A header pushed into a free slot of the part vector allocates nothing
   (the node comes from the thread's cache); a duplicate builds only its
   6-word handle, and the three header pushes of a driver-built frame
   and its destruction add nothing. *)
let test_msg_push_spare () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let m = Msg.create pool 1000 in
      let frame _ =
        let d = Msg.dup m in
        Msg.push d 24;
        Msg.push d 20;
        Msg.push d 21;
        Msg.destroy d
      in
      (* Fills the thread's header-node cache and the pool's spare vector. *)
      frame 0;
      zero "push + pop"
        (words_per_op (fun _ ->
             Msg.push m 24;
             Msg.pop m 24));
      budget "dup + three pushes + destroy" 6.0 (words_per_op frame);
      Msg.destroy m)

(* The TCP header is written and read field by field: encode into a
   free slot and the field readers allocate nothing; [decode] builds its
   [Some] and 7-field record (10 words). *)
let test_tcp_wire_codec () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let m = Msg.create pool 1000 in
      let acc = ref 0 in
      let encode i =
        Tcp_wire.encode m ~sport:80 ~dport:i ~seq:i ~ack:(2 * i) ~flags:Tcp_wire.flag_ack
          ~win:65536
      in
      encode 0;
      Tcp_wire.strip m;
      zero "encode + field reads + strip"
        (words_per_op (fun i ->
             encode i;
             acc :=
               !acc + Tcp_wire.get_sport m + Tcp_wire.get_dport m + Tcp_wire.get_seq m
               + Tcp_wire.get_ack m + Tcp_wire.get_win m + Tcp_wire.get_cksum m;
             if (Tcp_wire.get_flags m).Tcp_wire.ack then incr acc;
             Tcp_wire.strip m));
      encode 1;
      budget "decode" 10.0 (words_per_op (fun _ -> ignore (Tcp_wire.decode m)));
      ignore (Sys.opaque_identity !acc);
      Msg.destroy m)

(* A driver checks and reads a TCP frame in place. *)
let test_frame_parse_tcp () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let payload = Msg.create pool 512 in
      let f =
        Frame.build_tcp pool ~src:0x0a000001 ~dst:0x0a000002 ~sport:2000 ~dport:80 ~seq:7
          ~ack:9 ~flags:Tcp_wire.flag_ack ~win:4096 ~payload:(Some payload) ~checksum:true
      in
      let acc = ref 0 in
      zero "is_tcp + field reads"
        (words_per_op (fun _ ->
             if Frame.is_tcp f then
               acc :=
                 !acc + Frame.tcp_dst f + Frame.tcp_sport f + Frame.tcp_dport f
                 + Frame.tcp_seq f + Frame.tcp_ack f + Frame.tcp_win f
                 + Frame.tcp_payload_len f;
             if (Frame.tcp_flags f).Tcp_wire.ack then incr acc));
      Alcotest.(check int) "payload length" 512 (Frame.tcp_payload_len f);
      ignore (Sys.opaque_identity !acc);
      Msg.destroy f)

(* TCP sections, driven through the real input path: a receive stack
   with one connection handshaken by [Tcp_source], then frames built
   outside the measured window and injected with [Fddi.input].  The
   three demux hits of a segment, FDDI, IP and TCP, allocate nothing;
   the stack's own segments go to a sink that destroys them.  The
   budgets leave one word for the stack's fast timer, which fires inside
   some of the windows. *)
let peer_seq0 = Tcp_seq.add (Tcp_seq.mask (0x10000000 + 2000)) 1

let with_tcp_conn body =
  let p = plat () in
  let stack = Stack.create p ~local_addr:0x0a000002 () in
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:1024 ~checksum:true
      ~ports:[ (2000, 4000) ] ()
  in
  let the_sess = ref None in
  in_sim ~horizon:(Units.sec 30.0) p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          the_sess := Some sess;
          Tcp.set_receiver sess Msg.destroy);
      Tcp_source.start src;
      Fddi.set_transmit stack.Stack.fddi Msg.destroy;
      let sess = Option.get !the_sess in
      let frame ~seq ~ack ~win ~len =
        let payload = if len = 0 then None else Some (Msg.create stack.Stack.pool len) in
        Frame.build_tcp stack.Stack.pool ~src:0x0a000001 ~dst:0x0a000002 ~sport:2000
          ~dport:4000 ~seq ~ack ~flags:Tcp_wire.flag_ack ~win ~payload ~checksum:true
      in
      body stack sess frame)

(* In-order data on the header-prediction fast path: every other
   segment's delayed ACK handle (6 words / 2). *)
let test_tcp_prediction_hit () =
  with_tcp_conn (fun stack sess frame ->
      let seq = ref peer_seq0 and next = ref (Msg.create stack.Stack.pool 0) in
      let prep _ =
        next := frame ~seq:!seq ~ack:(Tcp.snd_nxt sess) ~win:(1 lsl 20) ~len:1024;
        seq := Tcp_seq.add !seq 1024
      in
      let hits = (Tcp.stats sess).Tcp.pred_hits in
      let n = 2_000 in
      let words = words_per_op ~n ~prep (fun _ -> Fddi.input stack.Stack.fddi !next) in
      Alcotest.(check int) "every segment predicted" n ((Tcp.stats sess).Tcp.pred_hits - hits);
      budget "prediction hit" 4.0 words)

(* A pure ACK advancing snd_una: nothing.  The window the ACKs
   advertise lets the congestion window cover it after the first, so
   they take header prediction's pure-ACK path into [process_ack]. *)
let test_tcp_pure_ack () =
  with_tcp_conn (fun stack sess frame ->
      let next = ref (Msg.create stack.Stack.pool 0) in
      let prep _ =
        Tcp.send sess (Msg.create stack.Stack.pool 100);
        next := frame ~seq:peer_seq0 ~ack:(Tcp.snd_nxt sess) ~win:4096 ~len:0
      in
      prep 0;
      Fddi.input stack.Stack.fddi !next;
      let hits = (Tcp.stats sess).Tcp.pred_hits in
      let n = 2_000 in
      let words = words_per_op ~n ~prep (fun _ -> Fddi.input stack.Stack.fddi !next) in
      Alcotest.(check int) "every ACK predicted" n ((Tcp.stats sess).Tcp.pred_hits - hits);
      budget "pure ACK" 1.0 words)

(* An out-of-order segment joins the empty reassembly queue (a 3-word
   pair and a 3-word cons) and is acked at once (a 6-word handle); the
   gap is filled outside the window. *)
let test_tcp_reass_insert () =
  with_tcp_conn (fun stack sess frame ->
      let seq = ref peer_seq0 and next = ref (Msg.create stack.Stack.pool 0) in
      let prep i =
        if i > 0 then begin
          Fddi.input stack.Stack.fddi
            (frame ~seq:!seq ~ack:(Tcp.snd_nxt sess) ~win:(1 lsl 20) ~len:512);
          seq := Tcp_seq.add !seq 1024
        end;
        next :=
          frame ~seq:(Tcp_seq.add !seq 512) ~ack:(Tcp.snd_nxt sess) ~win:(1 lsl 20) ~len:512
      in
      let inserts = (Tcp.stats sess).Tcp.reass_inserts in
      let n = 2_000 in
      let words = words_per_op ~n ~prep (fun _ -> Fddi.input stack.Stack.fddi !next) in
      Alcotest.(check int) "every segment queued" n
        ((Tcp.stats sess).Tcp.reass_inserts - inserts);
      budget "reassembly insert" 13.0 words)

let test_mpool_cache_round_trip () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      List.iter
        (fun size ->
          Mpool.decref pool (Mpool.alloc pool size);
          let hits = Mpool.cache_hits pool in
          zero
            (Printf.sprintf "alloc %d -> decref" size)
            (words_per_op (fun _ -> Mpool.decref pool (Mpool.alloc pool size)));
          Alcotest.(check int) "every alloc hit the cache" (hits + 10_000)
            (Mpool.cache_hits pool))
        [ 64; 4000 ])

(* Both the memo-hit path and the header-rewritten (memo miss) path. *)
let test_cksum_two_parts () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let m = Msg.create pool 1460 in
      Msg.fill_pattern m ~off:0 ~len:1460 ~stream_off:0;
      Msg.push m 21;
      for i = 0 to 20 do
        Msg.set_u8 m i (i * 7)
      done;
      let flat = Msg.of_string pool (Msg.to_string m) in
      Alcotest.(check int) "two-part sum = flat sum" (Inet_cksum.sum_slices flat)
        (Inet_cksum.sum_slices m);
      zero "sum_slices, memo hits" (words_per_op (fun _ -> ignore (Inet_cksum.sum_slices m)));
      zero "sum_slices, header rewritten"
        (words_per_op
           ~prep:(fun i -> Msg.set_u16 m 0 i)
           (fun _ -> ignore (Inet_cksum.sum_slices m)));
      Msg.destroy flat;
      Msg.destroy m)

let test_lock_uncontended () =
  let p = plat () in
  let sim = p.Platform.sim in
  let arch = p.Platform.arch in
  let lock = Lock.create sim arch Lock.Fifo ~name:"l" in
  let counting = Lock.Counting.create sim arch Lock.Unfair ~name:"c" in
  in_sim p (fun () ->
      zero "acquire/release"
        (words_per_op (fun _ ->
             Lock.acquire lock;
             Lock.release lock));
      zero "counting lock re-entry"
        (words_per_op (fun _ ->
             Lock.Counting.acquire counting;
             Lock.Counting.acquire counting;
             Lock.Counting.release counting;
             Lock.Counting.release counting)))

(* Two threads ping-pong one lock, so every acquire after the first is
   contended and every release hands the lock over.  The waiter parks
   and is woken through its thread's prebuilt resume event, so a
   hand-off allocates only the continuation the runtime captures for
   the park: 2 words on OCaml 5.1.  The budget of 4 leaves room for a
   runtime whose block is larger, and still fails on any per-waiter
   record, closure or queue copy. *)
let test_lock_contended_handoff () =
  List.iter
    (fun disc ->
      let n = 5_000 in
      let sim = Sim.create () in
      let lock = Lock.create sim Arch.challenge_100 disc ~name:"l" in
      let body () =
        for _ = 1 to n do
          Lock.acquire lock;
          Sim.delay sim 100;
          Lock.release lock
        done
      in
      ignore (Sim.spawn sim ~name:"a" body);
      ignore (Sim.spawn sim ~name:"b" body);
      (* Let both threads start and the waiter array reach its size. *)
      Sim.run ~until:1_000 sim;
      let contended = Lock.contended_acquisitions lock in
      let w0 = Gc.minor_words () in
      Sim.run sim;
      let words = Gc.minor_words () -. w0 in
      let handoffs = Lock.contended_acquisitions lock - contended in
      if handoffs < n then Alcotest.failf "only %d contended acquisitions" handoffs;
      budget "contended hand-off" 4.0 (words /. float_of_int handoffs))
    [ Lock.Fifo; Lock.Unfair; Lock.Barging ]

module Int_key = struct
  type t = int

  let hash x = x * 2654435761
  let equal = Int.equal
end

module Imap = Xmap.Make (Int_key)

(* [find] returns the binding itself, with the shard lock taken and
   released inline: a 1-behind hit and a chain hit (whose chain cell
   becomes the 1-behind entry as is) allocate nothing, and neither does
   a miss. *)
let test_xmap_lookup_hit () =
  let p = plat () in
  let m = Imap.create p ~name:"demux" () in
  let find k = match Imap.find m k with v -> v | exception Not_found -> -1 in
  in_sim p (fun () ->
      for k = 0 to 63 do
        Imap.insert m k k
      done;
      (* Make key 7 the 1-behind entry. *)
      ignore (find 7);
      zero "find, 1-behind hit" (words_per_op (fun _ -> ignore (find 7)));
      zero "find, chain hit" (words_per_op (fun i -> ignore (find (i land 63))));
      zero "find miss" (words_per_op (fun i -> ignore (find (64 + (i land 63))))))

(* A gate builds its waiting table on the first contended [await], so
   one that never blocks (most connections') costs only its record. *)
let test_gate_create () =
  let p = plat () in
  budget "gate create" 8.0
    (words_per_op (fun _ ->
         ignore (Sys.opaque_identity (Gate.create p.Platform.sim p.Platform.arch ~name:"g"))))

(* The SplitMix64 state is updated in place, so [int] and [bool] draw
   without allocating.  [bits64] hands its caller a boxed Int64 (3
   words): libraries are compiled [-opaque] in dev builds, so no caller
   can unbox it; the state update adds nothing on top. *)
let test_prng_draws () =
  let g = Prng.create 7 in
  let acc = ref 0 in
  budget "bits64" 3.0
    (words_per_op (fun _ -> acc := !acc lxor Int64.to_int (Prng.bits64 g)));
  zero "int" (words_per_op (fun i -> acc := !acc + Prng.int g (1 + (i land 15))));
  zero "bool" (words_per_op (fun _ -> if Prng.bool g then incr acc));
  ignore (Sys.opaque_identity !acc)

(* [exponential] hands its caller whole nanoseconds: no boxed float. *)
let test_prng_exponential () =
  let g = Prng.create 11 in
  let acc = ref 0 in
  zero "exponential" (words_per_op (fun _ -> acc := !acc + Prng.exponential g ~mean:1000.0));
  ignore (Sys.opaque_identity !acc)

(* A ring used as a queue or as a free list allocates nothing once it
   has grown, also as its head wraps. *)
let test_ring () =
  let r = Ring.create () in
  for i = 1 to 7 do
    Ring.push r i
  done;
  let acc = ref 0 in
  zero "fifo"
    (words_per_op (fun i ->
         Ring.push r i;
         acc := !acc + Ring.pop r));
  zero "lifo"
    (words_per_op (fun i ->
         Ring.push r i;
         acc := !acc + Ring.pop_last r));
  ignore (Sys.opaque_identity !acc)

(* A frame through a fault pipeline whose stages draw nothing and inject
   nothing: the call's two buffers come from the instance's spare stack
   and go back, so a pass allocates nothing. *)
let test_faults_feed () =
  let p = plat () in
  let pool = Mpool.create p in
  let t =
    Faults.instantiate
      (Faults.plan
         [
           Faults.Blackout { start_ns = max_int / 2; duration_ns = 1; period_ns = 0 };
           Faults.Duplicate { p = 0.0 };
           Faults.Reorder { p = 0.0; hold_ns = 100 };
         ])
      ~prng:(Prng.create 3) ~skip_bytes:0
  in
  let m = Msg.create pool 100 in
  let on_event _ = Alcotest.fail "no fault expected" in
  ignore (Faults.feed t ~now:0 ~on_event m);
  let acc = ref 0 in
  zero "feed"
    (words_per_op (fun i ->
         let n = Faults.feed t ~now:i ~on_event m in
         acc := !acc + n + Faults.extra_ns t 0));
  Alcotest.(check int) "every frame passed" 10_000 !acc

(* Words per delivered packet of a whole 1-CPU TCP cell, from the
   difference between a 300 ms and a 100 ms measurement window, which
   cancels setup and warmup (the DESIGN.md §11 method). *)
let cell_words_per_packet side =
  let open Pnp_harness in
  let cell ms =
    Config.v ~procs:1 ~side ~protocol:Config.Tcp ~seed:1 ~measure:(Units.ms ms) ()
  in
  let measure ms =
    let w0 = Gc.minor_words () in
    let r = Run.run (cell ms) in
    (Gc.minor_words () -. w0, r.Run.packets)
  in
  Run.set_cell_memo false;
  Fun.protect
    ~finally:(fun () -> Run.set_cell_memo true)
    (fun () ->
      let w1, p1 = measure 100.0 in
      let w3, p3 = measure 300.0 in
      if p3 <= p1 then Alcotest.failf "no packets in the extra window";
      (w3 -. w1) /. float_of_int (p3 - p1))

let test_cell_tcp_recv () =
  budget "1-CPU TCP receive, words per packet" 34.0
    (cell_words_per_packet Pnp_harness.Config.Recv)

let test_cell_tcp_send () =
  budget "1-CPU TCP send, words per packet" 60.0
    (cell_words_per_packet Pnp_harness.Config.Send)

(* An idle world: two listening stacks on a link and no traffic, so all
   the work is TCP's fast and slow timeouts firing and re-arming.  A
   fired entry costs its wheel entry and its share of a tick: the name
   and trace registration of the tick's service thread, whose record and
   closures are recycled, and the chain lock's parked continuations.
   Counted from 1 s to 300 s, past the stacks' setup. *)
let test_idle_timer_tick () =
  let p = plat () in
  let a = Stack.create p ~local_addr:0x0a000001 () in
  let b = Stack.create p ~local_addr:0x0a000002 () in
  let _link = Link.connect p ~a ~b () in
  let _ =
    Sim.spawn p.Platform.sim ~cpu:0 ~name:"listen" (fun () ->
        List.iter
          (fun s -> Tcp.listen s.Stack.tcp ~local_port:80 ~accept:(fun _ -> ()))
          [ a; b ])
  in
  let fired () = Timewheel.fired a.Stack.wheel + Timewheel.fired b.Stack.wheel in
  Sim.run ~until:(Units.sec 1.0) p.Platform.sim;
  let f0 = fired () in
  let w0 = Gc.minor_words () in
  Sim.run ~until:(Units.sec 300.0) p.Platform.sim;
  let words = Gc.minor_words () -. w0 in
  let n = fired () - f0 in
  if n < 4000 then Alcotest.failf "only %d timer entries fired" n;
  budget "idle world, words per fired timer entry" 50.0 (words /. float_of_int n)

(* The default fault-injection cell ([Chaos.run_cell] under the baseline
   plan, the mutex and single-lock TCP): words per 1000-byte socket send
   from the difference between a 300 kB and a 100 kB stream, and per
   datagram between 800 and 200 datagrams, which cancels both worlds'
   setup and their 300 s and 10 s horizons of idle timer ticks. *)
let chaos_words ~bytes ~datagrams =
  let open Pnp_harness in
  let w0 = Gc.minor_words () in
  let o = Chaos.run_cell ~bytes ~datagrams ~plan:Faults.none ~disc:Lock.Unfair () in
  let words = Gc.minor_words () -. w0 in
  if not (Chaos.passed o) then Alcotest.failf "chaos cell failed its oracle";
  words

let test_chaos_send () =
  let w1 = chaos_words ~bytes:100_000 ~datagrams:0 in
  let w3 = chaos_words ~bytes:300_000 ~datagrams:0 in
  budget "chaos cell, words per 1000-byte send" 300.0 ((w3 -. w1) /. 200.0)

let test_chaos_datagram () =
  let w1 = chaos_words ~bytes:0 ~datagrams:200 in
  let w4 = chaos_words ~bytes:0 ~datagrams:800 in
  budget "chaos cell, words per datagram" 110.0 ((w4 -. w1) /. 600.0)

let suites =
  [
    ( "alloc.budget",
      [
        Alcotest.test_case "msg header access on two parts" `Quick test_msg_header_access;
        Alcotest.test_case "msg pop across parts" `Quick test_msg_pop_across_parts;
        Alcotest.test_case "mpool cache round trip" `Quick test_mpool_cache_round_trip;
        Alcotest.test_case "checksum of two parts" `Quick test_cksum_two_parts;
        Alcotest.test_case "uncontended lock" `Quick test_lock_uncontended;
        Alcotest.test_case "contended lock hand-off" `Quick test_lock_contended_handoff;
        Alcotest.test_case "xmap lookup hit" `Quick test_xmap_lookup_hit;
        Alcotest.test_case "prng draws" `Quick test_prng_draws;
        Alcotest.test_case "prng exponential" `Quick test_prng_exponential;
        Alcotest.test_case "ring queue and free list" `Quick test_ring;
        Alcotest.test_case "faults feed pass-through" `Quick test_faults_feed;
        Alcotest.test_case "msg push into a free slot" `Quick test_msg_push_spare;
        Alcotest.test_case "tcp_wire encode/decode" `Quick test_tcp_wire_codec;
        Alcotest.test_case "frame parse_tcp" `Quick test_frame_parse_tcp;
        Alcotest.test_case "tcp header-prediction hit" `Quick test_tcp_prediction_hit;
        Alcotest.test_case "tcp pure ACK" `Quick test_tcp_pure_ack;
        Alcotest.test_case "tcp reassembly insert" `Quick test_tcp_reass_insert;
        Alcotest.test_case "1-CPU TCP receive cell" `Quick test_cell_tcp_recv;
        Alcotest.test_case "1-CPU TCP send cell" `Quick test_cell_tcp_send;
        Alcotest.test_case "gate create" `Quick test_gate_create;
        Alcotest.test_case "idle world timer tick" `Quick test_idle_timer_tick;
        Alcotest.test_case "chaos cell send" `Quick test_chaos_send;
        Alcotest.test_case "chaos cell datagram" `Quick test_chaos_datagram;
      ] );
  ]

(* Per-layer allocation budgets for the untraced packet path.

   Each test drives one layer's per-packet operation in a loop and
   measures the minor-heap words it allocates.  The budgets are the
   words the operation cannot avoid: zero for byte access, pops, buffer
   cache round trips, checksums, uncontended locking and random draws;
   the [Some] of a demux hit; the continuation the runtime captures when
   a contended lock parks a thread.  Each test warms its path first, so
   one-time growth (a cache stack, a waiter array) stays out of the
   count. *)

open Pnp_util
open Pnp_engine
open Pnp_xkern
open Pnp_proto

let plat () = Platform.create Arch.challenge_100

(* Run [body] inside a simulated thread and drive the world to completion. *)
let in_sim plat body =
  let result = ref None in
  let _ = Sim.spawn plat.Platform.sim ~name:"test" (fun () -> result := Some (body ())) in
  Sim.run plat.Platform.sim;
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

(* A 1-behind hit builds only the returned [Some v] (2 words), with the
   shard lock taken and released inline.  A chain hit adds the [Some] of
   the chain's own binding, which becomes the 1-behind entry as is. *)
let test_xmap_lookup_hit () =
  let p = plat () in
  let m = Imap.create p ~name:"demux" () in
  in_sim p (fun () ->
      for k = 0 to 63 do
        Imap.insert m k k
      done;
      (* Make key 7 the 1-behind entry. *)
      ignore (Imap.lookup m 7);
      budget "lookup, 1-behind hit" 2.0 (words_per_op (fun _ -> ignore (Imap.lookup m 7)));
      budget "lookup, chain hit" 4.0
        (words_per_op (fun i -> ignore (Imap.lookup m (i land 63))));
      zero "lookup miss" (words_per_op (fun i -> ignore (Imap.lookup m (64 + (i land 63))))))

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
      ] );
  ]

open Pnp_engine
open Pnp_xkern

let plat ?(message_caching = true) ?(map_locking = true) () =
  Platform.create ~message_caching ~map_locking Arch.challenge_100

(* Run [body] inside a simulated thread and drive the world to completion. *)
let in_sim plat body =
  let result = ref None in
  let _ = Sim.spawn plat.Platform.sim ~name:"test" (fun () -> result := Some (body ())) in
  Sim.run plat.Platform.sim;
  match !result with Some r -> r | None -> Alcotest.fail "simulated thread did not finish"

(* ------------------------------------------------------------------ *)
(* Mpool                                                               *)
(* ------------------------------------------------------------------ *)

let test_mpool_alloc_free () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let n = Mpool.alloc pool 100 in
      Alcotest.(check bool) "capacity >= request" true (Mpool.capacity n >= 100);
      Alcotest.(check int) "initial refcount" 1 (Mpool.refs n);
      Alcotest.(check int) "live" 1 (Mpool.live_nodes pool);
      Mpool.decref pool n;
      Alcotest.(check int) "free" 0 (Mpool.live_nodes pool))

let test_mpool_refcounting () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let n = Mpool.alloc pool 10 in
      Mpool.incref pool n;
      Mpool.incref pool n;
      Alcotest.(check int) "three refs" 3 (Mpool.refs n);
      Mpool.decref pool n;
      Mpool.decref pool n;
      Alcotest.(check int) "still live" 1 (Mpool.live_nodes pool);
      Mpool.decref pool n;
      Alcotest.(check int) "freed at zero" 0 (Mpool.live_nodes pool))

let test_mpool_cache_reuse () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let n1 = Mpool.alloc pool 64 in
      Mpool.decref pool n1;
      let before = Mpool.global_allocations pool in
      let n2 = Mpool.alloc pool 64 in
      Alcotest.(check int) "no new global alloc" before (Mpool.global_allocations pool);
      Alcotest.(check bool) "same node reused (LIFO)" true
        (Mpool.data n1 == Mpool.data n2);
      Alcotest.(check int) "one cache hit" 1 (Mpool.cache_hits pool);
      Mpool.decref pool n2)

let test_mpool_no_cache_goes_global () =
  let p = plat ~message_caching:false () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let n1 = Mpool.alloc pool 64 in
      Mpool.decref pool n1;
      let n2 = Mpool.alloc pool 64 in
      Mpool.decref pool n2;
      Alcotest.(check int) "every alloc global" 2 (Mpool.global_allocations pool);
      Alcotest.(check int) "no cache hits" 0 (Mpool.cache_hits pool))

let test_mpool_caching_is_faster () =
  let elapsed caching =
    let p = plat ~message_caching:caching () in
    let pool = Mpool.create p in
    let t_end = ref 0 in
    let _ =
      Sim.spawn p.Platform.sim ~name:"t" (fun () ->
          for _ = 1 to 100 do
            let n = Mpool.alloc pool 64 in
            Mpool.decref pool n
          done;
          t_end := Sim.now p.Platform.sim)
    in
    Sim.run p.Platform.sim;
    !t_end
  in
  Alcotest.(check bool) "cached alloc cheaper" true (elapsed true < elapsed false)

let test_mpool_large_not_cached () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let n = Mpool.alloc pool 100_000 in
      Alcotest.(check bool) "capacity exact-ish" true (Mpool.capacity n >= 100_000);
      Mpool.decref pool n;
      let _ = Mpool.alloc pool 100_000 in
      Alcotest.(check int) "large allocs always global" 2 (Mpool.global_allocations pool))

let test_mpool_caches_are_per_thread () =
  let p = plat () in
  let pool = Mpool.create p in
  (* Thread A frees a node; thread B allocating afterwards must not get it
     from A's cache. *)
  let a_data = ref None in
  let b_data = ref None in
  let _ =
    Sim.spawn p.Platform.sim ~cpu:0 ~name:"a" (fun () ->
        let n = Mpool.alloc pool 64 in
        a_data := Some (Mpool.data n);
        Mpool.decref pool n)
  in
  let _ =
    Sim.spawn p.Platform.sim ~cpu:1 ~name:"b" (fun () ->
        Sim.delay p.Platform.sim 1_000_000;
        let n = Mpool.alloc pool 64 in
        b_data := Some (Mpool.data n))
  in
  Sim.run p.Platform.sim;
  Alcotest.(check bool) "different buffers" true
    (Option.get !a_data != Option.get !b_data)

let test_mpool_decref_below_zero_fails () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let n = Mpool.alloc pool 8 in
      Mpool.decref pool n;
      match Mpool.decref pool n with
      | () -> Alcotest.fail "expected failure"
      | exception Failure _ -> ())

(* Regression pin for the tid-indexed cache table: the alloc/decref fast
   path must be pure array indexing.  The table only reorganizes when a
   thread id exceeds its capacity, so after a first growth sized it for
   the threads in play, arbitrarily many alloc/free bursts — including
   from newly spawned threads within that capacity — must leave the
   growth counter untouched. *)
let test_mpool_cache_growths_flat_on_fast_path () =
  let p = plat () in
  let pool = Mpool.create p in
  for _ = 1 to 6 do
    ignore
      (Sim.spawn p.Platform.sim ~name:"warm" (fun () ->
           Mpool.decref pool (Mpool.alloc pool 256)))
  done;
  Sim.run p.Platform.sim;
  let growths = Mpool.cache_table_growths pool in
  Alcotest.(check bool) "first touches grew the table" true (growths > 0);
  for _ = 1 to 6 do
    ignore
      (Sim.spawn p.Platform.sim ~name:"burst" (fun () ->
           for _ = 1 to 200 do
             Mpool.decref pool (Mpool.alloc pool 256)
           done))
  done;
  Sim.run p.Platform.sim;
  Alcotest.(check int) "no cache-table work on the alloc/decref fast path"
    growths
    (Mpool.cache_table_growths pool)

(* With tracing off, the Mpool trace sites build no event record: a
   write ([Mnode_write]) and a ref/unref pair ([Mnode_ref]/[Mnode_unref])
   allocate nothing, and [Msg.dup]+[Msg.destroy] allocate only the
   message copy itself. *)
let test_mpool_untraced_no_alloc () =
  let p = plat () in
  let pool = Mpool.create p in
  let n = 10_000 in
  let words_per_op f =
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      f i
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  in_sim p (fun () ->
      let m = Msg.create pool 64 in
      let node =
        match Msg.head_view m ~len:64 with Some (nd, _, _) -> nd | None -> assert false
      in
      let set = words_per_op (fun i -> Msg.set_u8 m (i land 63) i) in
      let refs =
        words_per_op (fun _ ->
            Mpool.incref pool node;
            Mpool.decref pool node)
      in
      let dup =
        words_per_op (fun i ->
            Msg.set_u8 m 0 i;
            Msg.destroy (Msg.dup m))
      in
      Alcotest.(check (float 0.01)) "set_u8 words/op" 0.0 set;
      Alcotest.(check (float 0.01)) "incref+decref words/op" 0.0 refs;
      (* The copy: message record (4 words), part (4), list cell (3) and
         the two part-iterator closures (4 each). *)
      if dup > 19.0 then Alcotest.failf "dup+destroy: %.2f words/op, budget 19" dup)

(* ------------------------------------------------------------------ *)
(* Buffer arena                                                        *)
(* ------------------------------------------------------------------ *)

let with_arena on f =
  let was = Mpool.arena_enabled () in
  Mpool.set_arena on;
  Fun.protect ~finally:(fun () -> Mpool.set_arena was) f

(* A buffer re-enters the arena free lists only at refcount zero: dup a
   message (the retransmission-queue situation), destroy the original,
   then churn same-class allocations hard enough to recycle every loose
   buffer — the survivor's bytes must be untouched.  Caching is off so
   decref hits the arena recycler directly instead of parking nodes in
   the simulated tid caches. *)
let test_arena_shared_buffer_not_recycled () =
  with_arena true (fun () ->
      let p = plat ~message_caching:false () in
      let pool = Mpool.create p in
      in_sim p (fun () ->
          let original = Msg.create pool 600 in
          Msg.fill_pattern original ~off:0 ~len:600 ~stream_off:7;
          let survivor = Msg.dup original in
          Msg.destroy original;
          for i = 0 to 199 do
            let m = Msg.create pool 600 in
            Msg.fill_pattern m ~off:0 ~len:600 ~stream_off:(i * 600);
            Msg.destroy m
          done;
          Alcotest.(check bool) "survivor bytes intact" true
            (Msg.check_pattern survivor ~off:0 ~len:600 ~stream_off:7);
          Msg.destroy survivor))

(* Recycling reuses the backing bytes: with the per-thread caches off, a
   destroy followed by a same-class alloc must hand back the same
   [Bytes.t] rather than a fresh host allocation. *)
let test_arena_recycles_buffers () =
  with_arena true (fun () ->
      let p = plat ~message_caching:false () in
      let pool = Mpool.create p in
      in_sim p (fun () ->
          let n1 = Mpool.alloc pool 64 in
          let b1 = Mpool.data n1 in
          Mpool.decref pool n1;
          let n2 = Mpool.alloc pool 64 in
          Alcotest.(check bool) "backing bytes reused" true (b1 == Mpool.data n2);
          Mpool.decref pool n2))

(* Accounting and reset-at-quiescence: the outstanding-bytes gauge
   returns to zero when everything is destroyed, the high-water mark
   keeps the peak, and [quiesce] only trims the free lists — a fresh
   alloc afterwards still works (and starts a new outstanding count). *)
let test_arena_accounting_and_quiesce () =
  with_arena true (fun () ->
      let p = plat ~message_caching:false () in
      let pool = Mpool.create p in
      in_sim p (fun () ->
          let msgs = List.init 8 (fun _ -> Msg.create pool 600) in
          let peak = Mpool.arena_out pool in
          Alcotest.(check bool) "bytes outstanding" true (peak > 0);
          Alcotest.(check bool) "hwm >= outstanding" true (Mpool.arena_hwm pool >= peak);
          List.iter Msg.destroy msgs;
          Alcotest.(check int) "all returned" 0 (Mpool.arena_out pool);
          Alcotest.(check bool) "hwm survives the drain" true (Mpool.arena_hwm pool >= peak);
          Mpool.quiesce ~retain:0 pool;
          let again = Msg.create pool 600 in
          Alcotest.(check bool) "alloc after quiesce" true (Mpool.arena_out pool > 0);
          Msg.destroy again;
          Alcotest.(check int) "and returns again" 0 (Mpool.arena_out pool)))

(* With the arena toggled off, nodes get fresh GC-managed buffers and
   the gauges stay flat — the A/B leg the determinism CI runs. *)
let test_arena_off_is_inert () =
  with_arena false (fun () ->
      let p = plat ~message_caching:false () in
      let pool = Mpool.create p in
      in_sim p (fun () ->
          let n1 = Mpool.alloc pool 64 in
          let b1 = Mpool.data n1 in
          Mpool.decref pool n1;
          let n2 = Mpool.alloc pool 64 in
          Alcotest.(check bool) "no reuse when off" true (b1 != Mpool.data n2);
          Mpool.decref pool n2;
          Alcotest.(check int) "gauges flat" 0 (Mpool.arena_hwm pool)))

(* [Msg.unshare] under the arena: unsharing a dup'd message copies out
   into arena-drawn buffers; mutating the copy must leave the original
   — still holding the old buffer — untouched. *)
let test_arena_unshare_composes () =
  with_arena true (fun () ->
      let p = plat ~message_caching:false () in
      let pool = Mpool.create p in
      in_sim p (fun () ->
          let original = Msg.create pool 128 in
          Msg.fill_pattern original ~off:0 ~len:128 ~stream_off:0;
          let copy = Msg.dup original in
          Msg.unshare copy ~off:5;
          Msg.set_u8 copy 5 0xEE;
          Alcotest.(check bool) "original untouched" true
            (Msg.check_pattern original ~off:0 ~len:128 ~stream_off:0);
          Alcotest.(check int) "copy mutated" 0xEE (Msg.get_u8 copy 5);
          Msg.destroy original;
          Msg.destroy copy;
          Alcotest.(check int) "everything returned" 0 (Mpool.arena_out pool)))

(* ------------------------------------------------------------------ *)
(* Msg                                                                 *)
(* ------------------------------------------------------------------ *)

let msg_env () =
  let p = plat () in
  (p, Mpool.create p)

let test_msg_create_length () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.create pool 100 in
      Alcotest.(check int) "length" 100 (Msg.length m);
      Msg.destroy m;
      Alcotest.(check int) "no leak" 0 (Mpool.live_nodes pool))

let test_msg_of_string_roundtrip () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.of_string pool "hello world" in
      Alcotest.(check string) "roundtrip" "hello world" (Msg.to_string m);
      Msg.destroy m)

let test_msg_push_pop_headers () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.of_string pool "payload" in
      Msg.push m 4;
      Alcotest.(check int) "grown" 11 (Msg.length m);
      Msg.set_u32 m 0 0xdeadbeef;
      Alcotest.(check int) "header readback" 0xdeadbeef (Msg.get_u32 m 0);
      Alcotest.(check string) "payload intact"
        "payload"
        (String.sub (Msg.to_string m) 4 7);
      Msg.pop m 4;
      Alcotest.(check string) "back to payload" "payload" (Msg.to_string m);
      Msg.destroy m)

let test_msg_pop_partial_part () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.of_string pool "abcdefgh" in
      Msg.pop m 3;
      Alcotest.(check string) "partial strip" "defgh" (Msg.to_string m);
      Msg.pop m 5;
      Alcotest.(check int) "empty" 0 (Msg.length m);
      Msg.destroy m;
      Alcotest.(check int) "no leak" 0 (Mpool.live_nodes pool))

let test_msg_pop_too_much_rejected () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.of_string pool "ab" in
      (match Msg.pop m 3 with
       | () -> Alcotest.fail "expected Invalid_argument"
       | exception Invalid_argument _ -> ());
      Msg.destroy m)

let test_msg_truncate () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.of_string pool "abcdefgh" in
      Msg.push m 2;
      Msg.set_u16 m 0 0x4142;
      Msg.truncate m 5;
      Alcotest.(check string) "first five bytes" "ABabc" (Msg.to_string m);
      Msg.destroy m;
      Alcotest.(check int) "no leak" 0 (Mpool.live_nodes pool))

let test_msg_dup_shares_and_refcounts () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.of_string pool "shared" in
      let d = Msg.dup m in
      Alcotest.(check string) "same contents" (Msg.to_string m) (Msg.to_string d);
      Alcotest.(check int) "one node live" 1 (Mpool.live_nodes pool);
      Msg.destroy m;
      Alcotest.(check string) "dup survives" "shared" (Msg.to_string d);
      Msg.destroy d;
      Alcotest.(check int) "all freed" 0 (Mpool.live_nodes pool))

let test_msg_dup_then_pop_independent () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.of_string pool "abcdef" in
      let d = Msg.dup m in
      Msg.pop d 3;
      Alcotest.(check string) "original intact" "abcdef" (Msg.to_string m);
      Alcotest.(check string) "dup advanced" "def" (Msg.to_string d);
      Msg.destroy m;
      Msg.destroy d)

let test_msg_multibyte_accessors () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.create pool 8 in
      Msg.set_u32 m 0 0x01020304;
      Msg.set_u16 m 4 0xbeef;
      Msg.set_u8 m 6 0x7f;
      Alcotest.(check int) "u32" 0x01020304 (Msg.get_u32 m 0);
      Alcotest.(check int) "u16" 0xbeef (Msg.get_u16 m 4);
      Alcotest.(check int) "u8" 0x7f (Msg.get_u8 m 6);
      (* big-endian byte order on the wire *)
      Alcotest.(check int) "network order" 0x01 (Msg.get_u8 m 0);
      Msg.destroy m)

let test_msg_accessors_span_parts () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.of_string pool "zz" in
      Msg.push m 1;
      (* First byte is the pushed header; u16 at 0 spans header|payload. *)
      Msg.set_u8 m 0 0xab;
      Alcotest.(check int) "spanning u16" 0xab7a (Msg.get_u16 m 0);
      Msg.destroy m)

(* The single-part fast path and the byte-wise fallback must agree when a
   value straddles a part boundary; writes through the fallback must read
   back through the fast path and vice versa. *)
let test_msg_accessors_straddle_parts () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.of_string pool "abcdefgh" in
      Msg.push m 3;
      (* Parts: [3-byte header][8-byte payload]; offsets 0-2 are in the
         header, 3+ in the payload. *)
      Msg.set_u32 m 1 0xdeadbeef;
      Alcotest.(check int) "u32 across the boundary" 0xdeadbeef (Msg.get_u32 m 1);
      Msg.set_u16 m 2 0x7b2d;
      Alcotest.(check int) "u16 across the boundary" 0x7b2d (Msg.get_u16 m 2);
      (* Bytes land where the byte path would put them. *)
      Alcotest.(check int) "high byte in the header part" 0x7b (Msg.get_u8 m 2);
      Alcotest.(check int) "low byte in the payload part" 0x2d (Msg.get_u8 m 3);
      (* Flush against the boundary but inside one part: the fast path. *)
      Msg.set_u32 m 3 0x01020304;
      Alcotest.(check int) "u32 at the part start" 0x01020304 (Msg.get_u32 m 3);
      Msg.set_u16 m 0 0xfeed;
      Alcotest.(check int) "u16 inside the header part" 0xfeed (Msg.get_u16 m 0);
      Msg.destroy m)

let test_msg_pattern_fill_check () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.create pool 1000 in
      Msg.push m 20;
      Msg.fill_pattern m ~off:20 ~len:1000 ~stream_off:5000;
      Alcotest.(check bool) "pattern verifies" true
        (Msg.check_pattern m ~off:20 ~len:1000 ~stream_off:5000);
      Alcotest.(check bool) "wrong stream offset fails" false
        (Msg.check_pattern m ~off:20 ~len:1000 ~stream_off:5001);
      Msg.set_u8 m 999 ((Msg.get_u8 m 999 + 1) land 0xff);
      Alcotest.(check bool) "corruption detected" false
        (Msg.check_pattern m ~off:20 ~len:1000 ~stream_off:5000);
      Msg.destroy m)

let test_msg_append_moves_contents () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let a = Msg.of_string pool "front" in
      let b = Msg.of_string pool "-back" in
      Msg.append a b;
      Alcotest.(check string) "concatenated" "front-back" (Msg.to_string a);
      Alcotest.(check int) "source emptied" 0 (Msg.length b);
      Msg.destroy b;
      Alcotest.(check string) "destroying source is safe" "front-back" (Msg.to_string a);
      (match Msg.append a a with
       | () -> Alcotest.fail "self-append must be rejected"
       | exception Invalid_argument _ -> ());
      Msg.destroy a;
      Alcotest.(check int) "no leak" 0 (Mpool.live_nodes pool))

let test_msg_iter_slices_covers_all () =
  let p, pool = msg_env () in
  in_sim p (fun () ->
      let m = Msg.of_string pool "0123456789" in
      Msg.push m 3;
      Msg.set_u8 m 0 (Char.code 'x');
      Msg.set_u8 m 1 (Char.code 'y');
      Msg.set_u8 m 2 (Char.code 'z');
      let buf = Buffer.create 13 in
      Msg.iter_slices m (fun b off len -> Buffer.add_subbytes buf b off len);
      Alcotest.(check string) "slices in order" "xyz0123456789" (Buffer.contents buf);
      Alcotest.(check int) "two parts" 2 (Msg.parts m);
      Msg.destroy m)

let prop_msg_ops_preserve_contents =
  QCheck.Test.make ~name:"msg push/pop/dup preserve contents" ~count:100
    QCheck.(pair (string_of_size Gen.(1 -- 200)) (list_of_size Gen.(0 -- 12) (int_bound 2)))
    (fun (payload, ops) ->
      let p, pool = msg_env () in
      in_sim p (fun () ->
          let reference = ref payload in
          let m = ref (Msg.of_string pool payload) in
          let headers = ref 0 in
          List.iter
            (fun op ->
              match op with
              | 0 ->
                (* push a 2-byte header of known content *)
                Msg.push !m 2;
                Msg.set_u8 !m 0 (Char.code 'H');
                Msg.set_u8 !m 1 (Char.code 'H');
                reference := "HH" ^ !reference;
                incr headers
              | 1 ->
                if String.length !reference >= 2 then begin
                  Msg.pop !m 2;
                  reference := String.sub !reference 2 (String.length !reference - 2)
                end
              | _ ->
                let d = Msg.dup !m in
                Msg.destroy !m;
                m := d)
            ops;
          let ok = String.equal (Msg.to_string !m) !reference in
          Msg.destroy !m;
          ok && Mpool.live_nodes pool = 0))

(* ------------------------------------------------------------------ *)
(* Xmap                                                                *)
(* ------------------------------------------------------------------ *)

module Int_key = struct
  type t = int

  let hash x = x * 2654435761
  let equal = Int.equal
end

module Imap = Xmap.Make (Int_key)

let test_xmap_insert_lookup_remove () =
  let p = plat () in
  let m = Imap.create p ~name:"test" () in
  in_sim p (fun () ->
      Imap.insert m 1 "one";
      Imap.insert m 2 "two";
      Alcotest.(check (option string)) "lookup 1" (Some "one") (Imap.lookup m 1);
      Alcotest.(check (option string)) "lookup 2" (Some "two") (Imap.lookup m 2);
      Alcotest.(check (option string)) "lookup missing" None (Imap.lookup m 3);
      Alcotest.(check int) "length" 2 (Imap.length m);
      Alcotest.(check bool) "remove" true (Imap.remove m 1);
      Alcotest.(check bool) "remove again" false (Imap.remove m 1);
      Alcotest.(check (option string)) "gone" None (Imap.lookup m 1);
      Alcotest.(check int) "length after" 1 (Imap.length m))

let test_xmap_insert_replaces () =
  let p = plat () in
  let m = Imap.create p ~name:"test" () in
  in_sim p (fun () ->
      Imap.insert m 7 "a";
      Imap.insert m 7 "b";
      Alcotest.(check (option string)) "replaced" (Some "b") (Imap.lookup m 7);
      Alcotest.(check int) "no duplicate" 1 (Imap.length m))

let test_xmap_one_behind_cache () =
  let p = plat () in
  let m = Imap.create p ~name:"test" () in
  in_sim p (fun () ->
      Imap.insert m 5 "five";
      ignore (Imap.lookup m 5);
      ignore (Imap.lookup m 5);
      ignore (Imap.lookup m 5);
      (* insert seeds the cache, so all three lookups hit *)
      Alcotest.(check int) "cache hits" 3 (Imap.cache_hits m);
      ignore (Imap.lookup m 99);
      Alcotest.(check int) "miss not cached" 3 (Imap.cache_hits m))

let test_xmap_cache_invalidated_on_remove () =
  let p = plat () in
  let m = Imap.create p ~name:"test" () in
  in_sim p (fun () ->
      Imap.insert m 5 "five";
      ignore (Imap.lookup m 5);
      ignore (Imap.remove m 5);
      Alcotest.(check (option string)) "stale cache not served" None (Imap.lookup m 5))

let test_xmap_many_keys_with_collisions () =
  let p = plat () in
  let m = Imap.create p ~buckets:4 ~name:"test" () in
  in_sim p (fun () ->
      for i = 0 to 99 do
        Imap.insert m i (string_of_int i)
      done;
      Alcotest.(check int) "all present" 100 (Imap.length m);
      for i = 0 to 99 do
        Alcotest.(check (option string))
          (Printf.sprintf "key %d" i)
          (Some (string_of_int i))
          (Imap.lookup m i)
      done)

let test_xmap_iter_visits_all () =
  let p = plat () in
  let m = Imap.create p ~name:"test" () in
  in_sim p (fun () ->
      List.iter (fun i -> Imap.insert m i i) [ 1; 2; 3; 4; 5 ];
      let sum = ref 0 in
      Imap.iter m (fun _ v -> sum := !sum + v);
      Alcotest.(check int) "sum of values" 15 !sum)

let test_xmap_iter_can_recurse () =
  let p = plat () in
  let m = Imap.create p ~name:"test" () in
  in_sim p (fun () ->
      Imap.insert m 1 10;
      Imap.insert m 2 20;
      (* mapForEach calling lookup on the same (counting-)locked map *)
      let acc = ref 0 in
      Imap.iter m (fun k _ -> acc := !acc + Option.value ~default:0 (Imap.lookup m k));
      Alcotest.(check int) "recursive lookups fine" 30 !acc)

(* The sharded map against a Hashtbl oracle: a random mix of
   insert/remove/lookup over a colliding key space, spread over several
   shards with tiny initial bucket arrays so resizes fire constantly.
   Lookups (through the 1-behind cache), length and iter coverage must
   all agree with the oracle at every step. *)
let prop_xmap_matches_hashtbl =
  QCheck.Test.make ~name:"xmap agrees with a Hashtbl oracle" ~count:60
    QCheck.(
      list_of_size Gen.(0 -- 400) (pair (int_bound 2) (int_bound 100)))
    (fun ops ->
      let p = plat () in
      let m = Imap.create p ~shards:4 ~buckets:2 ~name:"oracle" () in
      let oracle : (int, int) Hashtbl.t = Hashtbl.create 16 in
      in_sim p (fun () ->
          List.iter
            (fun (op, k) ->
              match op with
              | 0 ->
                Imap.insert m k (k * 7);
                Hashtbl.replace oracle k (k * 7)
              | 1 ->
                let expect = Hashtbl.mem oracle k in
                Hashtbl.remove oracle k;
                if Imap.remove m k <> expect then
                  QCheck.Test.fail_report "remove disagrees with oracle"
              | _ ->
                if Imap.lookup m k <> Hashtbl.find_opt oracle k then
                  QCheck.Test.fail_report "lookup disagrees with oracle")
            ops;
          Hashtbl.iter
            (fun k v ->
              if Imap.lookup m k <> Some v then
                QCheck.Test.fail_report "binding lost (resize or remove ate it)")
            oracle;
          let seen : (int, int) Hashtbl.t = Hashtbl.create 16 in
          Imap.iter m (fun k v ->
              if Hashtbl.mem seen k then QCheck.Test.fail_report "iter visited a key twice";
              Hashtbl.replace seen k v);
          Hashtbl.length seen = Hashtbl.length oracle
          && Imap.length m = Hashtbl.length oracle))

(* Chain-growth regression: at 10^5 keys the per-shard bucket doubling
   must keep the mean chain length at the [grow_load] bound instead of
   the seed behaviour (fixed 32 buckets, mean chains in the thousands). *)
let test_xmap_chain_length_bounded_at_100k () =
  let p = plat () in
  let m = Imap.create p ~shards:8 ~buckets:4 ~name:"big" () in
  in_sim p (fun () ->
      let n = 100_000 in
      for i = 1 to n do
        Imap.insert m i i
      done;
      Alcotest.(check int) "all inserted" n (Imap.length m);
      Alcotest.(check bool) "buckets doubled along the way" true (Imap.resizes m > 0);
      let mean = float_of_int (Imap.length m) /. float_of_int (Imap.bucket_count m) in
      Alcotest.(check bool)
        (Printf.sprintf "mean chain length %.2f stays bounded" mean)
        true (mean <= 2.01);
      Alcotest.(check (option int)) "first key survives" (Some 1) (Imap.lookup m 1);
      Alcotest.(check (option int)) "last key survives" (Some n) (Imap.lookup m n))

let test_xmap_unlocked_lookup_cheaper () =
  let cost locking =
    let p = plat ~map_locking:locking () in
    let m = Imap.create p ~name:"test" () in
    let t_end = ref 0 in
    let _ =
      Sim.spawn p.Platform.sim ~name:"t" (fun () ->
          Imap.insert m 1 1;
          for _ = 1 to 100 do
            ignore (Imap.lookup m 1)
          done;
          t_end := Sim.now p.Platform.sim)
    in
    Sim.run p.Platform.sim;
    !t_end
  in
  Alcotest.(check bool) "unlocked lookup cheaper" true (cost false < cost true)

(* ------------------------------------------------------------------ *)
(* Timewheel                                                           *)
(* ------------------------------------------------------------------ *)

let test_wheel_fires_in_order () =
  let p = plat () in
  let w = Timewheel.create p ~name:"w" () in
  let fired = ref [] in
  let _ =
    Sim.spawn p.Platform.sim ~name:"sched" (fun () ->
        ignore (Timewheel.schedule w ~after:(Pnp_util.Units.ms 30.0) (fun () -> fired := 3 :: !fired));
        ignore (Timewheel.schedule w ~after:(Pnp_util.Units.ms 10.0) (fun () -> fired := 1 :: !fired));
        ignore (Timewheel.schedule w ~after:(Pnp_util.Units.ms 20.0) (fun () -> fired := 2 :: !fired)))
  in
  Sim.run p.Platform.sim;
  Alcotest.(check (list int)) "fire order" [ 1; 2; 3 ] (List.rev !fired);
  Alcotest.(check int) "all fired" 3 (Timewheel.fired w);
  Alcotest.(check int) "none pending" 0 (Timewheel.pending w)

let test_wheel_cancel () =
  let p = plat () in
  let w = Timewheel.create p ~name:"w" () in
  let fired = ref false in
  let _ =
    Sim.spawn p.Platform.sim ~name:"sched" (fun () ->
        let h = Timewheel.schedule w ~after:(Pnp_util.Units.ms 50.0) (fun () -> fired := true) in
        Sim.delay p.Platform.sim (Pnp_util.Units.ms 10.0);
        Alcotest.(check bool) "cancel succeeds" true (Timewheel.cancel w h);
        Alcotest.(check bool) "second cancel fails" false (Timewheel.cancel w h))
  in
  Sim.run p.Platform.sim;
  Alcotest.(check bool) "never fired" false !fired;
  Alcotest.(check int) "not pending" 0 (Timewheel.pending w)

let test_wheel_wraps_around () =
  (* An event further away than slots*slot_ns must survive wheel laps. *)
  let p = plat () in
  let w = Timewheel.create p ~slot_ns:(Pnp_util.Units.ms 1.0) ~slots:8 ~name:"w" () in
  let fired_at = ref 0 in
  let _ =
    Sim.spawn p.Platform.sim ~name:"sched" (fun () ->
        ignore
          (Timewheel.schedule w ~after:(Pnp_util.Units.ms 20.0) (fun () ->
               fired_at := Sim.now p.Platform.sim)))
  in
  Sim.run p.Platform.sim;
  Alcotest.(check bool)
    (Printf.sprintf "fired after full laps (at %d)" !fired_at)
    true
    (!fired_at >= Pnp_util.Units.ms 20.0);
  Alcotest.(check int) "fired once" 1 (Timewheel.fired w)

let test_wheel_timer_can_take_locks () =
  let p = plat () in
  let w = Timewheel.create p ~name:"w" () in
  let lock = Lock.create p.Platform.sim p.Platform.arch Lock.Unfair ~name:"state" in
  let ok = ref false in
  let _ =
    Sim.spawn p.Platform.sim ~name:"sched" (fun () ->
        ignore
          (Timewheel.schedule w ~after:(Pnp_util.Units.ms 5.0) (fun () ->
               Lock.with_lock lock (fun () -> ok := true))))
  in
  Sim.run p.Platform.sim;
  Alcotest.(check bool) "callback ran under lock" true !ok

let test_wheel_reschedule_after_idle () =
  let p = plat () in
  let w = Timewheel.create p ~name:"w" () in
  let count = ref 0 in
  let _ =
    Sim.spawn p.Platform.sim ~name:"sched" (fun () ->
        ignore (Timewheel.schedule w ~after:(Pnp_util.Units.ms 5.0) (fun () -> incr count));
        Sim.delay p.Platform.sim (Pnp_util.Units.ms 100.0);
        (* wheel went idle; a new schedule must restart it *)
        ignore (Timewheel.schedule w ~after:(Pnp_util.Units.ms 5.0) (fun () -> incr count)))
  in
  Sim.run p.Platform.sim;
  Alcotest.(check int) "both fired" 2 !count

let test_wheel_cancel_after_fire () =
  let p = plat () in
  let w = Timewheel.create p ~name:"w" () in
  let fired = ref false in
  let _ =
    Sim.spawn p.Platform.sim ~name:"sched" (fun () ->
        let h = Timewheel.schedule w ~after:(Pnp_util.Units.ms 5.0) (fun () -> fired := true) in
        Sim.delay p.Platform.sim (Pnp_util.Units.ms 50.0);
        Alcotest.(check bool) "event already fired" true !fired;
        Alcotest.(check bool) "late cancel reports false" false (Timewheel.cancel w h))
  in
  Sim.run p.Platform.sim;
  Alcotest.(check int) "fired once" 1 (Timewheel.fired w);
  Alcotest.(check int) "none pending" 0 (Timewheel.pending w)

let test_wheel_rearm_in_callback () =
  (* A callback that re-arms itself: the retransmission-timer shape.  The
     wheel must accept a schedule from inside an expiry callback. *)
  let p = plat () in
  let w = Timewheel.create p ~name:"w" () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then ignore (Timewheel.schedule w ~after:(Pnp_util.Units.ms 7.0) tick)
  in
  let _ =
    Sim.spawn p.Platform.sim ~name:"sched" (fun () ->
        ignore (Timewheel.schedule w ~after:(Pnp_util.Units.ms 7.0) tick))
  in
  Sim.run p.Platform.sim;
  Alcotest.(check int) "periodic timer fired 5 times" 5 !count;
  Alcotest.(check int) "fired counter" 5 (Timewheel.fired w);
  Alcotest.(check int) "none pending" 0 (Timewheel.pending w)

let test_wheel_mass_cancel () =
  (* Teardown shape: a connection dying with many timers outstanding
     cancels them all; the wheel must survive and stay usable. *)
  let p = plat () in
  let w = Timewheel.create p ~slot_ns:(Pnp_util.Units.ms 1.0) ~slots:8 ~name:"w" () in
  let fired = ref 0 in
  let late = ref false in
  let _ =
    Sim.spawn p.Platform.sim ~name:"sched" (fun () ->
        let handles =
          List.init 50 (fun i ->
              Timewheel.schedule w
                ~after:(Pnp_util.Units.ms (5.0 +. float_of_int i))
                (fun () -> incr fired))
        in
        Alcotest.(check int) "all pending" 50 (Timewheel.pending w);
        List.iter
          (fun h -> Alcotest.(check bool) "cancel succeeds" true (Timewheel.cancel w h))
          handles;
        Alcotest.(check int) "none pending after mass cancel" 0 (Timewheel.pending w);
        (* The wheel still works after the teardown. *)
        ignore (Timewheel.schedule w ~after:(Pnp_util.Units.ms 3.0) (fun () -> late := true)))
  in
  Sim.run p.Platform.sim;
  Alcotest.(check int) "no cancelled event fired" 0 !fired;
  Alcotest.(check bool) "wheel alive after mass cancel" true !late

let test_wheel_overrun_callback () =
  (* A callback that outlasts its slot: nothing is armed while it runs, so
     the tick of an entry due meanwhile goes by unvisited, and the entry
     fires when the wheel next reaches its slot, one revolution later. *)
  let p = plat () in
  let slot = Pnp_util.Units.ms 1.0 in
  let w = Timewheel.create p ~slot_ns:slot ~slots:8 ~name:"w" () in
  let late_at = ref 0 in
  let _ =
    Sim.spawn p.Platform.sim ~name:"sched" (fun () ->
        (* due at ticks 1 and 2 *)
        ignore (Timewheel.schedule w ~after:(slot / 2) (fun () -> Sim.delay p.Platform.sim (3 * slot)));
        ignore
          (Timewheel.schedule w ~after:(3 * slot / 2) (fun () -> late_at := Sim.now p.Platform.sim)))
  in
  Sim.run p.Platform.sim;
  Alcotest.(check int) "fired at tick 2 + 8" 10 (!late_at / slot);
  Alcotest.(check int) "both fired" 2 (Timewheel.fired w)

(* A reference model of wheel timing.  Ops run in one thread at
   half-slot instants, [gap] slots apart: kinds 0-2 schedule [after] ns
   ahead (up to five revolutions of the 8-slot, 1 ms wheel), kind 3
   cancels the earliest pending entry (the one the wheel has armed), kind
   4 cancels the [after mod n]-th entry scheduled so far.  On an
   architecture whose locks cost nothing, every surviving callback must
   run at exactly [fire_tick * slot_ns], with [fire_tick] rounded up to a
   whole tick and at least the next one; entries sharing a tick fire in
   chain order, newest first; cancelled entries never run. *)
let prop_wheel_timing_model =
  let slot = Pnp_util.Units.ms 1.0 and slots = 8 in
  QCheck.Test.make ~name:"wheel fires each entry at its tick, newest first" ~count:150
    QCheck.(
      list_of_size Gen.(1 -- 60)
        (triple (int_bound 3) (int_bound (5 * slots * slot)) (int_bound 4)))
    (fun ops ->
      let arch = { Arch.challenge_100 with Arch.mutex_ns = 0; handoff_ns = 0; coherency_ns = 0 } in
      let p = Platform.create arch in
      let sim = p.Platform.sim in
      let w = Timewheel.create p ~slot_ns:slot ~slots ~name:"model" () in
      (* id -> (handle, fire_tick, cancelled) *)
      let model = Hashtbl.create 64 in
      let fired = ref [] in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let pending_at now id =
        let _, tick, cancelled = Hashtbl.find model id in
        (not cancelled) && tick * slot > now
      in
      let cancel now id =
        let h, tick, _ = Hashtbl.find model id in
        let pending = pending_at now id in
        expect (Timewheel.cancel w h = pending);
        if pending then Hashtbl.replace model id (h, tick, true)
      in
      let _ =
        Sim.spawn sim ~name:"ops" (fun () ->
            Sim.delay sim (slot / 2);
            List.iter
              (fun (gap, after, kind) ->
                Sim.delay sim (gap * slot);
                let now = Sim.now sim in
                let n = Hashtbl.length model in
                if kind <= 2 then begin
                  let tick = max ((now + after + slot - 1) / slot) ((now / slot) + 1) in
                  let h =
                    Timewheel.schedule w ~after (fun () -> fired := (n, Sim.now sim) :: !fired)
                  in
                  Hashtbl.replace model n (h, tick, false)
                end
                else if kind = 3 then begin
                  let earliest = ref None in
                  for id = n - 1 downto 0 do
                    if pending_at now id then
                      let _, tick, _ = Hashtbl.find model id in
                      match !earliest with
                      | Some (_, best) when best <= tick -> ()
                      | _ -> earliest := Some (id, tick)
                  done;
                  Option.iter (fun (id, _) -> cancel now id) !earliest
                end
                else if n > 0 then cancel now (after mod n))
              ops)
      in
      Sim.run sim;
      let expected =
        Hashtbl.fold
          (fun id (_, tick, cancelled) acc -> if cancelled then acc else (tick, id) :: acc)
          model []
        |> List.sort (fun (t1, i1) (t2, i2) -> if t1 <> t2 then compare t1 t2 else compare i2 i1)
        |> List.map (fun (tick, id) -> (id, tick * slot))
      in
      !ok
      && List.rev !fired = expected
      && Timewheel.pending w = 0
      && Timewheel.fired w = List.length expected)

let suites =
  [
    ( "xkern.mpool",
      [
        Alcotest.test_case "alloc/free" `Quick test_mpool_alloc_free;
        Alcotest.test_case "refcounting" `Quick test_mpool_refcounting;
        Alcotest.test_case "cache reuse (LIFO)" `Quick test_mpool_cache_reuse;
        Alcotest.test_case "no cache goes global" `Quick test_mpool_no_cache_goes_global;
        Alcotest.test_case "caching is faster" `Quick test_mpool_caching_is_faster;
        Alcotest.test_case "large not cached" `Quick test_mpool_large_not_cached;
        Alcotest.test_case "caches are per-thread" `Quick test_mpool_caches_are_per_thread;
        Alcotest.test_case "decref below zero fails" `Quick test_mpool_decref_below_zero_fails;
        Alcotest.test_case "untraced path allocates nothing" `Quick
          test_mpool_untraced_no_alloc;
        Alcotest.test_case "arena spares shared buffers" `Quick
          test_arena_shared_buffer_not_recycled;
        Alcotest.test_case "arena recycles at refs zero" `Quick test_arena_recycles_buffers;
        Alcotest.test_case "arena accounting and quiesce" `Quick
          test_arena_accounting_and_quiesce;
        Alcotest.test_case "arena off is inert" `Quick test_arena_off_is_inert;
        Alcotest.test_case "arena composes with unshare" `Quick test_arena_unshare_composes;
        Alcotest.test_case "cache table flat on fast path" `Quick
          test_mpool_cache_growths_flat_on_fast_path;
      ] );
    ( "xkern.msg",
      [
        Alcotest.test_case "create/length" `Quick test_msg_create_length;
        Alcotest.test_case "of_string roundtrip" `Quick test_msg_of_string_roundtrip;
        Alcotest.test_case "push/pop headers" `Quick test_msg_push_pop_headers;
        Alcotest.test_case "pop partial part" `Quick test_msg_pop_partial_part;
        Alcotest.test_case "pop too much rejected" `Quick test_msg_pop_too_much_rejected;
        Alcotest.test_case "truncate" `Quick test_msg_truncate;
        Alcotest.test_case "dup shares/refcounts" `Quick test_msg_dup_shares_and_refcounts;
        Alcotest.test_case "dup then pop independent" `Quick test_msg_dup_then_pop_independent;
        Alcotest.test_case "multibyte accessors" `Quick test_msg_multibyte_accessors;
        Alcotest.test_case "accessors span parts" `Quick test_msg_accessors_span_parts;
        Alcotest.test_case "accessors straddle parts" `Quick
          test_msg_accessors_straddle_parts;
        Alcotest.test_case "pattern fill/check" `Quick test_msg_pattern_fill_check;
        Alcotest.test_case "append moves contents" `Quick test_msg_append_moves_contents;
        Alcotest.test_case "iter_slices covers all" `Quick test_msg_iter_slices_covers_all;
        Qrand.to_alcotest prop_msg_ops_preserve_contents;
      ] );
    ( "xkern.xmap",
      [
        Alcotest.test_case "insert/lookup/remove" `Quick test_xmap_insert_lookup_remove;
        Alcotest.test_case "insert replaces" `Quick test_xmap_insert_replaces;
        Alcotest.test_case "1-behind cache" `Quick test_xmap_one_behind_cache;
        Alcotest.test_case "cache invalidated on remove" `Quick
          test_xmap_cache_invalidated_on_remove;
        Alcotest.test_case "collisions handled" `Quick test_xmap_many_keys_with_collisions;
        Alcotest.test_case "iter visits all" `Quick test_xmap_iter_visits_all;
        Alcotest.test_case "iter can recurse (counting lock)" `Quick test_xmap_iter_can_recurse;
        Alcotest.test_case "unlocked lookup cheaper" `Quick test_xmap_unlocked_lookup_cheaper;
        Qrand.to_alcotest prop_xmap_matches_hashtbl;
        Alcotest.test_case "chain length bounded at 100k keys" `Slow
          test_xmap_chain_length_bounded_at_100k;
      ] );
    ( "xkern.timewheel",
      [
        Alcotest.test_case "fires in order" `Quick test_wheel_fires_in_order;
        Alcotest.test_case "cancel" `Quick test_wheel_cancel;
        Alcotest.test_case "wraps around" `Quick test_wheel_wraps_around;
        Alcotest.test_case "timer can take locks" `Quick test_wheel_timer_can_take_locks;
        Alcotest.test_case "reschedules after idle" `Quick test_wheel_reschedule_after_idle;
        Alcotest.test_case "cancel after fire" `Quick test_wheel_cancel_after_fire;
        Alcotest.test_case "re-arm inside callback" `Quick test_wheel_rearm_in_callback;
        Alcotest.test_case "mass cancel at teardown" `Quick test_wheel_mass_cancel;
        Alcotest.test_case "callback overruns its slot" `Quick test_wheel_overrun_callback;
        Qrand.to_alcotest prop_wheel_timing_model;
      ] );
  ]

open Pnp_util
open Pnp_xkern

type policy = Block | Drop

(* The queued messages, front first, in a ring.  Enqueue, peek and drop
   touch only the messages they need and allocate nothing until the ring
   doubles.  A slot left behind by [drop] keeps the handle of a destroyed
   message, which holds no node. *)
type t = {
  pool : Mpool.t;
  max : int;
  policy : policy;
  segs : Msg.t Ring.t;
  mutable cc : int;
  mutable drops : int; (* messages shed by the Drop policy *)
  mutable dropped_bytes : int;
}

let create ?(policy = Block) pool ~max =
  { pool; max; policy; segs = Ring.create (); cc = 0; drops = 0; dropped_bytes = 0 }

let cc t = t.cc
let space t = t.max - t.cc
let max_size t = t.max
let policy t = t.policy
let drops t = t.drops
let dropped_bytes t = t.dropped_bytes

let enqueue t msg =
  Ring.push t.segs msg;
  t.cc <- t.cc + Msg.length msg

let append t msg =
  if Msg.length msg > space t then invalid_arg "Sockbuf.append: no space";
  enqueue t msg

(* Overflow resolution is explicit: [`Queued] took ownership, [`Must_wait]
   left the message with the caller (Block policy — the caller parks on
   buffer space and retries), [`Dropped] destroyed it and accounted the
   shed bytes (Drop policy — overload sheds newest-first instead of
   backpressuring the application). *)
let offer t msg =
  let len = Msg.length msg in
  if len <= space t then begin
    enqueue t msg;
    `Queued
  end
  else
    match t.policy with
    | Block -> `Must_wait
    | Drop ->
      t.drops <- t.drops + 1;
      t.dropped_bytes <- t.dropped_bytes + len;
      Msg.destroy msg;
      `Dropped

(* Splice shared views of the covered ranges into one message. *)
let peek t ~off ~len =
  if off < 0 || len < 0 || off + len > t.cc then
    invalid_arg (Printf.sprintf "Sockbuf.peek: out of range off=%d len=%d cc=%d" off len t.cc);
  let out = Msg.create t.pool 0 in
  let i = ref 0 and off = ref off and len = ref len in
  while !len > 0 do
    let m = Ring.get t.segs !i in
    let mlen = Msg.length m in
    if !off >= mlen then off := !off - mlen
    else begin
      let take = min (mlen - !off) !len in
      Msg.append_view out m ~off:!off ~len:take;
      off := 0;
      len := !len - take
    end;
    incr i
  done;
  out

let drop t n =
  if n < 0 || n > t.cc then invalid_arg "Sockbuf.drop: out of range";
  let rem = ref n in
  while !rem > 0 do
    let m = Ring.get t.segs 0 in
    let mlen = Msg.length m in
    if mlen <= !rem then begin
      Msg.destroy m;
      ignore (Ring.pop t.segs);
      rem := !rem - mlen
    end
    else begin
      Msg.pop m !rem;
      rem := 0
    end
  done;
  t.cc <- t.cc - n

let clear t =
  while not (Ring.is_empty t.segs) do
    Msg.destroy (Ring.get t.segs 0);
    ignore (Ring.pop t.segs)
  done;
  t.cc <- 0

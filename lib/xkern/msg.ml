(* A message is a run of parts, each a view (offset, length) onto a
   reference-counted node.  The parts live in a recycled part vector
   ({!Mpool.parts}) at slots [head, head + n), front first, with spare
   slots on both sides: a header push takes the slot before [head] and an
   append the slot after the last part, so neither allocates while a
   slot is free.  An empty message holds {!Mpool.no_parts} and takes a
   vector with its first part. *)
type t = {
  pool : Mpool.t;
  mutable v : Mpool.parts;
  mutable head : int;
  mutable n : int;
  mutable total : int;
}

let length t = t.total
let pool t = t.pool

(* Where a run of [n] parts starts in a vector of [cap] slots: centred,
   with the odd slot in front, where header pushes land. *)
let centre cap n = (cap - n + 1) / 2

(* Copy [n] parts from slot [i] of [v] to slot [j] of [w], in the
   direction that is safe when [v == w] and the ranges overlap.  Plain
   loops: the runs are a few slots long. *)
let move v i w j n =
  let step k =
    w.Mpool.p_nodes.(j + k) <- v.Mpool.p_nodes.(i + k);
    w.Mpool.p_offs.(j + k) <- v.Mpool.p_offs.(i + k);
    w.Mpool.p_lens.(j + k) <- v.Mpool.p_lens.(i + k)
  in
  if j <= i then
    for k = 0 to n - 1 do
      step k
    done
  else
    for k = n - 1 downto 0 do
      step k
    done

(* Make a free slot before the first part ([front]) or after the last:
   an empty message takes a vector from the pool; a full side shifts the
   parts to the centre of their vector, or into one twice as large. *)
let make_room t ~front =
  let v = t.v in
  let cap = Array.length v.Mpool.p_nodes in
  if v == Mpool.no_parts then begin
    t.v <- Mpool.take_parts t.pool;
    t.head <- centre Mpool.parts_capacity 0 - if front then 0 else 1
  end
  else begin
    let cap' = if t.n < cap then cap else 2 * cap in
    let head = centre cap' t.n - if front then 0 else 1 in
    if cap' = cap then move v t.head v head t.n
    else begin
      let w =
        {
          Mpool.p_nodes = Array.make cap' v.Mpool.p_nodes.(t.head);
          p_offs = Array.make cap' 0;
          p_lens = Array.make cap' 0;
        }
      in
      move v t.head w head t.n;
      Mpool.give_parts t.pool v ~first:t.head ~count:t.n;
      t.v <- w
    end;
    t.head <- head
  end

let set_part t i node off len =
  let v = t.v in
  v.Mpool.p_nodes.(i) <- node;
  v.Mpool.p_offs.(i) <- off;
  v.Mpool.p_lens.(i) <- len

let add_front t node off len =
  if t.head = 0 then make_room t ~front:true;
  t.head <- t.head - 1;
  t.n <- t.n + 1;
  set_part t t.head node off len

let add_back t node off len =
  if t.head + t.n = Array.length t.v.Mpool.p_nodes then make_room t ~front:false;
  set_part t (t.head + t.n) node off len;
  t.n <- t.n + 1

let empty pool = { pool; v = Mpool.no_parts; head = 0; n = 0; total = 0 }

(* Hand the vector back, scrubbing the slots of the parts still in it. *)
let reset t =
  if t.v != Mpool.no_parts then Mpool.give_parts t.pool t.v ~first:t.head ~count:t.n;
  t.v <- Mpool.no_parts;
  t.head <- 0;
  t.n <- 0;
  t.total <- 0

let create pool n =
  if n < 0 then invalid_arg "Msg.create: negative length";
  let t = empty pool in
  if n > 0 then begin
    add_back t (Mpool.alloc pool n) 0 n;
    t.total <- n
  end;
  t

let of_substring pool s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Msg.of_substring: out of bounds";
  let t = create pool len in
  if t.n = 1 then begin
    let node = t.v.Mpool.p_nodes.(t.head) in
    Mpool.bump_gen pool node;
    Bytes.blit_string s off (Mpool.data node) t.v.Mpool.p_offs.(t.head) len
  end;
  t

let of_string pool s = of_substring pool s ~off:0 ~len:(String.length s)

let push t n =
  if n < 0 then invalid_arg "Msg.push: negative length";
  if n > 0 then begin
    add_front t (Mpool.alloc t.pool n) 0 n;
    t.total <- t.total + n
  end

(* Drop [n] bytes off the front, releasing the nodes of emptied parts in
   order.  A part whose bytes are all consumed is released even when it
   ends exactly at [n]. *)
let pop_slow t n =
  let v = t.v in
  let rem = ref n in
  while !rem > 0 do
    let len = v.Mpool.p_lens.(t.head) in
    if len <= !rem then begin
      Mpool.decref t.pool v.Mpool.p_nodes.(t.head);
      t.head <- t.head + 1;
      t.n <- t.n - 1;
      rem := !rem - len
    end
    else begin
      v.Mpool.p_offs.(t.head) <- v.Mpool.p_offs.(t.head) + !rem;
      v.Mpool.p_lens.(t.head) <- len - !rem;
      rem := 0
    end
  done;
  t.total <- t.total - n;
  if t.n = 0 then reset t

(* A header node pushed on a payload node is consumed part by part, so
   [pop] special-cases a pop inside the first part: adjust it in place. *)
let pop t n =
  if n < 0 || n > t.total then invalid_arg "Msg.pop: bad length";
  if t.n > 0 && n < t.v.Mpool.p_lens.(t.head) then begin
    let v = t.v in
    v.Mpool.p_offs.(t.head) <- v.Mpool.p_offs.(t.head) + n;
    v.Mpool.p_lens.(t.head) <- v.Mpool.p_lens.(t.head) - n;
    t.total <- t.total - n
  end
  else pop_slow t n

(* Keep the first [n] bytes: parts wholly inside stay, the part that
   straddles [n] is cut, and every later part is released in order. *)
let truncate t n =
  if n < 0 || n > t.total then invalid_arg "Msg.truncate: bad length";
  let v = t.v in
  let kept = ref 0 and rem = ref n in
  for i = t.head to t.head + t.n - 1 do
    if !rem = 0 then Mpool.decref t.pool v.Mpool.p_nodes.(i)
    else begin
      let len = v.Mpool.p_lens.(i) in
      if len > !rem then v.Mpool.p_lens.(i) <- !rem;
      rem := !rem - min len !rem;
      incr kept
    end
  done;
  t.n <- !kept;
  t.total <- n;
  if t.n = 0 then reset t

let dup t =
  let u = empty t.pool in
  let v = t.v in
  for i = t.head to t.head + t.n - 1 do
    let node = v.Mpool.p_nodes.(i) in
    Mpool.incref t.pool node;
    add_back u node v.Mpool.p_offs.(i) v.Mpool.p_lens.(i)
  done;
  u.total <- t.total;
  u

(* Append a view of [src]'s bytes [off, off + len) to [t], touching the
   reference counts exactly as [dup] + [pop off] + [truncate len] on a
   copy of [src] would: a reference on every part, then the parts wholly
   before the range released, then the parts wholly after it. *)
let append_view t src ~off ~len =
  if off < 0 || len < 0 || off + len > src.total then
    invalid_arg "Msg.append_view: out of range";
  let v = src.v in
  let last = src.head + src.n - 1 in
  for i = src.head to last do
    Mpool.incref src.pool v.Mpool.p_nodes.(i)
  done;
  (* [first]: the part holding byte [off]; a part ending exactly at
     [off] is dropped with the popped bytes. *)
  let first = ref src.head and skip = ref off in
  while !skip > 0 && v.Mpool.p_lens.(!first) <= !skip do
    Mpool.decref src.pool v.Mpool.p_nodes.(!first);
    skip := !skip - v.Mpool.p_lens.(!first);
    incr first
  done;
  let rem = ref len in
  for i = !first to last do
    if !rem = 0 then Mpool.decref src.pool v.Mpool.p_nodes.(i)
    else begin
      let o = v.Mpool.p_offs.(i) + !skip and l = v.Mpool.p_lens.(i) - !skip in
      skip := 0;
      add_back t v.Mpool.p_nodes.(i) o (min l !rem);
      rem := !rem - min l !rem
    end
  done;
  t.total <- t.total + len

let append t u =
  if t == u then invalid_arg "Msg.append: cannot append a message to itself";
  let v = u.v in
  for i = u.head to u.head + u.n - 1 do
    add_back t v.Mpool.p_nodes.(i) v.Mpool.p_offs.(i) v.Mpool.p_lens.(i)
  done;
  t.total <- t.total + u.total;
  reset u

let destroy t =
  let v = t.v in
  for i = t.head to t.head + t.n - 1 do
    Mpool.decref t.pool v.Mpool.p_nodes.(i)
  done;
  reset t

(* The index of the part holding message offset [off]. *)
let rec find_part t i off =
  let len = t.v.Mpool.p_lens.(i) in
  if off < len then i else find_part t (i + 1) (off - len)

let unshare t ~off =
  if off < 0 || off >= t.total then invalid_arg "Msg.unshare: out of bounds";
  let i = find_part t t.head off in
  let v = t.v in
  let node = v.Mpool.p_nodes.(i) and o = v.Mpool.p_offs.(i) and len = v.Mpool.p_lens.(i) in
  if Mpool.refs node > 1 then begin
    let fresh = Mpool.alloc t.pool len in
    Mpool.bump_gen t.pool fresh;
    Bytes.blit (Mpool.data node) o (Mpool.data fresh) 0 len;
    (* The copy is byte-identical, so the source's cached checksum sum —
       when it covers exactly the copied view — carries over. *)
    let s = Mpool.cached_sum node ~off:o ~len in
    if s >= 0 then Mpool.cache_sum fresh ~off:0 ~len s;
    Mpool.decref t.pool node;
    v.Mpool.p_nodes.(i) <- fresh;
    v.Mpool.p_offs.(i) <- 0
  end

(* Byte access.  [get_be]/[set_be] walk to the part holding message
   offset [off] and load or store a [width]-byte big-endian value there.
   The first step looks at the head part, which is where a header lives
   whether or not a payload follows it, so a header access costs one
   compare and a direct load or store.  A range that straddles a part
   boundary splits in halves (u32 into two u16, u16 into two u8), each
   located afresh.  Nothing here builds a tuple or a closure. *)

let load_be b j width =
  match width with
  | 1 -> Bytes.get_uint8 b j
  | 2 -> Bytes.get_uint16_be b j
  | _ -> (Bytes.get_uint16_be b j lsl 16) lor Bytes.get_uint16_be b (j + 2)

let rec get_be t i off width =
  if i >= t.head + t.n then invalid_arg "Msg: offset out of bounds";
  let v = t.v in
  let len = v.Mpool.p_lens.(i) in
  if off >= len then get_be t (i + 1) (off - len) width
  else if off + width <= len then
    load_be (Mpool.data v.Mpool.p_nodes.(i)) (v.Mpool.p_offs.(i) + off) width
  else
    let h = width / 2 in
    (get_be t i off h lsl (8 * h)) lor get_be t i (off + h) h

let rec set_be t i off width x =
  if i >= t.head + t.n then invalid_arg "Msg: offset out of bounds";
  let v = t.v in
  let len = v.Mpool.p_lens.(i) in
  if off >= len then set_be t (i + 1) (off - len) width x
  else if off + width <= len then begin
    let node = v.Mpool.p_nodes.(i) in
    Mpool.bump_gen t.pool node;
    let b = Mpool.data node and j = v.Mpool.p_offs.(i) + off in
    match width with
    | 1 -> Bytes.set_uint8 b j (x land 0xff)
    | 2 -> Bytes.set_uint16_be b j (x land 0xffff)
    | _ ->
      Bytes.set_uint16_be b j ((x lsr 16) land 0xffff);
      Bytes.set_uint16_be b (j + 2) (x land 0xffff)
  end
  else begin
    let h = width / 2 in
    set_be t i off h (x lsr (8 * h));
    set_be t i (off + h) h x
  end

let get_u8 t off =
  if off < 0 || off >= t.total then invalid_arg "Msg.get_u8: out of bounds";
  get_be t t.head off 1

let set_u8 t off x =
  if off < 0 || off >= t.total then invalid_arg "Msg.set_u8: out of bounds";
  set_be t t.head off 1 x

(* A read inside the first part — any header — loads directly. *)
let get_u16 t off =
  if off < 0 || off + 2 > t.total then invalid_arg "Msg.get_u16: out of bounds";
  let v = t.v and i = t.head in
  if off + 2 <= v.Mpool.p_lens.(i) then
    Bytes.get_uint16_be (Mpool.data v.Mpool.p_nodes.(i)) (v.Mpool.p_offs.(i) + off)
  else get_be t i off 2

let set_u16 t off x =
  if off < 0 || off + 2 > t.total then invalid_arg "Msg.set_u16: out of bounds";
  set_be t t.head off 2 x

let get_u32 t off =
  if off < 0 || off + 4 > t.total then invalid_arg "Msg.get_u32: out of bounds";
  let v = t.v and i = t.head in
  if off + 4 <= v.Mpool.p_lens.(i) then
    load_be (Mpool.data v.Mpool.p_nodes.(i)) (v.Mpool.p_offs.(i) + off) 4
  else get_be t i off 4

let set_u32 t off x =
  if off < 0 || off + 4 > t.total then invalid_arg "Msg.set_u32: out of bounds";
  set_be t t.head off 4 x

let head_node t =
  if t.n = 0 then invalid_arg "Msg.head_node: empty message";
  t.v.Mpool.p_nodes.(t.head)

let head_off t =
  if t.n = 0 then invalid_arg "Msg.head_off: empty message";
  t.v.Mpool.p_offs.(t.head)

let iter_slices t f =
  let v = t.v in
  for i = t.head to t.head + t.n - 1 do
    f (Mpool.data v.Mpool.p_nodes.(i)) v.Mpool.p_offs.(i) v.Mpool.p_lens.(i)
  done

let rec fold_from t i f acc =
  if i >= t.head + t.n then acc
  else
    let v = t.v in
    fold_from t (i + 1) f (f acc v.Mpool.p_nodes.(i) v.Mpool.p_offs.(i) v.Mpool.p_lens.(i))

let fold_parts t f acc = fold_from t t.head f acc

let blit_to_bytes t buf =
  (* lint:allow msg-bump-gen: writes into the caller's buffer, never node bytes *)
  if Bytes.length buf < t.total then invalid_arg "Msg.blit_to_bytes: buffer too small";
  let v = t.v and pos = ref 0 in
  for i = t.head to t.head + t.n - 1 do
    let len = v.Mpool.p_lens.(i) in
    Bytes.blit (Mpool.data v.Mpool.p_nodes.(i)) v.Mpool.p_offs.(i) buf !pos len;
    pos := !pos + len
  done

let to_string t =
  let buf = Bytes.create t.total in
  blit_to_bytes t buf;
  Bytes.to_string buf

let pattern_byte stream_off i = (stream_off + i) mod 251

(* Apply [f t x node buf pos count done_so_far] to the byte ranges
   covering message offsets [off, off+len) until it returns [false];
   [done_so_far] is the count of range bytes already visited, and the
   result says whether every range was accepted.  Shared walk for
   fill/check, which pass a top-level [f] and their stream offset as
   [x], so the walk builds no closure; the node is passed so writers can
   bump its generation. *)
let iter_range t ~off ~len f x =
  if off < 0 || len < 0 || off + len > t.total then
    invalid_arg "Msg.iter_range: out of bounds";
  let v = t.v in
  let skip = ref off and remaining = ref len and visited = ref 0 in
  let i = ref t.head and ok = ref true in
  while !remaining > 0 do
    let blen = v.Mpool.p_lens.(!i) in
    if !skip >= blen then skip := !skip - blen
    else begin
      let node = v.Mpool.p_nodes.(!i) in
      let start = v.Mpool.p_offs.(!i) + !skip in
      let count = min (blen - !skip) !remaining in
      skip := 0;
      if f t x node (Mpool.data node) start count !visited then begin
        visited := !visited + count;
        remaining := !remaining - count
      end
      else begin
        ok := false;
        remaining := 0
      end
    end;
    incr i
  done;
  !ok

(* The pattern is periodic (251), so a precomputed block turns fill into
   [Bytes.blit] and check into 8-bytes-at-a-time word compares instead
   of a mod per byte — the drivers pattern every payload they inject and
   verify, which made the byte loops one of the hottest host paths. *)
let pattern_period = 251
let pattern_block_len = 8192 (* > max mnode class (4608) + one period *)

let pattern_block =
  Bytes.init pattern_block_len (fun k -> Char.chr (pattern_byte 0 k))

(* Largest multiple of the period that still fits a window of the block:
   chunking by it keeps the phase unchanged across chunks. *)
let pattern_chunk =
  (pattern_block_len - pattern_period) / pattern_period * pattern_period

let fill_slice t stream_off node b start count visited =
  Mpool.bump_gen t.pool node;
  let phase = ref ((stream_off + visited) mod pattern_period) in
  let pos = ref start and left = ref count in
  while !left > 0 do
    let n = min !left pattern_chunk in
    Bytes.blit pattern_block !phase b !pos n;
    phase := (!phase + n) mod pattern_period;
    pos := !pos + n;
    left := !left - n
  done;
  true

let fill_pattern t ~off ~len ~stream_off =
  ignore (iter_range t ~off ~len fill_slice stream_off)

(* [true] while the slice matches; a mismatch stops the walk. *)
let check_slice _t stream_off _node b start count visited =
  let ok = ref true in
  let phase = ref ((stream_off + visited) mod pattern_period) in
  let pos = ref start and left = ref count in
  while !ok && !left > 0 do
    let n = min !left pattern_chunk in
    let i = ref 0 in
    while !ok && !i + 8 <= n do
      if Bytes.get_int64_ne b (!pos + !i) <> Bytes.get_int64_ne pattern_block (!phase + !i)
      then ok := false
      else i := !i + 8
    done;
    while !ok && !i < n do
      if Bytes.unsafe_get b (!pos + !i) <> Bytes.unsafe_get pattern_block (!phase + !i)
      then ok := false
      else incr i
    done;
    phase := (!phase + n) mod pattern_period;
    pos := !pos + n;
    left := !left - n
  done;
  !ok

let check_pattern t ~off ~len ~stream_off = iter_range t ~off ~len check_slice stream_off

let parts t = t.n

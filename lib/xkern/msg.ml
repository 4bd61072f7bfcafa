type part = { mutable node : Mpool.mnode; mutable off : int; mutable len : int }

type t = { pool : Mpool.t; mutable parts : part list; mutable total : int }

let create pool n =
  if n < 0 then invalid_arg "Msg.create: negative length";
  if n = 0 then { pool; parts = []; total = 0 }
  else
    let node = Mpool.alloc pool n in
    { pool; parts = [ { node; off = 0; len = n } ]; total = n }

let length t = t.total
let pool t = t.pool

let of_string pool s =
  let t = create pool (String.length s) in
  (match t.parts with
   | [ p ] ->
     Mpool.bump_gen pool p.node;
     Bytes.blit_string s 0 (Mpool.data p.node) p.off (String.length s)
   | _ -> assert (String.length s = 0));
  t

let push t n =
  if n < 0 then invalid_arg "Msg.push: negative length";
  if n > 0 then begin
    let node = Mpool.alloc t.pool n in
    t.parts <- { node; off = 0; len = n } :: t.parts;
    t.total <- t.total + n
  end

(* The part-list walkers ([strip], [release_parts], [keep], [dup_parts])
   are top-level functions taking the pool as an argument, so a
   multi-part pop, truncate, dup or destroy builds no closure.

   [strip] drops [n] bytes off the front of [parts], releasing emptied
   nodes. *)
let rec strip pool n parts =
  if n = 0 then parts
  else
    match parts with
    | [] -> assert false
    | p :: rest ->
      if p.len <= n then begin
        Mpool.decref pool p.node;
        strip pool (n - p.len) rest
      end
      else begin
        p.off <- p.off + n;
        p.len <- p.len - n;
        parts
      end

let pop_slow t n =
  t.parts <- strip t.pool n t.parts;
  t.total <- t.total - n

(* Single-part messages dominate the hot paths (a header node pushed on a
   payload node is consumed part by part), so [pop]/[truncate]
   special-case one-part messages: adjust the part in place, no list
   walk. *)
let pop t n =
  if n < 0 || n > t.total then invalid_arg "Msg.pop: bad length";
  match t.parts with
  | [ p ] when n < p.len ->
    p.off <- p.off + n;
    p.len <- p.len - n;
    t.total <- t.total - n
  | _ -> pop_slow t n

let rec release_parts pool = function
  | [] -> ()
  | p :: rest ->
    Mpool.decref pool p.node;
    release_parts pool rest

let rec keep pool n parts =
  if n = 0 then begin
    release_parts pool parts;
    []
  end
  else
    match parts with
    | [] -> assert false
    | p :: rest ->
      if p.len <= n then p :: keep pool (n - p.len) rest
      else begin
        p.len <- n;
        p :: keep pool 0 rest
      end

let truncate_slow t n =
  t.parts <- keep t.pool n t.parts;
  t.total <- n

let truncate t n =
  if n < 0 || n > t.total then invalid_arg "Msg.truncate: bad length";
  match t.parts with
  | [ p ] when n > 0 ->
    p.len <- n;
    t.total <- n
  | _ -> truncate_slow t n

let rec dup_parts pool = function
  | [] -> []
  | p :: rest ->
    Mpool.incref pool p.node;
    { node = p.node; off = p.off; len = p.len } :: dup_parts pool rest

let dup t = { pool = t.pool; parts = dup_parts t.pool t.parts; total = t.total }

let append t u =
  if t == u then invalid_arg "Msg.append: cannot append a message to itself";
  t.parts <- t.parts @ u.parts;
  t.total <- t.total + u.total;
  u.parts <- [];
  u.total <- 0

let destroy t =
  release_parts t.pool t.parts;
  t.parts <- [];
  t.total <- 0

let unshare t ~off =
  if off < 0 || off >= t.total then invalid_arg "Msg.unshare: out of bounds";
  let rec find parts off =
    match parts with
    | [] -> assert false
    | p :: rest -> if off < p.len then p else find rest (off - p.len)
  in
  let p = find t.parts off in
  if Mpool.refs p.node > 1 then begin
    let fresh = Mpool.alloc t.pool p.len in
    Mpool.bump_gen t.pool fresh;
    Bytes.blit (Mpool.data p.node) p.off (Mpool.data fresh) 0 p.len;
    (* The copy is byte-identical, so the source's cached checksum sum —
       when it covers exactly the copied view — carries over. *)
    let s = Mpool.cached_sum p.node ~off:p.off ~len:p.len in
    if s >= 0 then Mpool.cache_sum fresh ~off:0 ~len:p.len s;
    Mpool.decref t.pool p.node;
    p.node <- fresh;
    p.off <- 0
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

let rec get_be parts off width =
  match parts with
  | [] -> invalid_arg "Msg: offset out of bounds"
  | p :: rest ->
    if off >= p.len then get_be rest (off - p.len) width
    else if off + width <= p.len then load_be (Mpool.data p.node) (p.off + off) width
    else
      let h = width / 2 in
      (get_be parts off h lsl (8 * h)) lor get_be parts (off + h) h

let rec set_be pool parts off width v =
  match parts with
  | [] -> invalid_arg "Msg: offset out of bounds"
  | p :: rest ->
    if off >= p.len then set_be pool rest (off - p.len) width v
    else if off + width <= p.len then begin
      Mpool.bump_gen pool p.node;
      let b = Mpool.data p.node and j = p.off + off in
      match width with
      | 1 -> Bytes.set_uint8 b j (v land 0xff)
      | 2 -> Bytes.set_uint16_be b j (v land 0xffff)
      | _ ->
        Bytes.set_uint16_be b j ((v lsr 16) land 0xffff);
        Bytes.set_uint16_be b (j + 2) (v land 0xffff)
    end
    else begin
      let h = width / 2 in
      set_be pool parts off h (v lsr (8 * h));
      set_be pool parts (off + h) h v
    end

let get_u8 t off =
  if off < 0 || off >= t.total then invalid_arg "Msg.get_u8: out of bounds";
  get_be t.parts off 1

let set_u8 t off v =
  if off < 0 || off >= t.total then invalid_arg "Msg.set_u8: out of bounds";
  set_be t.pool t.parts off 1 v

let get_u16 t off =
  if off < 0 || off + 2 > t.total then invalid_arg "Msg.get_u16: out of bounds";
  get_be t.parts off 2

let set_u16 t off v =
  if off < 0 || off + 2 > t.total then invalid_arg "Msg.set_u16: out of bounds";
  set_be t.pool t.parts off 2 v

let get_u32 t off =
  if off < 0 || off + 4 > t.total then invalid_arg "Msg.get_u32: out of bounds";
  get_be t.parts off 4

let set_u32 t off v =
  if off < 0 || off + 4 > t.total then invalid_arg "Msg.set_u32: out of bounds";
  set_be t.pool t.parts off 4 v

let head_view t ~len =
  match t.parts with
  | p :: _ when p.len >= len -> Some (p.node, Mpool.data p.node, p.off)
  | _ -> None

let iter_slices t f =
  List.iter (fun p -> if p.len > 0 then f (Mpool.data p.node) p.off p.len) t.parts

let iter_parts t f =
  List.iter (fun p -> if p.len > 0 then f p.node p.off p.len) t.parts

let rec fold_list f acc = function
  | [] -> acc
  | p :: rest ->
    let acc = if p.len > 0 then f acc p.node p.off p.len else acc in
    fold_list f acc rest

let fold_parts t f acc = fold_list f acc t.parts

let blit_to_bytes t buf =
  (* lint:allow msg-bump-gen: writes into the caller's buffer, never node bytes *)
  if Bytes.length buf < t.total then invalid_arg "Msg.blit_to_bytes: buffer too small";
  let pos = ref 0 in
  iter_slices t (fun b off len ->
      Bytes.blit b off buf !pos len;
      pos := !pos + len)

let to_string t =
  let buf = Bytes.create t.total in
  blit_to_bytes t buf;
  Bytes.to_string buf

let pattern_byte stream_off i = (stream_off + i) mod 251

(* Apply [f node buf pos count done_so_far] to the byte ranges covering
   message offsets [off, off+len); [done_so_far] is the count of range
   bytes already visited.  Shared fast path for fill/check; the node is
   passed so writers can bump its generation. *)
let iter_range t ~off ~len f =
  if off < 0 || len < 0 || off + len > t.total then
    invalid_arg "Msg.iter_range: out of bounds";
  let skip = ref off and remaining = ref len and visited = ref 0 in
  iter_parts t (fun node boff blen ->
      if !remaining > 0 then begin
        if !skip >= blen then skip := !skip - blen
        else begin
          let start = boff + !skip in
          let count = min (blen - !skip) !remaining in
          skip := 0;
          f node (Mpool.data node) start count !visited;
          visited := !visited + count;
          remaining := !remaining - count
        end
      end)

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

let fill_pattern t ~off ~len ~stream_off =
  iter_range t ~off ~len (fun node b start count visited ->
      Mpool.bump_gen t.pool node;
      let phase = ref ((stream_off + visited) mod pattern_period) in
      let pos = ref start and left = ref count in
      while !left > 0 do
        let n = min !left pattern_chunk in
        Bytes.blit pattern_block !phase b !pos n;
        phase := (!phase + n) mod pattern_period;
        pos := !pos + n;
        left := !left - n
      done)

let check_pattern t ~off ~len ~stream_off =
  let ok = ref true in
  iter_range t ~off ~len (fun _node b start count visited ->
      if !ok then begin
        let phase = ref ((stream_off + visited) mod pattern_period) in
        let pos = ref start and left = ref count in
        while !ok && !left > 0 do
          let n = min !left pattern_chunk in
          let i = ref 0 in
          while !ok && !i + 8 <= n do
            if
              Bytes.get_int64_ne b (!pos + !i)
              <> Bytes.get_int64_ne pattern_block (!phase + !i)
            then ok := false
            else i := !i + 8
          done;
          while !ok && !i < n do
            if
              Bytes.unsafe_get b (!pos + !i)
              <> Bytes.unsafe_get pattern_block (!phase + !i)
            then ok := false
            else incr i
          done;
          phase := (!phase + n) mod pattern_period;
          pos := !pos + n;
          left := !left - n
        done
      end);
  !ok

let parts t = List.length t.parts

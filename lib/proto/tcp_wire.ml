open Pnp_xkern

type flags = { fin : bool; syn : bool; rst : bool; psh : bool; ack : bool }

let no_flags = { fin = false; syn = false; rst = false; psh = false; ack = false }
let flag_ack = { no_flags with ack = true }
let flag_syn = { no_flags with syn = true }
let flag_syn_ack = { no_flags with syn = true; ack = true }
let flag_fin_ack = { no_flags with fin = true; ack = true }
let flag_rst = { no_flags with rst = true }

type header = {
  sport : int;
  dport : int;
  seq : int;
  ack : int;
  flags : flags;
  win : int;
  cksum : int;
}

let header_bytes = 24
let protocol_number = 6

let flags_to_int f =
  (if f.fin then 1 else 0)
  lor (if f.syn then 2 else 0)
  lor (if f.rst then 4 else 0)
  lor (if f.psh then 8 else 0)
  lor if f.ack then 16 else 0

(* Every decoded segment needs its flags record; the five bits give only
   32 distinct records, so decode hands out prebuilt ones. *)
let flags_table =
  Array.init 32 (fun i ->
      {
        fin = i land 1 <> 0;
        syn = i land 2 <> 0;
        rst = i land 4 <> 0;
        psh = i land 8 <> 0;
        ack = i land 16 <> 0;
      })

let flags_of_int i = flags_table.(i land 31)

(* The header is written and read field by field through the message
   accessors, which allocate nothing; the [header] record is built only
   where a caller keeps one ([decode], the SCR log). *)
let encode msg ~sport ~dport ~seq ~ack ~flags ~win =
  Msg.push msg header_bytes;
  Msg.set_u16 msg 0 sport;
  Msg.set_u16 msg 2 dport;
  Msg.set_u32 msg 4 (Tcp_seq.mask seq);
  Msg.set_u32 msg 8 (Tcp_seq.mask ack);
  (* data offset in 32-bit words (6) in the high nibble, flags low. *)
  Msg.set_u16 msg 12 ((6 lsl 12) lor flags_to_int flags);
  Msg.set_u32 msg 14 win;
  Msg.set_u16 msg 18 0;
  Msg.set_u16 msg 20 0;
  Msg.set_u16 msg 22 0

let get_sport msg = Msg.get_u16 msg 0
let get_dport msg = Msg.get_u16 msg 2
let get_seq msg = Msg.get_u32 msg 4
let get_ack msg = Msg.get_u32 msg 8
let get_flags msg = flags_of_int (Msg.get_u16 msg 12 land 0x3f)
let get_win msg = Msg.get_u32 msg 14
let get_cksum msg = Msg.get_u16 msg 18

let decode msg =
  if Msg.length msg < header_bytes then None
  else
    Some
      {
        sport = get_sport msg;
        dport = get_dport msg;
        seq = get_seq msg;
        ack = get_ack msg;
        flags = get_flags msg;
        win = get_win msg;
        cksum = get_cksum msg;
      }

let strip msg = Msg.pop msg header_bytes

let pseudo_sum ~src ~dst ~len =
  let open Inet_cksum in
  let s = add (src lsr 16) (src land 0xffff) in
  let s = add s (dst lsr 16) in
  let s = add s (dst land 0xffff) in
  let s = add s protocol_number in
  add s len

let store_checksum plat ~src ~dst msg =
  let len = Msg.length msg in
  Msg.set_u16 msg 18 0;
  let ck = Inet_cksum.compute plat msg ~extra:(pseudo_sum ~src ~dst ~len) in
  Msg.set_u16 msg 18 (if ck = 0 then 0xffff else ck)

let store_checksum_free ~src ~dst msg =
  let len = Msg.length msg in
  Msg.set_u16 msg 18 0;
  let sum = Inet_cksum.add (Inet_cksum.sum_slices msg) (pseudo_sum ~src ~dst ~len) in
  let ck = Inet_cksum.finish sum in
  Msg.set_u16 msg 18 (if ck = 0 then 0xffff else ck)

let store_checksum_incremental ~src ~dst ~payload_sum msg =
  let len = Msg.length msg in
  Msg.set_u16 msg 18 0;
  let hdr_sum = ref 0 in
  for i = 0 to (header_bytes / 2) - 1 do
    hdr_sum := Inet_cksum.add !hdr_sum (Msg.get_u16 msg (2 * i))
  done;
  let total = Inet_cksum.add (Inet_cksum.add !hdr_sum payload_sum) (pseudo_sum ~src ~dst ~len) in
  let ck = Inet_cksum.finish total in
  Msg.set_u16 msg 18 (if ck = 0 then 0xffff else ck)

(* 16-bit one's-complement sum of an encoded header's words, computed
   from the fields without touching bytes.  Every 16-bit word of the
   header is a field (the trailing pad is zero), so for a header-only
   segment the whole checksum is arithmetic. *)
let header_sum ~sport ~dport ~seq ~ack ~flags ~win =
  let open Inet_cksum in
  let seq = Tcp_seq.mask seq and ackn = Tcp_seq.mask ack in
  let s = add sport dport in
  let s = add s (seq lsr 16) in
  let s = add s (seq land 0xffff) in
  let s = add s (ackn lsr 16) in
  let s = add s (ackn land 0xffff) in
  let s = add s ((6 lsl 12) lor flags_to_int flags) in
  let s = add s ((win lsr 16) land 0xffff) in
  add s (win land 0xffff)

(* Coalesced construction of a header-only segment (pure ACK, SYN, FIN):
   one direct pass writes the header with the checksum already computed
   arithmetically from the fields — no re-scan of freshly written bytes —
   and primes the node's sum memo so the receiver's verify pass is O(1).
   The stored bytes are identical to [encode] followed by
   [store_checksum]/[store_checksum_free]; with [checksum:false] the
   field is written as the zero those paths leave.  Charges nothing:
   callers place the simulated checksum charge ({!Inet_cksum.charge})
   exactly where their reference path incurred it. *)
let encode_empty msg ~sport ~dport ~seq ~ack ~flags ~win ~src ~dst ~checksum =
  Msg.push msg header_bytes;
  let base = header_sum ~sport ~dport ~seq ~ack ~flags ~win in
  let ck =
    if not checksum then 0
    else
      let c = Inet_cksum.finish (Inet_cksum.add base (pseudo_sum ~src ~dst ~len:header_bytes)) in
      if c = 0 then 0xffff else c
  in
  (* A fresh push is always a single part covering the header. *)
  let node = Msg.head_node msg and j = Msg.head_off msg in
  let b = Mpool.data node in
  Mpool.bump_gen (Msg.pool msg) node;
  Bytes.set_uint16_be b j sport;
  Bytes.set_uint16_be b (j + 2) dport;
  let seq = Tcp_seq.mask seq and ackn = Tcp_seq.mask ack in
  Bytes.set_uint16_be b (j + 4) (seq lsr 16);
  Bytes.set_uint16_be b (j + 6) (seq land 0xffff);
  Bytes.set_uint16_be b (j + 8) (ackn lsr 16);
  Bytes.set_uint16_be b (j + 10) (ackn land 0xffff);
  Bytes.set_uint16_be b (j + 12) ((6 lsl 12) lor flags_to_int flags);
  Bytes.set_uint16_be b (j + 14) ((win lsr 16) land 0xffff);
  Bytes.set_uint16_be b (j + 16) (win land 0xffff);
  Bytes.set_uint16_be b (j + 18) ck;
  Bytes.set_uint16_be b (j + 20) 0;
  Bytes.set_uint16_be b (j + 22) 0;
  Mpool.cache_sum node ~off:j ~len:header_bytes (Inet_cksum.add base ck)

let verify_checksum plat ~src ~dst msg =
  let len = Msg.length msg in
  Inet_cksum.verify plat msg ~extra:(pseudo_sum ~src ~dst ~len)

let flags_to_string f =
  let b = Buffer.create 5 in
  if f.syn then Buffer.add_char b 'S';
  if f.fin then Buffer.add_char b 'F';
  if f.rst then Buffer.add_char b 'R';
  if f.psh then Buffer.add_char b 'P';
  if f.ack then Buffer.add_char b 'A';
  if Buffer.length b = 0 then "-" else Buffer.contents b

open Pnp_engine
open Pnp_xkern

(* The Challenge checksums at 32 MB/s = ~31 ns/byte; presentation
   conversion reads, transforms and writes, at roughly 3x that. *)
let conversion_ns_per_byte = 95.0

let convert plat pool msg =
  let len = Msg.length msg in
  let out = Msg.create pool len in
  (* Real work: copy with each aligned 32-bit word byte-swapped, in place
     in the output's single node — one generation bump for the whole
     rewrite, no scratch buffer. *)
  if len > 0 then begin
     let node = Msg.head_node out in
     let buf = Mpool.data node and base = Msg.head_off out in
     Mpool.bump_gen pool node;
     let pos = ref base in
     Msg.iter_slices msg (fun b off n ->
         Bytes.blit b off buf !pos n;
         pos := !pos + n);
     for w = 0 to (len / 4) - 1 do
       let i = base + (4 * w) in
       let b0 = Bytes.get buf i
       and b1 = Bytes.get buf (i + 1)
       and b2 = Bytes.get buf (i + 2)
       and b3 = Bytes.get buf (i + 3) in
       Bytes.set buf i b3;
       Bytes.set buf (i + 1) b2;
       Bytes.set buf (i + 2) b1;
       Bytes.set buf (i + 3) b0
     done
  end;
  Msg.destroy msg;
  Platform.charge plat (int_of_float (float_of_int len *. conversion_ns_per_byte));
  out

let encode = convert
let decode = convert

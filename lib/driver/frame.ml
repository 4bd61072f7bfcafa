open Pnp_xkern
open Pnp_proto

let fddi_len = Fddi.header_bytes (* 21 *)
let ip_off = fddi_len
let tcp_off = fddi_len + Ip.header_bytes (* 41 *)
let headers_len = tcp_off + Tcp_wire.header_bytes

let is_tcp msg =
  Msg.length msg >= headers_len
  && Msg.get_u16 msg 19 = Ip.ethertype
  && Msg.get_u8 msg (ip_off + 9) = Tcp_wire.protocol_number

let tcp_dst msg = Msg.get_u32 msg (ip_off + 16)
let tcp_sport msg = Msg.get_u16 msg tcp_off
let tcp_dport msg = Msg.get_u16 msg (tcp_off + 2)
let tcp_seq msg = Msg.get_u32 msg (tcp_off + 4)
let tcp_ack msg = Msg.get_u32 msg (tcp_off + 8)
let tcp_flags msg = Tcp_wire.flags_of_int (Msg.get_u16 msg (tcp_off + 12))
let tcp_win msg = Msg.get_u32 msg (tcp_off + 14)
let tcp_payload_len msg = Msg.length msg - headers_len

let build_tcp pool ~src ~dst ~sport ~dport ~seq ~ack ~flags ~win ~payload ~checksum =
  let msg = match payload with Some m -> m | None -> Msg.create pool 0 in
  Tcp_wire.encode msg ~sport ~dport ~seq ~ack ~flags ~win;
  if checksum then Tcp_wire.store_checksum_free ~src ~dst msg
  else Msg.set_u16 msg 18 0;
  Ip.encap msg ~src ~dst ~proto:Tcp_wire.protocol_number ~id:0;
  Fddi.encap msg ~src_mac:src ~dst_mac:dst ~ethertype:Ip.ethertype;
  msg

let build_udp pool ~src ~dst ~sport ~dport ~payload ~checksum =
  ignore pool;
  Udp.encap_free payload ~src ~dst ~sport ~dport ~checksum;
  Ip.encap payload ~src ~dst ~proto:Udp.protocol_number ~id:0;
  Fddi.encap payload ~src_mac:src ~dst_mac:dst ~ethertype:Ip.ethertype;
  payload

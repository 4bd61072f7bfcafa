open Pnp_engine
open Pnp_xkern

type locking = One | Two | Six | Scr | Rcu

type config = {
  locking : locking;
  checksum : bool;
  cksum_under_lock : bool;
  assume_in_order : bool;
  ticketing : bool;
  nodelay : bool;
  mss : int;
  rcv_wnd : int;
  snd_buf : int;
  syn_backlog : int; (* max half-open children per listener; 0 = unbounded *)
  sb_policy : Sockbuf.policy; (* send-buffer overflow: block or shed *)
  scr_log_bound : int; (* SCR: packet-history log depth before truncation *)
}

let default_config =
  {
    locking = One;
    checksum = true;
    cksum_under_lock = false;
    assume_in_order = false;
    ticketing = false;
    nodelay = false;
    mss = 4096;
    rcv_wnd = 1 lsl 20;
    snd_buf = 1 lsl 20;
    syn_backlog = 128;
    sb_policy = Sockbuf.Block;
    scr_log_bound = 4096;
  }

type stats = {
  mutable segs_in : int;
  mutable segs_out : int;
  mutable acks_in : int;
  mutable acks_out : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable ooo_segs : int;
  mutable pred_hits : int;
  mutable pred_misses : int;
  mutable rexmits : int;
  mutable dup_acks : int;
  mutable reass_inserts : int;
  mutable persist_probes : int;
}

let fresh_stats () =
  {
    segs_in = 0;
    segs_out = 0;
    acks_in = 0;
    acks_out = 0;
    bytes_in = 0;
    bytes_out = 0;
    ooo_segs = 0;
    pred_hits = 0;
    pred_misses = 0;
    rexmits = 0;
    dup_acks = 0;
    reass_inserts = 0;
    persist_probes = 0;
  }

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

let state_to_string = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"

(* A segment built under connection locks, transmitted after they drop.
   [todo] is the checksum work left for [transmit]:
   - [Sum_and_fold]: the reference path — sum the segment and store the
     checksum (or zero the field when checksums are off), then charge the
     header fold;
   - [Fold_charge]: the coalesced pure-ACK path already stored the
     arithmetically computed checksum, but the simulated header-fold
     charge the reference path pays in [transmit] is still owed;
   - [Ck_done]: nothing left (Six computed it under the header-prepend
     lock, or checksums are off and the field is already zero). *)
type cksum_todo = Sum_and_fold | Fold_charge | Ck_done

type pending = { seg : Msg.t; todo : cksum_todo }

(* State-compute replication (SCR): instead of serializing threads on a
   connection-state lock, every arriving segment is appended to a
   per-session sequence-stamped packet-history log, and each thread's
   state replica catches up by replaying the log tail — redundant
   compute in place of lock waiting.  One entry per segment; the entry
   stores the state-delta inputs (header + payload) at append time and
   the measured apply cost plus deferred I/O once applied. *)
type scr_entry = {
  e_hdr : Tcp_wire.header;
  e_msg : Msg.t;
  mutable e_applied : bool;
  mutable e_cost : int; (* simulated ns the apply section consumed *)
  mutable e_out : pending list; (* segments the apply decided to send *)
  mutable e_deliveries : Msg.t list; (* payloads the apply made in-order *)
  mutable e_fin : bool; (* peer's FIN became in-order at this entry *)
}

type scr_log = {
  sl_name : string;
  sl_bound : int; (* ring capacity; history older than this truncates *)
  sl_ring : scr_entry option array; (* slot = idx mod sl_bound *)
  mutable sl_tail : int; (* next append index *)
  mutable sl_applied : int; (* entries [0, sl_applied) are applied *)
  mutable sl_trunc : int; (* entries below this were truncated away *)
  sl_marks : (int, int) Hashtbl.t; (* per-tid replica high watermark *)
  mutable sl_appends : int;
  mutable sl_replayed : int; (* redundant entries replicas replayed *)
  mutable sl_resyncs : int; (* replicas that fell behind a truncation *)
  mutable sl_truncations : int;
  mutable sl_max_depth : int; (* deepest live log observed *)
}

(* Read-mostly hybrid: mutating segments serialize on a writer lock that
   publishes an immutable snapshot of the reader-visible fields at each
   release; provably no-op segments are answered from the snapshot
   without taking the lock at all. *)
type rcu_snap = {
  r_state : state;
  r_snd_una : int;
  r_snd_max : int;
  r_snd_wnd : int;
  r_snd_nxt : int;
  r_rcv_nxt : int;
}

type rcu = {
  ru_wr : Lock.t;
  mutable ru_snap : rcu_snap;
  mutable ru_reads : int; (* segments answered without the writer lock *)
  mutable ru_publishes : int;
}

type locks =
  | L_one of Lock.t
  | L_two of { snd : Lock.t; rcv : Lock.t }
  | L_six of {
      reass : Lock.t;
      rexmt : Lock.t;
      hdr_prep : Lock.t;
      hdr_rem : Lock.t;
      snd_wnd : Lock.t;
      rcv_wnd : Lock.t;
    }
  | L_scr of scr_log
  | L_rcu of rcu

(* BSD timer scale: the slow timeout runs every 500 ms. *)
let slowtimo_ns = Pnp_util.Units.ms 500.0
let fasttimo_ns = Pnp_util.Units.ms 200.0
let rto_min_ns = Pnp_util.Units.ms 100.0
let rto_max_ns = Pnp_util.Units.sec 64.0
let msl_ticks = 60 (* 30 s at 500 ms ticks *)
let max_rxtshift = 12

type tcb = {
  mutable state : state;
  (* send sequence space *)
  mutable iss : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_max : int;
  mutable snd_wnd : int; (* peer's advertised window *)
  mutable snd_cwnd : int;
  mutable snd_ssthresh : int;
  sb : Sockbuf.t;
  mutable fin_queued : bool; (* close requested; FIN follows the buffered data *)
  mutable fin_sent : bool;
  (* receive sequence space *)
  mutable irs : int;
  mutable rcv_nxt : int;
  rcv_adv_wnd : int; (* what we advertise *)
  mutable reass : (int * Msg.t) list; (* (seq, payload), ascending *)
  mutable rcv_fin_seq : int option; (* sequence number of a queued FIN *)
  (* ack strategy *)
  mutable delack_pending : bool;
  (* timers, in 500 ms ticks; 0 = disarmed *)
  mutable t_rexmt : int;
  mutable t_persist : int;
  mutable t_2msl : int;
  mutable rxtshift : int;
  mutable persist_shift : int;
  (* rtt estimation (ns) *)
  mutable t_rtttime : int; (* 0 = no segment being timed *)
  mutable t_rtseq : int;
  mutable srtt : int;
  mutable rttvar : int;
  mutable rto : int;
  mutable dupacks : int;
  mutable open_waiter : (int -> unit) option; (* connect() blocked here *)
  mutable sb_waiters : (int -> unit) list; (* send() blocked on buffer space *)
  (* SYN backlog: on a listener, how many children sit in Syn_received;
     on a child, whether it currently occupies one of its listener's
     backlog slots. *)
  mutable syn_pending : int;
  mutable syn_counted : bool;
}

module Conn_key = struct
  type t = { lport : int; raddr : int; rport : int }

  let hash k = (k.lport * 40503) lxor (k.raddr * 2654435761) lxor (k.rport * 97)
  let equal a b = a.lport = b.lport && a.raddr = b.raddr && a.rport = b.rport
end

module Conn_map = Xmap.Make (Conn_key)

type t = {
  plat : Platform.t;
  pool : Mpool.t;
  wheel : Timewheel.t;
  ip : Ip.t;
  cfg : config;
  name : string;
  obj_ref : Atomic_ctr.t;
  iss_source : Atomic_ctr.t;
  conns : session Conn_map.t;
  create_lock : Lock.t;
  mutable all_sessions : session list;
  accepting : (session -> unit) Conn_map.t; (* listen ports, wildcard-keyed *)
  mutable timers_running : bool;
  mutable shutdown : bool;
  mutable cksum_failures : int; (* segments discarded by checksum verification *)
  mutable syn_backlog_drops : int; (* SYNs shed by a full listener backlog *)
}

and session = {
  proto : t;
  key : Conn_key.t;
  tcb : tcb;
  state_ns : string; (* namespace for shared-state access annotations *)
  locks : locks;
  gate : Gate.t;
  sess_ref : Atomic_ctr.t;
  mutable receiver : Msg.t -> unit;
  mutable on_fin : unit -> unit; (* upcall once the peer's FIN is in order *)
  st : stats;
}

(* Trace events from the protocol: packet-lifecycle spans keyed by the
   segment's sequence number (so a misordered segment's journey is
   visible end to end in the exported trace), shared-state accesses and
   the SCR/RCU synchronisation events.  Every site tests [tracing]
   before it builds the event record, so the untraced path costs one
   field read and allocates nothing. *)
let tracing plat =
  let sim = plat.Platform.sim in
  Trace.enabled (Sim.tracer sim) && Sim.in_thread sim

let emit plat ev =
  let sim = plat.Platform.sim in
  let th = Sim.self sim in
  Trace.emit (Sim.tracer sim) (* lint:allow trace-guard: callers test [tracing] *)
    ~ts:(Sim.now sim) ~tid:(Sim.tid th) ~cpu:(Sim.cpu th) ev

let span_begin plat ~seq phase =
  if tracing plat then emit plat (Trace.Span_begin { seq; phase })

let span_end plat ~seq phase =
  if tracing plat then emit plat (Trace.Span_end { seq; phase })

(* Shared-state access annotations for the Eraser-style lockset checker
   (Pnp_analysis.Lockset).  Each annotated site names the piece of
   per-connection state it touches ("<conn>#snd", "#rcv", "#reass",
   "#sb"); the checker intersects the locks held across all accesses of
   the same name and reports when the intersection goes empty. *)
let access sess ~write field =
  let plat = sess.proto.plat in
  if tracing plat then
    emit plat (Trace.Access { state = sess.state_ns ^ "#" ^ field; write })

(* ------------------------------------------------------------------ *)
(* Locking disciplines                                                 *)
(* ------------------------------------------------------------------ *)

let make_locks plat disc ~name ~scr_bound = function
  | One -> L_one (Lock.create plat.Platform.sim plat.Platform.arch disc ~name)
  | Two ->
    L_two
      {
        snd = Lock.create plat.Platform.sim plat.Platform.arch disc ~name:(name ^ ".snd");
        rcv = Lock.create plat.Platform.sim plat.Platform.arch disc ~name:(name ^ ".rcv");
      }
  | Six ->
    let mk suffix =
      Lock.create plat.Platform.sim plat.Platform.arch disc ~name:(name ^ suffix)
    in
    L_six
      {
        reass = mk ".reass";
        rexmt = mk ".rexmt";
        hdr_prep = mk ".hprep";
        hdr_rem = mk ".hrem";
        snd_wnd = mk ".swnd";
        rcv_wnd = mk ".rwnd";
      }
  | Scr ->
    L_scr
      {
        sl_name = name ^ ".log";
        sl_bound = scr_bound;
        sl_ring = Array.make scr_bound None;
        sl_tail = 0;
        sl_applied = 0;
        sl_trunc = 0;
        sl_marks = Hashtbl.create 8;
        sl_appends = 0;
        sl_replayed = 0;
        sl_resyncs = 0;
        sl_truncations = 0;
        sl_max_depth = 0;
      }
  | Rcu ->
    L_rcu
      {
        ru_wr =
          Lock.create plat.Platform.sim plat.Platform.arch disc ~name:(name ^ ".wr");
        ru_snap =
          {
            r_state = Closed;
            r_snd_una = 0;
            r_snd_max = 0;
            r_snd_wnd = 0;
            r_snd_nxt = 0;
            r_rcv_nxt = 0;
          };
        ru_reads = 0;
        ru_publishes = 0;
      }

let all_locks sess =
  match sess.locks with
  | L_one l -> [ l ]
  | L_two { snd; rcv } -> [ snd; rcv ]
  | L_six { reass; rexmt; hdr_prep; hdr_rem; snd_wnd; rcv_wnd } ->
    [ reass; rexmt; hdr_prep; hdr_rem; snd_wnd; rcv_wnd ]
  | L_scr _ -> []
  | L_rcu { ru_wr; _ } -> [ ru_wr ]

(* SCR/RCU synchronisation events for the analysis layer. *)
let sync_tracing sess = tracing sess.proto.plat
let sync_trace sess ev = emit sess.proto.plat ev

(* An SCR host-atomic section outside the log proper (output path,
   timers, send-buffer mutation): simulated charges accumulate while the
   section runs without a suspension point, and the accumulated cost is
   paid on this thread's clock once the section closes.  The index -1
   marks a section with no log entry; lockset analysis treats the span
   between [Scr_apply] and [Scr_apply_end] as a hold of the synthetic
   log lock either way. *)
let scr_section_begin sess log =
  if sync_tracing sess then
    sync_trace sess (Trace.Scr_apply { log = log.sl_name; idx = -1 });
  Sim.defer_begin sess.proto.plat.Platform.sim

let scr_section_end sess log =
  let cost = Sim.defer_end sess.proto.plat.Platform.sim in
  if sync_tracing sess then
    sync_trace sess (Trace.Scr_apply_end { log = log.sl_name; idx = -1 });
  Sim.delay sess.proto.plat.Platform.sim cost

(* RCU: publish a fresh immutable snapshot of the reader-visible fields.
   Called at every release point, while the writer lock is still held. *)
let rcu_publish sess r =
  let tcb = sess.tcb in
  r.ru_snap <-
    {
      r_state = tcb.state;
      r_snd_una = tcb.snd_una;
      r_snd_max = tcb.snd_max;
      r_snd_wnd = tcb.snd_wnd;
      r_snd_nxt = tcb.snd_nxt;
      r_rcv_nxt = tcb.rcv_nxt;
    };
  r.ru_publishes <- r.ru_publishes + 1;
  Costs.charge sess.proto.plat Costs.rcu_publish;
  if sync_tracing sess then sync_trace sess (Trace.Rcu_publish { state = sess.state_ns })

(* The lock(s) guarding the receive path's serialisation point.  Header
   prediction manipulates send-side state on the receive path (the Net/2
   structure), so Two and Six must take both window locks — exactly the
   redundancy Section 5.1 observes makes fine-grained locking lose. *)
let input_acquire sess =
  match sess.locks with
  | L_one l -> Lock.acquire l
  | L_two { snd; rcv } ->
    Lock.acquire snd;
    Lock.acquire rcv
  | L_six { snd_wnd; rcv_wnd; _ } ->
    Lock.acquire snd_wnd;
    Lock.acquire rcv_wnd
  | L_scr log -> scr_section_begin sess log
  | L_rcu r -> Lock.acquire r.ru_wr

let input_release sess =
  match sess.locks with
  | L_one l -> Lock.release l
  | L_two { snd; rcv } ->
    Lock.release rcv;
    Lock.release snd
  | L_six { snd_wnd; rcv_wnd; _ } ->
    Lock.release rcv_wnd;
    Lock.release snd_wnd
  | L_scr log -> scr_section_end sess log
  | L_rcu r ->
    rcu_publish sess r;
    Lock.release r.ru_wr

(* The lock(s) guarding the send path. *)
let output_acquire sess =
  match sess.locks with
  | L_one l -> Lock.acquire l
  | L_two { snd; _ } -> Lock.acquire snd
  | L_six { snd_wnd; _ } -> Lock.acquire snd_wnd
  | L_scr log -> scr_section_begin sess log
  | L_rcu r -> Lock.acquire r.ru_wr

let output_release sess =
  match sess.locks with
  | L_one l -> Lock.release l
  | L_two { snd; _ } -> Lock.release snd
  | L_six { snd_wnd; _ } -> Lock.release snd_wnd
  | L_scr log -> scr_section_end sess log
  | L_rcu r ->
    rcu_publish sess r;
    Lock.release r.ru_wr

(* Six-only scoped sections; no-ops for One/Two (already covered by the
   coarser lock). *)
let with_reass_lock sess f =
  match sess.locks with L_six { reass; _ } -> Lock.with_lock reass f | _ -> f ()

let with_rexmt_lock sess f =
  match sess.locks with L_six { rexmt; _ } -> Lock.with_lock rexmt f | _ -> f ()

(* Ack processing on the receive path touches send state; under every
   discipline the necessary locks are already held by input_acquire. *)
let with_send_state _sess f = f ()

let with_hdr_prep sess f =
  match sess.locks with L_six { hdr_prep; _ } -> Lock.with_lock hdr_prep f | _ -> f ()

let with_hdr_rem sess f =
  match sess.locks with L_six { hdr_rem; _ } -> Lock.with_lock hdr_rem f | _ -> f ()

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let fresh_tcb t =
  {
    state = Closed;
    iss = 0;
    snd_una = 0;
    snd_nxt = 0;
    snd_max = 0;
    snd_wnd = 0;
    snd_cwnd = t.cfg.mss;
    snd_ssthresh = 1 lsl 30;
    sb = Sockbuf.create ~policy:t.cfg.sb_policy t.pool ~max:t.cfg.snd_buf;
    fin_queued = false;
    fin_sent = false;
    irs = 0;
    rcv_nxt = 0;
    rcv_adv_wnd = t.cfg.rcv_wnd;
    reass = [];
    rcv_fin_seq = None;
    delack_pending = false;
    t_rexmt = 0;
    t_persist = 0;
    t_2msl = 0;
    rxtshift = 0;
    persist_shift = 0;
    t_rtttime = 0;
    t_rtseq = 0;
    srtt = 0;
    rttvar = 0;
    rto = Pnp_util.Units.sec 1.0;
    dupacks = 0;
    open_waiter = None;
    sb_waiters = [];
    syn_pending = 0;
    syn_counted = false;
  }

let fresh_session t key =
  let base =
    Printf.sprintf "%s.conn:%d-%x:%d" t.name key.Conn_key.lport key.Conn_key.raddr
      key.Conn_key.rport
  in
  {
    proto = t;
    key;
    tcb = fresh_tcb t;
    state_ns = base;
    locks =
      make_locks t.plat t.plat.Platform.lock_disc ~name:base
        ~scr_bound:t.cfg.scr_log_bound t.cfg.locking;
    gate = Gate.create t.plat.Platform.sim t.plat.Platform.arch ~name:"tcp.order";
    sess_ref = Platform.refcnt t.plat ~name:"tcp.sess" ~init:1;
    receiver = (fun msg -> Msg.destroy msg);
    on_fin = (fun () -> ());
    st = fresh_stats ();
  }

(* ------------------------------------------------------------------ *)
(* Segment emission                                                    *)
(* ------------------------------------------------------------------ *)

let advertised_window tcb = tcb.rcv_adv_wnd

(* Build a segment. Caller holds the locks its discipline requires for the
   snd-state it read; Six additionally wraps the header work (and, per the
   SICS code, the checksum) in the header-prepend lock. *)
let emit sess ~flags ~seq ~payload acc =
  let t = sess.proto in
  let tcb = sess.tcb in
  let hdr =
    {
      Tcp_wire.sport = sess.key.Conn_key.lport;
      dport = sess.key.Conn_key.rport;
      seq;
      ack = tcb.rcv_nxt;
      flags;
      win = advertised_window tcb;
      cksum = 0;
    }
  in
  match payload with
  | None when Mpool.sum_cache_enabled () ->
    (* Coalesced header-only emission (gated with the rest of the
       coalescing fast paths by PNP_NO_COALESCE): redundant pure ACKs all
       rebuild the same 24-byte shape, so build it in one pass with an
       arithmetic checksum instead of encode-then-rescan.  Wire bytes,
       stats, and every simulated charge are identical to the reference
       path below — the checksum charge is placed exactly where that path
       computed it. *)
    let msg = Msg.create t.pool 0 in
    let under_lock =
      t.cfg.checksum
      &&
      match sess.locks with
      | L_six _ -> true
      | L_one _ | L_two _ | L_rcu _ -> t.cfg.cksum_under_lock
      | L_scr _ -> false
    in
    with_hdr_prep sess (fun () ->
        Tcp_wire.encode_empty msg hdr ~src:(Ip.local_addr t.ip)
          ~dst:sess.key.Conn_key.raddr ~checksum:t.cfg.checksum;
        if under_lock then Inet_cksum.charge t.plat msg);
    sess.st.segs_out <- sess.st.segs_out + 1;
    if not flags.Tcp_wire.syn then sess.st.acks_out <- sess.st.acks_out + 1;
    let todo =
      if t.cfg.checksum && not under_lock then Fold_charge else Ck_done
    in
    { seg = msg; todo } :: acc
  | _ ->
    let msg = match payload with Some m -> m | None -> Msg.create t.pool 0 in
    let cksummed = ref false in
    with_hdr_prep sess (fun () ->
        Tcp_wire.encode msg hdr;
        match sess.locks with
        | L_six _ when t.cfg.checksum ->
          (* SICS-style: checksum while the header lock is held. *)
          Tcp_wire.store_checksum t.plat ~src:(Ip.local_addr t.ip)
            ~dst:sess.key.Conn_key.raddr msg;
          cksummed := true
        | (L_one _ | L_two _ | L_rcu _) when t.cfg.checksum && t.cfg.cksum_under_lock ->
          (* Ablation: the unrestructured placement, checksum inside the
             connection-state lock the caller holds. *)
          Tcp_wire.store_checksum t.plat ~src:(Ip.local_addr t.ip)
            ~dst:sess.key.Conn_key.raddr msg;
          cksummed := true
        | _ -> ());
    sess.st.segs_out <- sess.st.segs_out + 1;
    if Msg.length msg = Tcp_wire.header_bytes && not flags.Tcp_wire.syn then
      sess.st.acks_out <- sess.st.acks_out + 1;
    { seg = msg; todo = (if !cksummed then Ck_done else Sum_and_fold) } :: acc

let emit_ack sess acc =
  let tcb = sess.tcb in
  Costs.charge sess.proto.plat Costs.tcp_ack_locked;
  tcb.delack_pending <- false;
  emit sess ~flags:Tcp_wire.flag_ack ~seq:tcb.snd_nxt ~payload:None acc

(* Transmit segments built under the locks.  For One/Two the payload
   checksum pass was charged before the lock was taken (the Section 5.1
   restructuring: data is summed outside any connection-state lock and the
   header folded in incrementally here), so only the header fold is
   charged now. *)
let transmit sess pendings =
  let t = sess.proto in
  List.iter
    (fun p ->
      (match p.todo with
       | Sum_and_fold when t.cfg.checksum ->
         Tcp_wire.store_checksum_free ~src:(Ip.local_addr t.ip)
           ~dst:sess.key.Conn_key.raddr p.seg;
         Costs.charge t.plat 40 (* fold the header into the data sum *)
       | Sum_and_fold ->
         (* Zero checksum field: receivers skip verification too. *)
         Msg.set_u16 p.seg 18 0
       | Fold_charge ->
         (* Checksum already stored arithmetically; the simulated fold
            cost the reference path charges here is still due. *)
         Costs.charge t.plat 40
       | Ck_done -> ());
      Costs.charge t.plat Costs.tcp_output_unlocked;
      Ip.output t.ip ~proto:Tcp_wire.protocol_number ~dst:sess.key.Conn_key.raddr p.seg)
    (List.rev pendings)


let set_rexmt_timer tcb =
  (* BSD floors the retransmit timer at 2 ticks: with one tick a restart
     just before a slow-timeout boundary would fire spuriously while acks
     are still flowing. *)
  let ticks = (tcb.rto + slowtimo_ns - 1) / slowtimo_ns in
  let ticks = max 2 ticks in
  tcb.t_rexmt <- ticks lsl min tcb.rxtshift 6

(* Build at most ONE new segment (or the FIN).  Caller holds the
   send-state lock(s); Six takes rexmt/header locks inside.  One segment
   per lock hold is the BSD tcp_output structure, and it is what keeps
   send-side wire order: sequence numbers are assigned at least a locked
   section apart, which exceeds the post-lock flight time to the driver
   (Section 4.1 measures <1% send-side misordering). *)
let build_one sess =
  let t = sess.proto in
  let tcb = sess.tcb in
  access sess ~write:false "snd";
  let in_flight = Tcp_seq.diff tcb.snd_nxt tcb.snd_una in
  let wnd = min tcb.snd_wnd tcb.snd_cwnd in
  let off = in_flight in
  let unsent = Sockbuf.cc tcb.sb - off in
  let len = min t.cfg.mss (min unsent (wnd - in_flight)) in
  (* Nagle (RFC 896, as in Net/2): hold a small segment while earlier data
     is unacknowledged, unless it is all we will ever have (FIN queued) or
     the window itself is what made it small. *)
  let nagle_holds =
    (not t.cfg.nodelay) && len > 0 && len < t.cfg.mss && in_flight > 0
    && unsent <= len && not tcb.fin_queued
  in
  if len > 0 && not nagle_holds then begin
    Costs.charge t.plat Costs.tcp_output_locked;
    access sess ~write:true "snd";
    let payload =
      with_rexmt_lock sess (fun () ->
          access sess ~write:false "sb";
          Sockbuf.peek tcb.sb ~off ~len)
    in
    let seq = tcb.snd_nxt in
    tcb.snd_nxt <- Tcp_seq.add tcb.snd_nxt len;
    tcb.snd_max <- Tcp_seq.max tcb.snd_max tcb.snd_nxt;
    (* Time one segment per window for RTT estimation. *)
    if tcb.t_rtttime = 0 then begin
      tcb.t_rtttime <- Sim.now t.plat.Platform.sim;
      tcb.t_rtseq <- seq
    end;
    if tcb.t_rexmt = 0 then set_rexmt_timer tcb;
    tcb.delack_pending <- false;
    emit sess ~flags:Tcp_wire.flag_ack ~seq ~payload:(Some payload) []
  end
  else if
    unsent > 0 && wnd - in_flight <= 0 && in_flight = 0
    && tcb.t_rexmt = 0 && tcb.t_persist = 0
  then begin
    (* Zero window with nothing in flight: nothing will ever ack; arm the
       persist timer so we probe the window (BSD tcp_setpersist). *)
    let ticks = max 2 ((tcb.rto + slowtimo_ns - 1) / slowtimo_ns) in
    tcb.t_persist <- ticks lsl min tcb.persist_shift 6;
    []
  end
  else if tcb.fin_queued && (not tcb.fin_sent) && unsent <= 0 then begin
    Costs.charge t.plat Costs.tcp_conn_setup;
    access sess ~write:true "snd";
    let seq = tcb.snd_nxt in
    tcb.snd_nxt <- Tcp_seq.add tcb.snd_nxt 1;
    tcb.snd_max <- Tcp_seq.max tcb.snd_max tcb.snd_nxt;
    tcb.fin_sent <- true;
    if tcb.t_rexmt = 0 then set_rexmt_timer tcb;
    emit sess ~flags:Tcp_wire.flag_fin_ack ~seq ~payload:None []
  end
  else []

(* Drain permitted data: one segment per lock hold (see build_one). *)
let rec pump sess =
  output_acquire sess;
  let segs = build_one sess in
  output_release sess;
  match segs with
  | [] -> ()
  | _ ->
    transmit sess segs;
    pump sess

(* ------------------------------------------------------------------ *)
(* Input processing                                                    *)
(* ------------------------------------------------------------------ *)

let wake_sb_waiters sess =
  let tcb = sess.tcb in
  let ws = tcb.sb_waiters in
  tcb.sb_waiters <- [];
  let now = Sim.now sess.proto.plat.Platform.sim in
  List.iter (fun resume -> resume now) ws

let update_rtt tcb ~now =
  let delta = now - tcb.t_rtttime in
  tcb.t_rtttime <- 0;
  if tcb.srtt = 0 then begin
    tcb.srtt <- delta;
    tcb.rttvar <- delta / 2
  end
  else begin
    let err = delta - tcb.srtt in
    tcb.srtt <- tcb.srtt + (err / 8);
    tcb.rttvar <- tcb.rttvar + ((abs err - tcb.rttvar) / 4)
  end;
  tcb.rto <- min rto_max_ns (max rto_min_ns (tcb.srtt + (4 * tcb.rttvar)));
  tcb.rxtshift <- 0

(* Process an acceptable ack: drop acknowledged bytes, advance windows,
   grow the congestion window.  Caller holds send-state locks. *)
let process_ack sess ~ack ~now acc =
  let tcb = sess.tcb in
  let t = sess.proto in
  let acked = Tcp_seq.diff ack tcb.snd_una in
  if acked <= 0 then acc
  else begin
    access sess ~write:true "snd";
    if tcb.t_rtttime <> 0 && Tcp_seq.gt ack tcb.t_rtseq then update_rtt tcb ~now;
    (* Congestion window growth (Tahoe). *)
    let incr_ =
      if tcb.snd_cwnd <= tcb.snd_ssthresh then t.cfg.mss
      else max 1 (t.cfg.mss * t.cfg.mss / tcb.snd_cwnd)
    in
    tcb.snd_cwnd <- min (tcb.snd_cwnd + incr_) (1 lsl 30);
    let fin_acked =
      tcb.fin_sent && Tcp_seq.geq ack tcb.snd_max
      && Tcp_seq.diff tcb.snd_max tcb.snd_una = Sockbuf.cc tcb.sb + 1
    in
    let data_acked = min acked (Sockbuf.cc tcb.sb) in
    with_rexmt_lock sess (fun () ->
        if data_acked > 0 then begin
          access sess ~write:true "sb";
          Sockbuf.drop tcb.sb data_acked
        end);
    tcb.snd_una <- ack;
    if Tcp_seq.lt tcb.snd_nxt tcb.snd_una then tcb.snd_nxt <- tcb.snd_una;
    tcb.dupacks <- 0;
    (* Restart or stop the retransmission timer. *)
    if Tcp_seq.geq tcb.snd_una tcb.snd_max then tcb.t_rexmt <- 0 else set_rexmt_timer tcb;
    wake_sb_waiters sess;
    (* FIN-related state advances. *)
    (match tcb.state with
     | Fin_wait_1 when fin_acked -> tcb.state <- Fin_wait_2
     | Closing when fin_acked ->
       tcb.state <- Time_wait;
       tcb.t_2msl <- msl_ticks
     | Last_ack when fin_acked -> tcb.state <- Closed
     | _ -> ());
    acc
  end

(* Retransmit one segment from the front of the window (timeout or fast
   retransmit).  Caller holds send-state locks.  In the opening states the
   front of the window is the SYN (or SYN-ACK) itself: re-emitting it is
   what keeps handshakes live across a lossy link or a backlog drop —
   without it a single lost SYN wedges the connect forever. *)
let retransmit sess acc =
  let t = sess.proto in
  let tcb = sess.tcb in
  sess.st.rexmits <- sess.st.rexmits + 1;
  Costs.charge t.plat Costs.tcp_output_locked;
  access sess ~write:true "snd";
  match tcb.state with
  | Syn_sent ->
    (* The caller rewound snd_nxt to snd_una (= iss); the re-emitted SYN
       occupies that sequence slot again. *)
    tcb.snd_nxt <- Tcp_seq.max tcb.snd_nxt (Tcp_seq.add tcb.iss 1);
    emit sess ~flags:Tcp_wire.flag_syn ~seq:tcb.iss ~payload:None acc
  | Syn_received ->
    tcb.snd_nxt <- Tcp_seq.max tcb.snd_nxt (Tcp_seq.add tcb.iss 1);
    emit sess ~flags:Tcp_wire.flag_syn_ack ~seq:tcb.iss ~payload:None acc
  | _ ->
    let len = min t.cfg.mss (Sockbuf.cc tcb.sb) in
    tcb.snd_nxt <- Tcp_seq.max tcb.snd_nxt (Tcp_seq.add tcb.snd_una len);
    if len > 0 then begin
      let payload =
        with_rexmt_lock sess (fun () ->
            access sess ~write:false "sb";
            Sockbuf.peek tcb.sb ~off:0 ~len)
      in
      emit sess ~flags:Tcp_wire.flag_ack ~seq:tcb.snd_una ~payload:(Some payload) acc
    end
    else if tcb.fin_sent then
      emit sess ~flags:Tcp_wire.flag_fin_ack ~seq:tcb.snd_una ~payload:None acc
    else acc

(* Insert an out-of-order segment into the reassembly queue (no overlap
   merging: overlapping duplicates were trimmed by the caller, and our
   peers never send overlapping runs). *)
let reass_insert sess seq msg =
  let tcb = sess.tcb in
  sess.st.reass_inserts <- sess.st.reass_inserts + 1;
  Costs.charge sess.proto.plat Costs.tcp_reass_insert;
  with_reass_lock sess (fun () ->
      access sess ~write:true "reass";
      let rec ins = function
        | [] -> [ (seq, msg) ]
        | (s, m) :: rest as all ->
          if Tcp_seq.lt seq s then (seq, msg) :: all
          else if seq = s then begin
            (* exact duplicate *)
            Msg.destroy msg;
            all
          end
          else (s, m) :: ins rest
      in
      tcb.reass <- ins tcb.reass)

(* Drain now-contiguous segments from the reassembly queue. *)
let reass_drain sess deliveries =
  let tcb = sess.tcb in
  (* lint:allow state-matrix: caller-locked — reached only from slow_path,
     under segment_arrives' input locks (and, for discipline six, the
     reass lock it acquires up front). *)
  if tcb.reass <> [] then access sess ~write:true "reass";
  let rec go acc =
    match tcb.reass with
    | (s, m) :: rest when s = tcb.rcv_nxt ->
      Costs.charge sess.proto.plat Costs.tcp_reass_drain_per_seg;
      tcb.reass <- rest;
      tcb.rcv_nxt <- Tcp_seq.add tcb.rcv_nxt (Msg.length m);
      go (m :: acc)
    | (s, m) :: rest when Tcp_seq.lt s tcb.rcv_nxt ->
      (* stale duplicate that got queued *)
      Msg.destroy m;
      tcb.reass <- rest;
      go acc
    | _ -> List.rev acc
  in
  let msgs = go [] in
  List.fold_left
    (fun dels m ->
      sess.st.bytes_in <- sess.st.bytes_in + Msg.length m;
      m :: dels)
    deliveries msgs

(* Deliver one in-order payload (fast path). *)
let deliver_in_order sess msg deliveries =
  sess.st.bytes_in <- sess.st.bytes_in + Msg.length msg;
  msg :: deliveries

(* The full (slow-path) segment processing for an established-ish state.
   Returns (to_send, deliveries) accumulated. *)
let slow_path sess (hdr : Tcp_wire.header) msg ~now acc deliveries =
  let t = sess.proto in
  let tcb = sess.tcb in
  Costs.charge t.plat Costs.tcp_input_slow_locked;
  sess.st.pred_misses <- sess.st.pred_misses + 1;
  let acc = ref acc and deliveries = ref deliveries in
  let seq = ref hdr.seq in
  let ack_now = ref false in
  (* Trim data we already received. *)
  let overlap = Tcp_seq.diff tcb.rcv_nxt !seq in
  if overlap > 0 then begin
    let len = Msg.length msg in
    if overlap >= len && not hdr.flags.Tcp_wire.syn then begin
      (* complete duplicate: ack it again *)
      Msg.truncate msg 0;
      ack_now := true;
      seq := tcb.rcv_nxt
    end
    else if overlap <= len then begin
      Msg.pop msg (min overlap len);
      seq := tcb.rcv_nxt
    end
  end;
  (* Window update. *)
  if hdr.flags.Tcp_wire.ack then begin
    access sess ~write:true "snd";
    tcb.snd_wnd <- hdr.win;
    if hdr.win > 0 then begin
      tcb.t_persist <- 0;
      tcb.persist_shift <- 0
    end;
    (* Ack processing (may include duplicate-ack fast retransmit). *)
    with_send_state sess (fun () ->
        if Tcp_seq.gt hdr.ack tcb.snd_una && Tcp_seq.leq hdr.ack tcb.snd_max then
          acc := process_ack sess ~ack:hdr.ack ~now !acc
        else if
          Msg.length msg = 0 && hdr.ack = tcb.snd_una
          && Tcp_seq.gt tcb.snd_max tcb.snd_una
        then begin
          sess.st.dup_acks <- sess.st.dup_acks + 1;
          tcb.dupacks <- tcb.dupacks + 1;
          if tcb.dupacks = 3 then begin
            (* Tahoe fast retransmit *)
            let flight = min tcb.snd_wnd tcb.snd_cwnd in
            tcb.snd_ssthresh <- max (2 * t.cfg.mss) (flight / 2);
            tcb.snd_cwnd <- t.cfg.mss;
            tcb.snd_nxt <- tcb.snd_una;
            acc := retransmit sess !acc
          end
        end)
  end;
  (* Data. *)
  let len = Msg.length msg in
  if len > 0 then begin
    if !seq = tcb.rcv_nxt then begin
      access sess ~write:true "rcv";
      tcb.rcv_nxt <- Tcp_seq.add tcb.rcv_nxt len;
      deliveries := deliver_in_order sess msg !deliveries;
      deliveries := reass_drain sess !deliveries;
      if tcb.delack_pending then ack_now := true else tcb.delack_pending <- true
    end
    else begin
      (* Out of order: queue it and ack immediately (duplicate ack). *)
      reass_insert sess !seq msg;
      ack_now := true
    end
  end
  else if len = 0 && not (hdr.flags.Tcp_wire.fin || hdr.flags.Tcp_wire.syn) then
    Msg.destroy msg;
  (* FIN handling. *)
  if hdr.flags.Tcp_wire.fin then begin
    let fin_seq = Tcp_seq.add !seq len in
    if fin_seq = tcb.rcv_nxt then begin
      access sess ~write:true "rcv";
      tcb.rcv_nxt <- Tcp_seq.add tcb.rcv_nxt 1;
      ack_now := true;
      if len = 0 then Msg.destroy msg;
      (match tcb.state with
       | Established -> tcb.state <- Close_wait
       | Fin_wait_1 ->
         (* our FIN not yet acked: simultaneous close *)
         tcb.state <- Closing
       | Fin_wait_2 ->
         tcb.state <- Time_wait;
         tcb.t_2msl <- msl_ticks
       | _ -> ())
    end
    else begin
      tcb.rcv_fin_seq <- Some fin_seq;
      if len = 0 then Msg.destroy msg;
      ack_now := true
    end
  end;
  (* A queued FIN may have become in-order after reassembly drain. *)
  (match tcb.rcv_fin_seq with
   | Some fs when fs = tcb.rcv_nxt ->
     tcb.rcv_fin_seq <- None;
     tcb.rcv_nxt <- Tcp_seq.add tcb.rcv_nxt 1;
     ack_now := true;
     (match tcb.state with
      | Established -> tcb.state <- Close_wait
      | Fin_wait_1 -> tcb.state <- Closing
      | Fin_wait_2 ->
        tcb.state <- Time_wait;
        tcb.t_2msl <- msl_ticks
      | _ -> ())
   | _ -> ());
  (* New data permitted by the ack is sent by the caller (pump) after the
     input locks drop; here only emit an explicit ack if required. *)
  if !ack_now then acc := emit_ack sess !acc;
  (!acc, !deliveries)

(* Header prediction, Net/2 style (Section 4.1 depends on this fast path
   being order-sensitive). *)
let established_input sess (hdr : Tcp_wire.header) msg ~now acc deliveries =
  let t = sess.proto in
  let tcb = sess.tcb in
  let len = Msg.length msg in
  (* The Figure 10 "assumed in-order" upper bound: pretend every data
     segment landed exactly on rcv_nxt. *)
  let hdr =
    if t.cfg.assume_in_order && len > 0 && hdr.flags.Tcp_wire.ack && not hdr.flags.Tcp_wire.fin
    then { hdr with Tcp_wire.seq = tcb.rcv_nxt; ack = tcb.snd_una }
    else hdr
  in
  if len > 0 && hdr.seq <> tcb.rcv_nxt then
    sess.st.ooo_segs <- sess.st.ooo_segs + 1;
  let f = hdr.flags in
  if f.Tcp_wire.rst then begin
    (* A reset tears the connection down immediately (no challenge-ack
       subtleties; the simulated network cannot spoof). *)
    tcb.state <- Closed;
    tcb.t_rexmt <- 0;
    tcb.t_persist <- 0;
    Msg.destroy msg;
    (acc, deliveries)
  end
  else
  let predictable =
    tcb.state = Established && f.Tcp_wire.ack
    && (not (f.Tcp_wire.syn || f.Tcp_wire.fin || f.Tcp_wire.rst))
    && hdr.win = tcb.snd_wnd
    && tcb.snd_nxt = tcb.snd_max
    && hdr.seq = tcb.rcv_nxt
  in
  if predictable && len = 0 && Tcp_seq.gt hdr.ack tcb.snd_una
     && Tcp_seq.leq hdr.ack tcb.snd_max
     && tcb.snd_cwnd >= tcb.snd_wnd
  then begin
    (* Fast path 1: pure ack advancing snd_una. *)
    Costs.charge t.plat Costs.tcp_input_pred_locked;
    sess.st.pred_hits <- sess.st.pred_hits + 1;
    Msg.destroy msg;
    let acc = with_send_state sess (fun () -> process_ack sess ~ack:hdr.ack ~now acc) in
    (acc, deliveries)
  end
  else if predictable && len > 0 && hdr.ack = tcb.snd_una && tcb.reass = [] then begin
    (* Fast path 2: pure in-order data. *)
    Costs.charge t.plat Costs.tcp_input_pred_locked;
    sess.st.pred_hits <- sess.st.pred_hits + 1;
    access sess ~write:true "rcv";
    tcb.rcv_nxt <- Tcp_seq.add tcb.rcv_nxt len;
    let deliveries = deliver_in_order sess msg deliveries in
    (* Net/2 acks every other segment: the first leaves a delayed ack
       pending, the second forces it out. *)
    let acc =
      if tcb.delack_pending then emit_ack sess acc
      else begin
        tcb.delack_pending <- true;
        acc
      end
    in
    (acc, deliveries)
  end
  else slow_path sess hdr msg ~now acc deliveries

(* A child leaving Syn_received gives its listener's backlog slot back.
   The listener is found through the wildcard demux entry; if it closed
   meanwhile there is no backlog left to credit. *)
let release_syn_slot sess =
  let t = sess.proto in
  let tcb = sess.tcb in
  if tcb.syn_counted then begin
    tcb.syn_counted <- false;
    let lkey = { Conn_key.lport = sess.key.Conn_key.lport; raddr = 0; rport = 0 } in
    match Conn_map.lookup t.conns lkey with
    | Some l when l.tcb.state = Listen -> l.tcb.syn_pending <- l.tcb.syn_pending - 1
    | _ -> ()
  end

(* Non-established states: the connection machinery. *)
let opening_input sess (hdr : Tcp_wire.header) msg ~now acc deliveries =
  let t = sess.proto in
  let tcb = sess.tcb in
  Costs.charge t.plat Costs.tcp_conn_setup;
  let f = hdr.flags in
  match tcb.state with
  | Syn_sent when f.Tcp_wire.syn && f.Tcp_wire.ack && hdr.ack = Tcp_seq.add tcb.iss 1 ->
    tcb.irs <- hdr.seq;
    tcb.rcv_nxt <- Tcp_seq.add hdr.seq 1;
    tcb.snd_una <- hdr.ack;
    tcb.snd_wnd <- hdr.win;
    tcb.state <- Established;
    tcb.t_rexmt <- 0;
    Msg.destroy msg;
    (match tcb.open_waiter with
     | Some resume ->
       tcb.open_waiter <- None;
       (* Resume at the current instant, not the segment's arrival time:
          input processing has consumed simulated time since then. *)
       resume (Sim.now t.plat.Platform.sim)
     | None -> ());
    (emit_ack sess acc, deliveries)
  | Syn_received when f.Tcp_wire.ack && hdr.ack = Tcp_seq.add tcb.iss 1 ->
    tcb.snd_una <- hdr.ack;
    tcb.snd_wnd <- hdr.win;
    tcb.state <- Established;
    tcb.t_rexmt <- 0;
    release_syn_slot sess;
    if Msg.length msg > 0 then
      (* data arrived with the handshake ack *)
      established_input sess { hdr with Tcp_wire.flags = Tcp_wire.flag_ack } msg ~now acc
        deliveries
    else begin
      Msg.destroy msg;
      (acc, deliveries)
    end
  | Time_wait when f.Tcp_wire.fin ->
    (* peer retransmitted its FIN: re-ack *)
    Msg.destroy msg;
    (emit_ack sess acc, deliveries)
  | _ when f.Tcp_wire.rst ->
    tcb.state <- Closed;
    release_syn_slot sess;
    Msg.destroy msg;
    (acc, deliveries)
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
    established_input sess hdr msg ~now acc deliveries
  | _ ->
    (* Drop everything else. *)
    Msg.destroy msg;
    (acc, deliveries)

(* ------------------------------------------------------------------ *)
(* State-compute replication (SCR) input path                          *)
(* ------------------------------------------------------------------ *)

let scr_entry_at log idx =
  match log.sl_ring.(idx mod log.sl_bound) with
  | Some e -> e
  | None -> invalid_arg "Tcp: SCR log entry missing"

(* Append one segment to the packet-history log.  The append itself is
   host-atomic (stamp + store, no suspension point), so log order is the
   arrival order of append operations. *)
let scr_append_entry sess log hdr msg =
  let idx = log.sl_tail in
  log.sl_ring.(idx mod log.sl_bound) <-
    Some
      {
        e_hdr = hdr;
        e_msg = msg;
        e_applied = false;
        e_cost = 0;
        e_out = [];
        e_deliveries = [];
        e_fin = false;
      };
  log.sl_tail <- idx + 1;
  log.sl_appends <- log.sl_appends + 1;
  let depth = log.sl_tail - log.sl_trunc in
  if depth > log.sl_max_depth then log.sl_max_depth <- depth;
  if sync_tracing sess then sync_trace sess (Trace.Scr_append { log = log.sl_name; idx });
  (* Bounded log: retire the history the ring is about to overwrite.
     Entries apply in the same host event burst as their append, so
     sl_applied trails sl_tail by at most one and truncation can never
     discard an unapplied entry. *)
  if log.sl_tail - log.sl_trunc > log.sl_bound then begin
    log.sl_trunc <- log.sl_tail - log.sl_bound;
    log.sl_truncations <- log.sl_truncations + 1
  end;
  idx

(* Apply one log entry to the authoritative connection state as a
   host-atomic section: simulated charges are deferred into the entry,
   and the I/O the apply decided on (segments, deliveries, FIN verdict)
   is stored for the entry's owner to perform on its own clock. *)
let scr_apply_entry sess log idx =
  let e = scr_entry_at log idx in
  if not e.e_applied then begin
    e.e_applied <- true;
    if sync_tracing sess then
      sync_trace sess (Trace.Scr_apply { log = log.sl_name; idx });
    let sim = sess.proto.plat.Platform.sim in
    let now = Sim.now sim in
    Sim.defer_begin sim;
    let acc, deliveries =
      match sess.tcb.state with
      | Established -> established_input sess e.e_hdr e.e_msg ~now [] []
      | _ -> opening_input sess e.e_hdr e.e_msg ~now [] []
    in
    e.e_out <- acc;
    e.e_deliveries <- deliveries;
    e.e_fin <-
      (match sess.tcb.state with
       | Close_wait | Closing | Last_ack | Time_wait -> true
       | Closed -> e.e_hdr.Tcp_wire.flags.Tcp_wire.fin
       | _ -> false);
    e.e_cost <- Sim.defer_end sim;
    if sync_tracing sess then
      sync_trace sess (Trace.Scr_apply_end { log = log.sl_name; idx });
    log.sl_applied <- idx + 1
  end

(* The SCR receive path.  No connection-state lock exists: the segment
   is appended to the log, unapplied entries are applied in log order
   (usually just our own; a thread that overtook us during the append
   tax may already have applied it), this thread's replica pays the
   redundant-replay tax for entries other threads appended since its
   last packet, and finally the entry's stored cost and I/O land on the
   owner's clock.  With K threads, per-packet work is F + (K-1)*r
   instead of a serialized F hold — the log-replay trade the paper's
   lock ladder never reaches. *)
let scr_segment_arrives sess log (hdr : Tcp_wire.header) msg =
  let t = sess.proto in
  let sim = t.plat.Platform.sim in
  let tid = if Sim.in_thread sim then Sim.tid (Sim.self sim) else -1 in
  let idx = scr_append_entry sess log hdr msg in
  Costs.charge t.plat Costs.scr_append;
  while log.sl_applied < log.sl_tail do
    scr_apply_entry sess log log.sl_applied
  done;
  let mark =
    match Hashtbl.find_opt log.sl_marks tid with
    | Some m when m >= log.sl_trunc -> m
    | Some _ ->
      (* Fell behind a truncation: resynchronise from the authoritative
         snapshot, then replay what the bounded log still holds. *)
      log.sl_resyncs <- log.sl_resyncs + 1;
      Costs.charge t.plat Costs.scr_resync;
      log.sl_trunc
    | None ->
      (* Replica bootstrap: join at the current position from the
         snapshot rather than replaying the whole surviving log. *)
      log.sl_resyncs <- log.sl_resyncs + 1;
      Costs.charge t.plat Costs.scr_resync;
      idx
  in
  let gap = idx - mark in
  if gap > 0 then begin
    log.sl_replayed <- log.sl_replayed + gap;
    Costs.charge t.plat (Costs.scr_replay_per_entry * gap);
    if sync_tracing sess then
      sync_trace sess (Trace.Scr_replay { log = log.sl_name; upto = idx })
  end;
  Hashtbl.replace log.sl_marks tid (idx + 1);
  (* Our own entry: pay its measured processing cost on this thread's
     clock, then perform the I/O the apply deferred. *)
  let e = scr_entry_at log idx in
  span_begin t.plat ~seq:hdr.seq Trace.Tcp_input;
  Sim.delay sim e.e_cost;
  span_end t.plat ~seq:hdr.seq Trace.Tcp_input;
  let out = e.e_out in
  e.e_out <- [];
  transmit sess out;
  pump sess;
  let deliveries = e.e_deliveries in
  e.e_deliveries <- [];
  span_begin t.plat ~seq:hdr.seq Trace.Upcall;
  List.iter (fun m -> sess.receiver m) (List.rev deliveries);
  span_end t.plat ~seq:hdr.seq Trace.Upcall;
  if e.e_fin then sess.on_fin ()

(* ------------------------------------------------------------------ *)
(* RCU read path                                                       *)
(* ------------------------------------------------------------------ *)

(* Answer a fully duplicate data segment with an ack built purely from
   the published snapshot — no connection state is read or written. *)
let rcu_emit_dup_ack sess snap =
  let t = sess.proto in
  Costs.charge t.plat Costs.tcp_ack_locked;
  let hdr =
    {
      Tcp_wire.sport = sess.key.Conn_key.lport;
      dport = sess.key.Conn_key.rport;
      seq = snap.r_snd_nxt;
      ack = snap.r_rcv_nxt;
      flags = Tcp_wire.flag_ack;
      win = sess.tcb.rcv_adv_wnd; (* immutable after creation *)
      cksum = 0;
    }
  in
  let msg = Msg.create t.pool 0 in
  Tcp_wire.encode msg hdr;
  sess.st.segs_out <- sess.st.segs_out + 1;
  sess.st.acks_out <- sess.st.acks_out + 1;
  transmit sess [ { seg = msg; todo = Sum_and_fold } ]

(* The lock-free read path: process a segment without the writer lock
   when the snapshot proves it cannot change connection state.  Two
   provably no-op shapes qualify, both requiring an Established
   snapshot, a plain ack (no syn/fin/rst), an unchanged window, nothing
   in flight (snd_max = snd_una) and an old ack (ack <= snd_una):
   - a pure stale ack (no payload) is dropped — the slow path would
     neither mutate state nor emit anything for it;
   - fully duplicate data (seq+len <= rcv_nxt) is dropped and re-acked
     from the snapshot — the slow path would trim it to nothing and
     emit the same ack.
   Readers touch no tcb field the writer mutates, so they emit no
   Access annotations; the snapshot swap is the synchronisation. *)
let rcu_try_read sess r (hdr : Tcp_wire.header) msg =
  let t = sess.proto in
  if t.cfg.checksum && t.cfg.cksum_under_lock then false
  else begin
    let snap = r.ru_snap in
    let f = hdr.Tcp_wire.flags in
    let len = Msg.length msg in
    if
      snap.r_state = Established
      && f.Tcp_wire.ack
      && (not (f.Tcp_wire.syn || f.Tcp_wire.fin || f.Tcp_wire.rst))
      && hdr.win = snap.r_snd_wnd
      && snap.r_snd_max = snap.r_snd_una
      && Tcp_seq.leq hdr.ack snap.r_snd_una
    then
      if len = 0 then begin
        r.ru_reads <- r.ru_reads + 1;
        Costs.charge t.plat Costs.rcu_read;
        if sync_tracing sess then
          sync_trace sess (Trace.Rcu_read { state = sess.state_ns });
        Msg.destroy msg;
        true
      end
      else if Tcp_seq.leq (Tcp_seq.add hdr.seq len) snap.r_rcv_nxt then begin
        r.ru_reads <- r.ru_reads + 1;
        Costs.charge t.plat Costs.rcu_read;
        if sync_tracing sess then
          sync_trace sess (Trace.Rcu_read { state = sess.state_ns });
        Msg.destroy msg;
        rcu_emit_dup_ack sess snap;
        true
      end
      else false
    else false
  end

let segment_arrives sess (hdr : Tcp_wire.header) msg =
  let t = sess.proto in
  let now = Sim.now t.plat.Platform.sim in
  (* Input work that needs no connection state: parsing, validation. *)
  Costs.charge t.plat Costs.tcp_input_unlocked;
  sess.st.segs_in <- sess.st.segs_in + 1;
  if Msg.length msg = 0 && hdr.flags.Tcp_wire.ack && not hdr.flags.Tcp_wire.syn then
    sess.st.acks_in <- sess.st.acks_in + 1;
  match sess.locks with
  | L_scr log -> scr_segment_arrives sess log hdr msg
  | L_rcu r when rcu_try_read sess r hdr msg -> ()
  | _ ->
  let is_data = Msg.length msg > 0 in
  let plat = t.plat in
  span_begin plat ~seq:hdr.seq Trace.Lock_wait;
  input_acquire sess;
  span_end plat ~seq:hdr.seq Trace.Lock_wait;
  span_begin plat ~seq:hdr.seq Trace.Tcp_input;
  (* Ablation: verification charged while the state locks are held. *)
  if t.cfg.checksum && t.cfg.cksum_under_lock then
    Membus.consume t.plat.Platform.bus ~bytes:(Msg.length msg + Tcp_wire.header_bytes);
  (* The SICS six-lock structure serialises the reassembly and
     retransmission queues together with the window state on every packet
     — locking the paper calls "either redundant or unnecessary"
     (Section 5.1).  The cost is what makes TCP-6 lose. *)
  (match sess.locks with
   | L_six { reass; rexmt; _ } ->
     Lock.acquire reass;
     Lock.acquire rexmt;
     Costs.charge t.plat 200;
     Lock.release rexmt;
     Lock.release reass
   | L_one _ | L_two _ | L_scr _ | L_rcu _ -> ());
  let acc, deliveries =
    match sess.tcb.state with
    | Established -> established_input sess hdr msg ~now [] []
    | _ -> opening_input sess hdr msg ~now [] []
  in
  (* Section 4.2: before releasing the connection-state lock, a receiving
     thread acquires an up-ticket for the next higher layer; above TCP it
     waits for its ticket to be called.  Every data segment's thread goes
     through the gate — even one whose segment only joined the reassembly
     queue — which is what restricts order and limits performance. *)
  let ticket =
    if t.cfg.ticketing && is_data && sess.tcb.state <> Listen then
      Some (Gate.take sess.gate)
    else None
  in
  input_release sess;
  span_end plat ~seq:hdr.seq Trace.Tcp_input;
  transmit sess acc;
  (* Send whatever the ack (or window update) made possible. *)
  pump sess;
  (* Upcalls happen outside all connection locks — exactly the point where
     ordering can be lost without ticketing (Section 4.2). *)
  let upcall () =
    span_begin plat ~seq:hdr.seq Trace.Upcall;
    List.iter (fun m -> sess.receiver m) (List.rev deliveries);
    span_end plat ~seq:hdr.seq Trace.Upcall
  in
  (match ticket with
   | Some k ->
     Gate.await sess.gate k;
     upcall ();
     Gate.advance sess.gate
   | None -> upcall ());
  (* Tell the application about an in-order FIN (idempotent upcall).  The
     state, not this segment's FIN flag, is what matters: a FIN that
     arrived out of order sits in [rcv_fin_seq] until a retransmission
     fills the gap, and the segment that completes it carries no FIN. *)
  if
    (match sess.tcb.state with
     | Close_wait | Closing | Last_ack | Time_wait -> true
     | Closed -> hdr.flags.Tcp_wire.fin
     | _ -> false)
  then sess.on_fin ()

(* ------------------------------------------------------------------ *)
(* Demultiplexing                                                      *)
(* ------------------------------------------------------------------ *)

let lookup_session t ~lport ~raddr ~rport =
  match Conn_map.lookup t.conns { Conn_key.lport; raddr; rport } with
  | Some s -> Some s
  | None -> Conn_map.lookup t.conns { Conn_key.lport; raddr = 0; rport = 0 }

let handshake_syn t listener_key accept (hdr : Tcp_wire.header) ~src =
  (* Passive open: make the child session and send SYN-ACK. *)
  let key = { Conn_key.lport = listener_key.Conn_key.lport; raddr = src; rport = hdr.sport } in
  let sess = fresh_session t key in
  let tcb = sess.tcb in
  tcb.state <- Syn_received;
  tcb.syn_counted <- true;
  tcb.irs <- hdr.seq;
  tcb.rcv_nxt <- Tcp_seq.add hdr.seq 1;
  tcb.iss <- Tcp_seq.mask ((Atomic_ctr.incr t.iss_source * 64021) + (Ip.local_addr t.ip * 7919));
  tcb.snd_una <- tcb.iss;
  tcb.snd_nxt <- Tcp_seq.add tcb.iss 1;
  tcb.snd_max <- tcb.snd_nxt;
  tcb.snd_wnd <- hdr.win;
  (* A lost SYN-ACK must not wedge the child in Syn_received: arm the
     retransmission timer so [retransmit] re-emits it. *)
  set_rexmt_timer tcb;
  (if Sim.in_thread t.plat.Platform.sim then Lock.with_lock t.create_lock else fun f -> f ())
    (fun () ->
      Conn_map.insert t.conns key sess;
      t.all_sessions <- sess :: t.all_sessions);
  (* Let the application attach its receiver before any data can race in. *)
  accept sess;
  let acc = emit sess ~flags:Tcp_wire.flag_syn_ack ~seq:tcb.iss ~payload:None [] in
  transmit sess acc

let input t ~src ~dst msg =
  Costs.charge t.plat Costs.tcp_demux;
  match Tcp_wire.decode msg with
  | None -> Msg.destroy msg
  | Some hdr ->
    (* The segment entered TCP from IP: open its demux span. *)
    span_begin t.plat ~seq:hdr.seq Trace.Ip;
    let ip_span_done = ref false in
    let end_ip_span () =
      if not !ip_span_done then begin
        ip_span_done := true;
        span_end t.plat ~seq:hdr.seq Trace.Ip
      end
    in
    let cksum_ok =
      match t.cfg.locking with
      | (One | Two | Scr | Rcu) when not t.cfg.cksum_under_lock ->
        (* Checksum outside any connection-state lock. *)
        (not t.cfg.checksum) || hdr.cksum = 0
        || Tcp_wire.verify_checksum t.plat ~src ~dst msg
      | One | Two | Six | Scr | Rcu -> true (* verified under locks below *)
    in
    if not cksum_ok then begin
      t.cksum_failures <- t.cksum_failures + 1;
      end_ip_span ();
      Msg.destroy msg
    end
    else begin
      match lookup_session t ~lport:hdr.dport ~raddr:src ~rport:hdr.sport with
      | None ->
        end_ip_span ();
        Msg.destroy msg
      | Some sess ->
        ignore (Atomic_ctr.incr sess.sess_ref);
        let proceed = ref true in
        with_hdr_rem sess (fun () ->
            (match t.cfg.locking with
             | Six
               when t.cfg.checksum && hdr.cksum <> 0
                    && not (Tcp_wire.verify_checksum t.plat ~src ~dst msg) ->
               t.cksum_failures <- t.cksum_failures + 1;
               proceed := false
             | One | Two | Six | Scr | Rcu -> ());
            if !proceed then Tcp_wire.strip msg);
        (if not !proceed then begin
           end_ip_span ();
           Msg.destroy msg
         end
         else
           match (sess.tcb.state, hdr.flags.Tcp_wire.syn) with
           | Listen, true -> (
             end_ip_span ();
             (* find the accept callback for this port *)
             match Conn_map.lookup t.accepting sess.key with
             | Some accept ->
               Msg.destroy msg;
               if
                 t.cfg.syn_backlog > 0
                 && sess.tcb.syn_pending >= t.cfg.syn_backlog
               then
                 (* Bounded backlog (SYN-flood protection): shed the SYN
                    as an accounted drop; the peer's SYN retransmission
                    retries once slots free up. *)
                 t.syn_backlog_drops <- t.syn_backlog_drops + 1
               else begin
                 sess.tcb.syn_pending <- sess.tcb.syn_pending + 1;
                 handshake_syn t sess.key accept hdr ~src
               end
             | None -> Msg.destroy msg)
           | _ ->
             end_ip_span ();
             segment_arrives sess hdr msg);
        ignore (Atomic_ctr.decr sess.sess_ref)
    end

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

let fasttimo t =
  List.iter
    (fun sess ->
      if sess.tcb.delack_pending then begin
        input_acquire sess;
        let acc = if sess.tcb.delack_pending then emit_ack sess [] else [] in
        input_release sess;
        transmit sess acc
      end)
    t.all_sessions

let rexmt_timeout sess =
  let t = sess.proto in
  let tcb = sess.tcb in
  output_acquire sess;
  let acc =
    if Tcp_seq.gt tcb.snd_max tcb.snd_una && tcb.state <> Closed then begin
      tcb.rxtshift <- min (tcb.rxtshift + 1) max_rxtshift;
      let flight = min tcb.snd_wnd tcb.snd_cwnd in
      tcb.snd_ssthresh <- max (2 * t.cfg.mss) (flight / 2);
      tcb.snd_cwnd <- t.cfg.mss;
      tcb.t_rtttime <- 0;
      tcb.snd_nxt <- tcb.snd_una;
      set_rexmt_timer tcb;
      retransmit sess []
    end
    else begin
      tcb.t_rexmt <- 0;
      []
    end
  in
  output_release sess;
  transmit sess acc

(* Window probe: force one byte past the closed window (BSD TF_FORCE). *)
let persist_timeout sess =
  let t = sess.proto in
  let tcb = sess.tcb in
  output_acquire sess;
  let acc =
    let in_flight = Tcp_seq.diff tcb.snd_nxt tcb.snd_una in
    let unsent = Sockbuf.cc tcb.sb - in_flight in
    if unsent > 0 && tcb.snd_wnd = 0 && tcb.state = Established then begin
      sess.st.persist_probes <- sess.st.persist_probes + 1;
      Costs.charge t.plat Costs.tcp_output_locked;
      access sess ~write:true "snd";
      let payload =
        with_rexmt_lock sess (fun () ->
            access sess ~write:false "sb";
            Sockbuf.peek tcb.sb ~off:in_flight ~len:1)
      in
      let seq = tcb.snd_nxt in
      tcb.snd_nxt <- Tcp_seq.add tcb.snd_nxt 1;
      tcb.snd_max <- Tcp_seq.max tcb.snd_max tcb.snd_nxt;
      tcb.persist_shift <- min (tcb.persist_shift + 1) max_rxtshift;
      let ticks = max 2 ((tcb.rto + slowtimo_ns - 1) / slowtimo_ns) in
      tcb.t_persist <- ticks lsl min tcb.persist_shift 6;
      emit sess ~flags:Tcp_wire.flag_ack ~seq ~payload:(Some payload) []
    end
    else begin
      tcb.t_persist <- 0;
      []
    end
  in
  output_release sess;
  transmit sess acc

let slowtimo t =
  List.iter
    (fun sess ->
      let tcb = sess.tcb in
      if tcb.t_rexmt > 0 then begin
        tcb.t_rexmt <- tcb.t_rexmt - 1;
        if tcb.t_rexmt = 0 then rexmt_timeout sess
      end;
      if tcb.t_persist > 0 then begin
        tcb.t_persist <- tcb.t_persist - 1;
        if tcb.t_persist = 0 then persist_timeout sess
      end;
      if tcb.t_2msl > 0 then begin
        tcb.t_2msl <- tcb.t_2msl - 1;
        if tcb.t_2msl = 0 && tcb.state = Time_wait then tcb.state <- Closed
      end)
    t.all_sessions

let rec arm_fasttimo t =
  if not t.shutdown then
    ignore
      (Timewheel.schedule t.wheel ~after:fasttimo_ns (fun () ->
           fasttimo t;
           arm_fasttimo t))

let rec arm_slowtimo t =
  if not t.shutdown then
    ignore
      (Timewheel.schedule t.wheel ~after:slowtimo_ns (fun () ->
           slowtimo t;
           arm_slowtimo t))

let start_timers t =
  if not t.timers_running then begin
    t.timers_running <- true;
    arm_fasttimo t;
    arm_slowtimo t
  end

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let create plat pool ~wheel ~ip cfg ~name =
  (match cfg.locking with
   | Scr ->
     if cfg.ticketing then
       invalid_arg "Tcp: ticketing reintroduces the serialization SCR removes";
     if cfg.cksum_under_lock then
       invalid_arg "Tcp: cksum_under_lock requires a connection-state lock; SCR has none";
     if cfg.scr_log_bound < 2 then invalid_arg "Tcp: scr_log_bound must be at least 2"
   | One | Two | Six | Rcu -> ());
  let t =
    {
      plat;
      pool;
      wheel;
      ip;
      cfg;
      name;
      obj_ref = Platform.refcnt plat ~name:(name ^ ".ref") ~init:1;
      iss_source = Platform.refcnt plat ~name:(name ^ ".iss") ~init:1;
      conns =
        Conn_map.create plat ~shards:plat.Platform.map_shards
          ~name:(name ^ ".demux") ();
      create_lock =
        Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair
          ~name:(name ^ ".create");
      all_sessions = [];
      accepting = Conn_map.create plat ~name:(name ^ ".accepting") ();
      timers_running = false;
      shutdown = false;
      cksum_failures = 0;
      syn_backlog_drops = 0;
    }
  in
  Ip.register ip ~proto:Tcp_wire.protocol_number (fun ~src ~dst msg ->
      ignore (Atomic_ctr.incr t.obj_ref);
      input t ~src ~dst msg;
      ignore (Atomic_ctr.decr t.obj_ref));
  t

let shutdown t = t.shutdown <- true

let locked_create t f =
  if Sim.in_thread t.plat.Platform.sim then Lock.with_lock t.create_lock f else f ()

let connect ?iss t ~local_port ~remote_addr ~remote_port =
  let key = { Conn_key.lport = local_port; raddr = remote_addr; rport = remote_port } in
  let sess = fresh_session t key in
  let tcb = sess.tcb in
  (tcb.iss <-
     match iss with
     | Some s -> Tcp_seq.mask s
     | None ->
       (* derived from the host address too, so two stacks in one world
          do not pick identical initial sequence numbers *)
       Tcp_seq.mask ((Atomic_ctr.incr t.iss_source * 64021) + (Ip.local_addr t.ip * 7919)));
  tcb.snd_una <- tcb.iss;
  tcb.snd_nxt <- Tcp_seq.add tcb.iss 1;
  tcb.snd_max <- tcb.snd_nxt;
  tcb.state <- Syn_sent;
  locked_create t (fun () ->
      Conn_map.insert t.conns key sess;
      t.all_sessions <- sess :: t.all_sessions);
  start_timers t;
  Costs.charge t.plat Costs.tcp_conn_setup;
  let acc = emit sess ~flags:Tcp_wire.flag_syn ~seq:tcb.iss ~payload:None [] in
  set_rexmt_timer tcb;
  transmit sess acc;
  (* The in-memory peer may have answered synchronously on this stack. *)
  if tcb.state <> Established then
    Sim.suspend t.plat.Platform.sim (fun resume -> tcb.open_waiter <- Some resume);
  sess

let listen t ~local_port ~accept =
  let key = { Conn_key.lport = local_port; raddr = 0; rport = 0 } in
  let sess = fresh_session t key in
  sess.tcb.state <- Listen;
  locked_create t (fun () ->
      Conn_map.insert t.conns key sess;
      Conn_map.insert t.accepting key accept);
  start_timers t

(* Stop listening: drop both the accept callback and the wildcard demux
   entry, so closed listen ports no longer accumulate (established
   children are untouched).  Returns [false] if nothing was listening. *)
let close_listener t ~local_port =
  let key = { Conn_key.lport = local_port; raddr = 0; rport = 0 } in
  locked_create t (fun () ->
      let had_accept = Conn_map.remove t.accepting key in
      let had_demux =
        match Conn_map.lookup t.conns key with
        | Some sess when sess.tcb.state = Listen -> Conn_map.remove t.conns key
        | _ -> false
      in
      had_accept || had_demux)

let remote_endpoint sess = (sess.key.Conn_key.raddr, sess.key.Conn_key.rport)
let set_receiver sess f = sess.receiver <- f
let set_fin_handler sess f = sess.on_fin <- f
let ticket_gate sess = sess.gate

(* Queue application data under SCR: each attempt is a host-atomic
   deferred section whose cost is paid after it closes; a full buffer
   suspends OUTSIDE the section (deferred sections cannot block).  The
   failed offer and the waiter registration share one host-atomic span —
   no suspension point separates them — so a concurrent wake cannot be
   lost. *)
let scr_send_enqueue sess log msg =
  let sim = sess.proto.plat.Platform.sim in
  let rec go () =
    if sync_tracing sess then
      sync_trace sess (Trace.Scr_apply { log = log.sl_name; idx = -1 });
    Sim.defer_begin sim;
    let r =
      with_rexmt_lock sess (fun () ->
          access sess ~write:true "sb";
          Sockbuf.offer sess.tcb.sb msg)
    in
    let cost = Sim.defer_end sim in
    if sync_tracing sess then
      sync_trace sess (Trace.Scr_apply_end { log = log.sl_name; idx = -1 });
    match r with
    | `Queued ->
      Sim.delay sim cost;
      true
    | `Dropped ->
      Sim.delay sim cost;
      false
    | `Must_wait ->
      Sim.suspend sim (fun resume ->
          sess.tcb.sb_waiters <- resume :: sess.tcb.sb_waiters);
      Sim.delay sim cost;
      go ()
  in
  go ()

let send sess msg =
  let t = sess.proto in
  let tcb = sess.tcb in
  let len = Msg.length msg in
  if len > Sockbuf.max_size tcb.sb then
    invalid_arg "Tcp.send: message larger than the send buffer";
  (* Graceful degradation: under Block policy the application parks here
     (outside every connection lock) while the pool sits above its soft
     watermark, so protocol-internal transients keep their headroom.
     Under Drop the sockbuf sheds instead — nothing blocks. *)
  if t.cfg.sb_policy = Sockbuf.Block then Mpool.await_headroom t.pool;
  let queued =
    match sess.locks with
    | L_scr log ->
      let queued = scr_send_enqueue sess log msg in
      if queued then sess.st.bytes_out <- sess.st.bytes_out + len;
      queued
    | _ ->
      output_acquire sess;
      (* Queue, shed, or wait for socket-buffer space (so_snd semantics). *)
      let rec enqueue () =
        match
          with_rexmt_lock sess (fun () ->
              access sess ~write:true "sb";
              Sockbuf.offer tcb.sb msg)
        with
        | `Queued -> true
        | `Dropped -> false
        | `Must_wait ->
          let registered = ref false in
          Sim.suspend t.plat.Platform.sim (fun resume ->
              tcb.sb_waiters <- resume :: tcb.sb_waiters;
              registered := true;
              (* The register callback cannot consume simulated time, so
                 RCU releases without its (charging) snapshot publish —
                 sound, because a failed offer mutated nothing. *)
              match sess.locks with
              | L_rcu r -> Lock.release r.ru_wr
              | _ -> output_release sess);
          assert !registered;
          output_acquire sess;
          enqueue ()
      in
      let queued = enqueue () in
      if queued then sess.st.bytes_out <- sess.st.bytes_out + len;
      output_release sess;
      queued
  in
  if queued then begin
    (* The data checksum pass runs here, outside every connection-state
       lock (Section 5.1); the header is folded in at transmit time.  The
       Six discipline instead checksums under its header lock (SICS
       style). *)
    (match t.cfg.locking with
     | One | Two | Scr | Rcu ->
       if t.cfg.checksum && not t.cfg.cksum_under_lock then
         Membus.consume t.plat.Platform.bus ~bytes:len
     | Six -> ());
    pump sess
  end

let close sess =
  let tcb = sess.tcb in
  output_acquire sess;
  (match tcb.state with
   | Established -> tcb.state <- Fin_wait_1
   | Close_wait -> tcb.state <- Last_ack
   | _ -> ());
  tcb.fin_queued <- true;
  output_release sess;
  pump sess

let state_name sess = state_to_string sess.tcb.state
let stats sess = sess.st
let config t = t.cfg
let checksum_failures t = t.cksum_failures
let syn_backlog_drops t = t.syn_backlog_drops
let sockbuf_drops sess = Sockbuf.drops sess.tcb.sb
let sockbuf_dropped_bytes sess = Sockbuf.dropped_bytes sess.tcb.sb

let total_sockbuf_drops t =
  List.fold_left (fun acc s -> acc + Sockbuf.drops s.tcb.sb) 0 t.all_sessions

let sessions t = t.all_sessions

let lock_wait_ns sess =
  List.fold_left (fun acc l -> acc + Lock.total_wait_ns l) 0 (all_locks sess)

let lock_hold_ns sess =
  List.fold_left (fun acc l -> acc + Lock.total_hold_ns l) 0 (all_locks sess)

let snd_nxt sess = sess.tcb.snd_nxt
let rcv_nxt sess = sess.tcb.rcv_nxt
let cwnd sess = sess.tcb.snd_cwnd
let initial_seqs sess = (sess.tcb.iss, sess.tcb.irs)

type scr_counters = {
  scr_appends : int;
  scr_replayed : int;
  scr_resyncs : int;
  scr_truncations : int;
  scr_max_depth : int;
}

let scr_counters sess =
  match sess.locks with
  | L_scr l ->
    Some
      {
        scr_appends = l.sl_appends;
        scr_replayed = l.sl_replayed;
        scr_resyncs = l.sl_resyncs;
        scr_truncations = l.sl_truncations;
        scr_max_depth = l.sl_max_depth;
      }
  | _ -> None

let rcu_counters sess =
  match sess.locks with
  | L_rcu r -> Some (r.ru_reads, r.ru_publishes)
  | _ -> None

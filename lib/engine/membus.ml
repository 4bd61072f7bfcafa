type t = {
  sim : Sim.t;
  arch : Arch.t;
  mutable users : int;
  mutable bytes : int;
}

let create sim arch = { sim; arch; users = 0; bytes = 0 }

let duration_ns ?rate_mb_s t ~bytes ~users =
  let users = max 1 users in
  let per_cpu = Option.value rate_mb_s ~default:t.arch.Arch.cksum_mb_per_s in
  let share = t.arch.Arch.bus_mb_per_s /. float_of_int users in
  let rate_mb_s = Float.min per_cpu share in
  (* MB/s = bytes per microsecond; convert to ns. *)
  int_of_float ((float_of_int bytes /. rate_mb_s *. 1000.0) +. 0.5)

let consume ?rate_mb_s t ~bytes =
  if bytes > 0 then begin
    t.users <- t.users + 1;
    let d = duration_ns ?rate_mb_s t ~bytes ~users:t.users in
    t.bytes <- t.bytes + bytes;
    (match Sim.delay t.sim d with
     | () -> t.users <- t.users - 1
     | exception e ->
       t.users <- t.users - 1;
       raise e);
    let tracer = Sim.tracer t.sim in
    if Trace.enabled tracer && Sim.in_thread t.sim then
      let th = Sim.self t.sim in
      Trace.emit tracer ~ts:(Sim.now t.sim) ~tid:(Sim.tid th) ~cpu:(Sim.cpu th)
        (Trace.Membus_charge { bytes; dur_ns = d })
  end

let concurrent_users t = t.users
let bytes_transferred t = t.bytes

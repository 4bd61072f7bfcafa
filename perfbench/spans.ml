(* In-memory span recorder for the traced run.

   A span is one timed interval at a layer boundary: the benchmark wraps
   its own calls into the library (never code inside it), so the tree is
   pass -> cell -> layer call.  Spans are buffered per cell by the
   worker that runs the cell and merged on the main domain, so recording
   needs no locks; the whole tree is written out when the run ends. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  cell : int;  (** cell id shared by every span of one cell; [-1] outside cells *)
  name : string;
  start : float;  (** host seconds, [Unix.gettimeofday] *)
  stop : float;
}

(* A recorder collects the spans of one cell (or of the main domain).
   Ids are local until [merge] renumbers them. *)
type t = { cell : int; mutable next : int; mutable spans : span list }

let create ~cell = { cell; next = 0; spans = [] }

let record t ~parent ~name ~start ~stop =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; cell = t.cell; name; start; stop } :: t.spans;
  id

(* Run [f] inside a span under [parent]; [f] receives the new span's id
   so it can open children.  The id is reserved before [f] runs and the
   span is stored when it returns (or raises). *)
let with_span t ~parent name f =
  let id = t.next in
  t.next <- id + 1;
  let start = Unix.gettimeofday () in
  let finish () =
    t.spans <-
      { id; parent; cell = t.cell; name; start; stop = Unix.gettimeofday () } :: t.spans
  in
  match f id with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Concatenate recorders into one tree.  [graft] names, for each
   recorder after the first, the id in the already-merged tree that its
   roots hang under. *)
let merge (base : t) (parts : (t * int) list) =
  let out = ref base.spans in
  let offset = ref base.next in
  List.iter
    (fun (r, graft) ->
      let shift = !offset in
      List.iter
        (fun s ->
          out :=
            {
              s with
              id = s.id + shift;
              parent = (if s.parent < 0 then graft else s.parent + shift);
            }
            :: !out)
        r.spans;
      offset := shift + r.next)
    parts;
  base.spans <- !out;
  base.next <- !offset

let spans t = List.rev t.spans

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   its children cover.  Children that run concurrently (cells on two
   workers under one pass) are unioned, not summed, so self time is
   never negative. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.start, s.stop)) spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Self time summed per span name, in first-seen order. *)
let self_by_name spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some v -> Hashtbl.replace tbl s.name (v +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.add tbl s.name self)
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

(* Total duration per span name (busy time, children included). *)
let busy name spans =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0.0 spans

let write_json file ~t0 spans =
  let oc = open_out file in
  output_string oc "{\"spans\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s  {\"id\": %d, \"parent\": %d, \"cell\": %d, \"name\": %S, \"start_s\": %.6f, \"end_s\": %.6f}"
        (if i = 0 then "" else ",\n")
        s.id s.parent s.cell s.name (s.start -. t0) (s.stop -. t0))
    spans;
  output_string oc "\n]}\n";
  close_out oc

(* The values are [items.((head + i) land (capacity - 1))] for i < n; the
   capacity is 0 until the first push and a power of two after it. *)
type 'a t = { mutable items : 'a array; mutable head : int; mutable n : int }

let create () = { items = [||]; head = 0; n = 0 }
let length t = t.n
let is_empty t = t.n = 0
let slot t i = (t.head + i) land (Array.length t.items - 1)

let push t x =
  let cap = Array.length t.items in
  if t.n = cap then begin
    let grown = Array.make (max 8 (2 * cap)) x in
    for i = 0 to t.n - 1 do
      grown.(i) <- t.items.(slot t i)
    done;
    t.items <- grown;
    t.head <- 0
  end;
  t.items.(slot t t.n) <- x;
  t.n <- t.n + 1

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Ring.get: index out of range";
  t.items.(slot t i)

let pop t =
  if t.n = 0 then invalid_arg "Ring.pop: empty";
  let x = t.items.(t.head) in
  t.head <- slot t 1;
  t.n <- t.n - 1;
  x

let pop_last t =
  if t.n = 0 then invalid_arg "Ring.pop_last: empty";
  t.n <- t.n - 1;
  t.items.(slot t t.n)

let clear t =
  t.head <- 0;
  t.n <- 0

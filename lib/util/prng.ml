(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   field would box a fresh Int64 on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* Inlined so the draws below use the result unboxed.  Callers in other
   modules get a boxed Int64 wherever the library is built [-opaque]
   (dune's dev profile). *)
let[@inline] bits64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (bits64 t)

(* Non-negative 62-bit int from the top bits, avoiding sign issues. *)
let positive_int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

(* Rejection sampling over the 62-bit draw: a plain [mod] favours small
   residues whenever bound does not divide 2^62.  Reject draws from the
   final partial interval instead; at most one extra draw is needed on
   average even for the worst-case bound. *)
let max62 = (1 lsl 61) - 1 + (1 lsl 61) (* 2^62 - 1 without overflowing *)

let rec draw_below t bound threshold =
  let x = positive_int t in
  if x > threshold then draw_below t bound threshold else x mod bound

let int t bound =
  assert (bound > 0);
  let r = ((max62 mod bound) + 1) mod bound in
  (* Largest multiple of bound in [0, 2^62) is max62 - r + 1; draws at or
     above it are biased and rejected. *)
  draw_below t bound (max62 - r)

(* 53 significant bits, scaled to [0,1).  Inlined into its callers, so
   [exponential] keeps the draw unboxed. *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

(* Truncated to whole nanoseconds here rather than by every caller, so
   the draw reaches its callers as an int and never boxes. *)
let exponential t ~mean =
  let u = unit_float t in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  int_of_float (-.mean *. log u)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

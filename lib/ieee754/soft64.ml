(* IEEE-754 binary64 ("double") softfloat instance, with a host-FPU fast
   path for round-to-nearest add, sub, mul, div and sqrt.

   [Softfp.Make] is the exact kernel and answers every case the fast path
   does not. The fast path runs only in [Nearest_even] and only when both
   operands and the host result have a biased exponent inside
   [win_lo, win_hi]. There, OCaml's binary64 arithmetic (IEEE
   round-to-nearest-even on x86-64 SSE2 and arm64) produces exactly the
   kernel's result bits, and the flag set can only be empty or inexact:

   - no input is zero, subnormal, infinite or NaN, so DE, ZE and IE
     cannot arise (and sqrt is taken only of positive operands);
   - the result is far from both ends of the normal range, so OE and UE
     cannot arise — including the kernel's before-rounding tininess
     case, where a result that rounds up to [min_normal] still raises UE.

   Inexact is decided with error-free transformations in plain binary64
   operations (TwoSum for add/sub, Dekker's product with a Veltkamp
   split for mul, and the same exact product to check q*b = a for div
   and q*q = a for sqrt). The window keeps every error term and every
   split half a normal number, so each transformation is exact. [Float.fma]
   is not used: OCaml only promises it "best effort". *)

module K = Softfp.Make (struct
  let name = "binary64"
  let width = 64
  let exp_bits = 11
  let man_bits = 52
end)

include K

let win_lo = 128
let win_hi = 1920

let[@inline] in_window b =
  let e = Int64.to_int (Int64.shift_right_logical b 52) land 0x7FF in
  e >= win_lo && e <= win_hi

(* Is the real product x*y exactly p = fl(x*y)? Dekker's TwoProduct:
   the rounding error of p is exactly representable and equals the sum
   below when no partial product under- or overflows, which the window
   on x, y and p guarantees. *)
let split_const = 134217729.0 (* 2^27 + 1 *)

let[@inline] product_exact x y p =
  let cx = split_const *. x in
  let xh = cx -. (cx -. x) in
  let xl = x -. xh in
  let cy = split_const *. y in
  let yh = cy -. (cy -. y) in
  let yl = y -. yh in
  ((xh *. yh -. p) +. (xh *. yl)) +. (xl *. yh) +. (xl *. yl) = 0.0

let[@inline] flags_of_exact exact = if exact then Flags.none else Flags.inexact

(* TwoSum: the rounding error of s = fl(x + y) is exactly [err]. *)
let[@inline] sum_flags x y s =
  let yv = s -. x in
  let err = (x -. (s -. yv)) +. (y -. yv) in
  flags_of_exact (err = 0.0)

let add mode a b =
  match mode with
  | Softfp.Nearest_even when in_window a && in_window b ->
      let x = Int64.float_of_bits a and y = Int64.float_of_bits b in
      let s = x +. y in
      let r = Int64.bits_of_float s in
      if in_window r then (r, sum_flags x y s) else K.add mode a b
  | _ -> K.add mode a b

let sub mode a b =
  match mode with
  | Softfp.Nearest_even when in_window a && in_window b ->
      let x = Int64.float_of_bits a and y = Float.neg (Int64.float_of_bits b) in
      let s = x +. y in
      let r = Int64.bits_of_float s in
      if in_window r then (r, sum_flags x y s) else K.sub mode a b
  | _ -> K.sub mode a b

let mul mode a b =
  match mode with
  | Softfp.Nearest_even when in_window a && in_window b ->
      let x = Int64.float_of_bits a and y = Int64.float_of_bits b in
      let p = x *. y in
      let r = Int64.bits_of_float p in
      if in_window r then (r, flags_of_exact (product_exact x y p))
      else K.mul mode a b
  | _ -> K.mul mode a b

let div mode a b =
  match mode with
  | Softfp.Nearest_even when in_window a && in_window b ->
      let x = Int64.float_of_bits a and y = Int64.float_of_bits b in
      let q = x /. y in
      let r = Int64.bits_of_float q in
      if in_window r then
        (r, flags_of_exact (q *. y = x && product_exact q y x))
      else K.div mode a b
  | _ -> K.div mode a b

let sqrt mode a =
  match mode with
  | Softfp.Nearest_even when Int64.compare a 0L > 0 && in_window a ->
      let x = Int64.float_of_bits a in
      let q = Float.sqrt x in
      (* the result exponent is about half way to the bias: in window *)
      (Int64.bits_of_float q,
       flags_of_exact (q *. q = x && product_exact q q x))
  | _ -> K.sqrt mode a

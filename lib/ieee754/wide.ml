type t = { hi : int64; lo : int64 }

let zero = { hi = 0L; lo = 0L }
let of_int64 v = { hi = 0L; lo = v }
let make ~hi ~lo = { hi; lo }
let is_zero a = Int64.equal a.hi 0L && Int64.equal a.lo 0L
let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo

let compare a b =
  let c = Int64.unsigned_compare a.hi b.hi in
  if c <> 0 then c else Int64.unsigned_compare a.lo b.lo

let add a b =
  let lo = Int64.add a.lo b.lo in
  let carry = if Int64.unsigned_compare lo a.lo < 0 then 1L else 0L in
  { hi = Int64.add (Int64.add a.hi b.hi) carry; lo }

let sub a b =
  let lo = Int64.sub a.lo b.lo in
  let borrow = if Int64.unsigned_compare a.lo b.lo < 0 then 1L else 0L in
  { hi = Int64.sub (Int64.sub a.hi b.hi) borrow; lo }

let mul_64_64 x y =
  (* Split into 32-bit halves; all partial products fit in 64 bits. *)
  let mask = 0xFFFFFFFFL in
  let xl = Int64.logand x mask and xh = Int64.shift_right_logical x 32 in
  let yl = Int64.logand y mask and yh = Int64.shift_right_logical y 32 in
  let ll = Int64.mul xl yl in
  let lh = Int64.mul xl yh in
  let hl = Int64.mul xh yl in
  let hh = Int64.mul xh yh in
  let mid = Int64.add lh (Int64.add hl (Int64.shift_right_logical ll 32)) in
  (* mid can wrap: detect the carry out of the lh + hl + (ll>>32) sum. *)
  let carry_mid =
    let s1 = Int64.add lh hl in
    let c1 = if Int64.unsigned_compare s1 lh < 0 then 1L else 0L in
    let s2 = Int64.add s1 (Int64.shift_right_logical ll 32) in
    let c2 = if Int64.unsigned_compare s2 s1 < 0 then 1L else 0L in
    Int64.add c1 c2
  in
  let lo = Int64.logor (Int64.logand ll mask) (Int64.shift_left mid 32) in
  let hi =
    Int64.add hh
      (Int64.add (Int64.shift_right_logical mid 32) (Int64.shift_left carry_mid 32))
  in
  { hi; lo }

let shift_left a n =
  if n = 0 then a
  else if n >= 128 then zero
  else if n >= 64 then { hi = Int64.shift_left a.lo (n - 64); lo = 0L }
  else
    { hi =
        Int64.logor (Int64.shift_left a.hi n)
          (Int64.shift_right_logical a.lo (64 - n));
      lo = Int64.shift_left a.lo n }

let shift_right a n =
  if n = 0 then a
  else if n >= 128 then zero
  else if n >= 64 then { hi = 0L; lo = Int64.shift_right_logical a.hi (n - 64) }
  else
    { hi = Int64.shift_right_logical a.hi n;
      lo =
        Int64.logor
          (Int64.shift_right_logical a.lo n)
          (Int64.shift_left a.hi (64 - n)) }

let shift_right_sticky a n =
  if n = 0 then (a, false)
  else if n >= 128 then (zero, not (is_zero a))
  else begin
    let dropped =
      if n >= 64 then
        (not (Int64.equal a.lo 0L))
        || (n > 64
            && not (Int64.equal (Int64.shift_left a.hi (128 - n)) 0L))
      else not (Int64.equal (Int64.shift_left a.lo (64 - n)) 0L)
    in
    (shift_right a n, dropped)
  end

(* Count on native-int halves: an int64 loop variable would box on
   every iteration. *)
let rec bits_int w v = if v = 0 then w else bits_int (w + 1) (v lsr 1)

let bits64 v =
  let hi = Int64.to_int (Int64.shift_right_logical v 32) in
  if hi <> 0 then bits_int 32 hi
  else bits_int 0 (Int64.to_int (Int64.logand v 0xFFFFFFFFL))

let num_bits a = if Int64.equal a.hi 0L then bits64 a.lo else 64 + bits64 a.hi

let testbit a i =
  if i < 64 then Int64.logand (Int64.shift_right_logical a.lo i) 1L = 1L
  else if i < 128 then Int64.logand (Int64.shift_right_logical a.hi (i - 64)) 1L = 1L
  else false

let div_rem_64 a b =
  if Int64.equal a.hi 0L then (Int64.unsigned_div a.lo b, Int64.unsigned_rem a.lo b)
  else begin
    (* Bit-by-bit restoring division; the quotient fits in 64 bits because
       the caller guarantees hi < b. *)
    let q = ref 0L in
    let r = ref a.hi in
    (* r holds the running remainder (< b, so < 2^63 only if b <= 2^63;
       handle the general case with unsigned comparisons). *)
    for i = 63 downto 0 do
      let bit = Int64.logand (Int64.shift_right_logical a.lo i) 1L in
      (* r = r*2 + bit; detect overflow past 64 bits: r >= 2^63 before
         doubling means r*2 wraps, but r < b <= 2^64-1, and after a
         successful subtract r < b, so r*2+bit < 2b <= 2^65 - 2. When the
         double wraps, the true value exceeds b, so we must subtract. *)
      let wraps = Int64.unsigned_compare !r 0x8000000000000000L >= 0 in
      r := Int64.logor (Int64.shift_left !r 1) bit;
      if wraps || Int64.unsigned_compare !r b >= 0 then begin
        r := Int64.sub !r b;
        q := Int64.logor !q (Int64.shift_left 1L i)
      end
    done;
    (!q, !r)
  end

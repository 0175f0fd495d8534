(* Tests for the software IEEE-754 kernel.

   The strongest oracle available: the host CPU's own IEEE binary64
   arithmetic, reached through OCaml's native floats. For every operation
   in round-to-nearest-even the softfloat result must be bit-identical to
   the hardware result (including NaN normalization for arithmetic on
   non-NaN inputs). Flags are checked with hand-built cases since the host
   flags are unobservable (the very gap this library exists to fill).

   Soft64 answers most in-range round-to-nearest add/sub/mul/div/sqrt
   from the host FPU, so on those operations "Soft64 matches hardware"
   mostly checks the host against itself. [Exact] below is the software
   kernel alone; the hardware oracles and the directed-rounding
   brackets run against it too, and the fast-path differential checks
   Soft64 against it on bits and flags in every rounding mode. *)

open Ieee754

let b64 = Alcotest.testable (fun fmt v -> Format.fprintf fmt "0x%016Lx" v) Int64.equal
let flags_t = Alcotest.testable Flags.pp ( = )

let bits = Int64.bits_of_float
let fl = Int64.float_of_bits
let rne = Softfp.Nearest_even

module Exact = Softfp.Make (struct
  let name = "binary64"
  let width = 64
  let exp_bits = 11
  let man_bits = 52
end)

(* Interesting doubles: the special-value cross-product catches most
   corner-case bugs. *)
let specials =
  [ 0.0; -0.0; 1.0; -1.0; 2.0; 0.5; -0.5; 1.5; Float.infinity;
    Float.neg_infinity; Float.nan; Float.max_float; Float.min_float;
    4.94e-324; 2.2250738585072014e-308; 1e308; -1e308; 3.141592653589793;
    1e-300; 1e300; 0.1; 1.0000000000000002; 6755399441055744.0 ]

(* Generator over raw bit patterns: mixes uniform bits (mostly huge
   exponents) with "realistic" doubles and specials. *)
let gen_double =
  QCheck.Gen.(
    frequency
      [ (4, map Int64.of_int (int_bound max_int) >|= fun v -> v);
        (4, float >|= bits);
        (1, oneofl (List.map bits specials));
        (2,
         (* random sign/exp/mantissa with small exponents too *)
         let* s = int_bound 1 in
         let* e = int_bound 2047 in
         let* m = map Int64.of_int (int_bound max_int) in
         return
           (Int64.logor
              (Int64.shift_left (Int64.of_int s) 63)
              (Int64.logor
                 (Int64.shift_left (Int64.of_int e) 52)
                 (Int64.logand m 0xFFFFFFFFFFFFFL)))) ])

let arb_double = QCheck.make ~print:(fun v -> Printf.sprintf "0x%016Lx (%h)" v (fl v)) gen_double

let q name ?(count = 2000) arb law =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED3 |])
 (QCheck.Test.make ~count ~name arb law)

(* Native arithmetic can return NaNs with arbitrary payloads; when the
   hardware result is NaN we only require the soft result to be NaN too
   (payload propagation conventions differ per CPU). Otherwise demand bit
   equality. *)
let same_result hard soft =
  if Float.is_nan (fl hard) then Soft64.is_nan soft else Int64.equal hard soft

let binop_oracle name hard soft =
  q (name ^ " matches hardware") (QCheck.pair arb_double arb_double)
    (fun (a, b) ->
      let h = bits (hard (fl a) (fl b)) in
      let s, _ = soft rne a b in
      same_result h s)

let unop_oracle name hard soft =
  q (name ^ " matches hardware") arb_double (fun a ->
      let h = bits (hard (fl a)) in
      let s, _ = soft rne a in
      same_result h s)

(* NaN *sign and payload* propagation must also match the hardware:
   differential testing caught sub(0, -qnan) flipping the propagated
   NaN's sign (subsd must not negate src2's NaN). *)
let nan_prop_tests =
  let neg_qnan = 0xFFF8000000000001L in
  let pos_qnan = 0x7FF8000000000001L in
  [ Alcotest.test_case "sub propagates src2 NaN unflipped" `Quick (fun () ->
        List.iter
          (fun nanv ->
            let r, _ = Soft64.sub rne (bits 0.0) nanv in
            Alcotest.(check int64) "bits" nanv r;
            let h = bits (0.0 -. fl nanv) in
            Alcotest.(check int64) "matches hardware" h r)
          [ neg_qnan; pos_qnan ]);
    Alcotest.test_case "add/mul/div propagate first NaN operand" `Quick
      (fun () ->
        List.iter
          (fun (soft, hard) ->
            List.iter
              (fun nanv ->
                (* NaN in src1 *)
                let r1, _ = soft rne nanv (bits 2.0) in
                Alcotest.(check int64) "src1 bits" (bits (hard (fl nanv) 2.0)) r1;
                (* NaN in src2 *)
                let r2, _ = soft rne (bits 2.0) nanv in
                Alcotest.(check int64) "src2 bits" (bits (hard 2.0 (fl nanv))) r2)
              [ neg_qnan; pos_qnan ])
          [ (Soft64.add, ( +. )); (Soft64.sub, ( -. )); (Soft64.mul, ( *. ));
            (Soft64.div, ( /. )) ]);
    Alcotest.test_case "0/0 and inf-inf give hardware's indefinite" `Quick
      (fun () ->
        let r1, _ = Soft64.div rne (bits 0.0) (bits 0.0) in
        Alcotest.(check int64) "0/0" (bits (0.0 /. 0.0)) r1;
        let r2, _ = Soft64.sub rne (bits Float.infinity) (bits Float.infinity) in
        Alcotest.(check int64) "inf-inf" (bits (Float.infinity -. Float.infinity)) r2)
  ]

(* The same hardware oracles, on the software kernel alone. *)
let kernel_oracle_tests =
  [ binop_oracle "kernel add" ( +. ) Exact.add;
    binop_oracle "kernel sub" ( -. ) Exact.sub;
    binop_oracle "kernel mul" ( *. ) Exact.mul;
    binop_oracle "kernel div" ( /. ) Exact.div;
    unop_oracle "kernel sqrt" Float.sqrt Exact.sqrt ]

let oracle_tests =
  [ binop_oracle "add" ( +. ) Soft64.add;
    binop_oracle "sub" ( -. ) Soft64.sub;
    binop_oracle "mul" ( *. ) Soft64.mul;
    binop_oracle "div" ( /. ) Soft64.div;
    unop_oracle "sqrt" Float.sqrt Soft64.sqrt;
    q "fma matches hardware" (QCheck.triple arb_double arb_double arb_double)
      (fun (a, b, c) ->
        let h = bits (Float.fma (fl a) (fl b) (fl c)) in
        let s, _ = Soft64.fma rne a b c in
        same_result h s);
    q "compare matches hardware" (QCheck.pair arb_double arb_double)
      (fun (a, b) ->
        let fa = fl a and fb = fl b in
        let expected =
          if Float.is_nan fa || Float.is_nan fb then Softfp.Cmp_unordered
          else if fa < fb then Softfp.Cmp_lt
          else if fa > fb then Softfp.Cmp_gt
          else Softfp.Cmp_eq
        in
        fst (Soft64.compare_quiet a b) = expected);
    q "round-trip f64->f32->f64 when exact" QCheck.float (fun f ->
        (* floats representable in f32 convert exactly both ways *)
        let f32 = Int32.float_of_bits (Int32.bits_of_float f) in
        QCheck.assume (Float.is_finite f32);
        let s32, _ = Convert.f64_to_f32 rne (bits f32) in
        let s64, _ = Convert.f32_to_f64 rne s32 in
        Int64.equal s64 (bits f32));
    q "f64->f32 matches hardware narrowing" arb_double (fun a ->
        let h = Int32.bits_of_float (fl a) in
        let s, _ = Convert.f64_to_f32 rne a in
        if Float.is_nan (fl a) then Soft32.is_nan s
        else Int64.equal (Int64.logand (Int64.of_int32 h) 0xFFFFFFFFL) s);
    q "to_int64 truncation matches hardware" arb_double (fun a ->
        let f = fl a in
        QCheck.assume (Float.is_finite f && Float.abs f < 9.0e18);
        let v, _ = Soft64.to_int64 Softfp.Toward_zero a in
        Int64.equal v (Int64.of_float f));
    q "of_int64 matches hardware" (QCheck.make QCheck.Gen.int) (fun i ->
        let v, _ = Soft64.of_int64 rne (Int64.of_int i) in
        Int64.equal v (bits (Int64.to_float (Int64.of_int i))));
    q "round_to_integral floor matches" arb_double (fun a ->
        let f = fl a in
        QCheck.assume (Float.is_finite f);
        let v, _ = Soft64.round_to_integral Softfp.Toward_neg a in
        Int64.equal v (bits (Float.floor f)));
    q "round_to_integral ceil matches" arb_double (fun a ->
        let f = fl a in
        QCheck.assume (Float.is_finite f);
        let v, _ = Soft64.round_to_integral Softfp.Toward_pos a in
        Int64.equal v (bits (Float.ceil f)));
    q "min_op/max_op pick an operand" (QCheck.pair arb_double arb_double)
      (fun (a, b) ->
        let mn, _ = Soft64.min_op a b and mx, _ = Soft64.max_op a b in
        (Int64.equal mn a || Int64.equal mn b)
        && (Int64.equal mx a || Int64.equal mx b))
  ]

(* Directed-rounding cross-checks: RUP result >= RNE result >= RDN result
   (as reals), and RTZ has the smallest magnitude. *)
let bracket_add name add =
  q name (QCheck.pair arb_double arb_double) (fun (a, b) ->
      QCheck.assume (Float.is_finite (fl a) && Float.is_finite (fl b));
      let r m = fl (fst (add m a b)) in
      let up = r Softfp.Toward_pos
      and dn = r Softfp.Toward_neg
      and ne = r rne
      and tz = r Softfp.Toward_zero in
      QCheck.assume (Float.is_finite ne);
      dn <= ne && ne <= up && Float.abs tz <= Float.abs up +. Float.abs dn)

let rtz_below_rne name mul =
  q name (QCheck.pair arb_double arb_double) (fun (a, b) ->
      QCheck.assume (Float.is_finite (fl a) && Float.is_finite (fl b));
      let ne = fl (fst (mul rne a b)) in
      let tz = fl (fst (mul Softfp.Toward_zero a b)) in
      QCheck.assume (Float.is_finite ne && not (Float.is_nan ne));
      Float.abs tz <= Float.abs ne)

let rounding_tests =
  [ bracket_add "directed roundings bracket RNE (add)" Soft64.add;
    rtz_below_rne "mul rtz magnitude <= rne magnitude" Soft64.mul;
    bracket_add "kernel: directed roundings bracket RNE (add)" Exact.add;
    rtz_below_rne "kernel: mul rtz magnitude <= rne magnitude" Exact.mul ]

(* ---- fast-path differential ---------------------------------------- *)

(* Soft64 against the exact kernel, on result bits and flags, for the
   five operations that have a host fast path, in all four rounding
   modes (the directed ones must fall through to the kernel unchanged).
   Operands are biased toward every boundary the fast path reasons
   about: exponent fields 0, 1, 2 and 2045..2047, the window edges +-2,
   all-zero and all-one mantissas, cancelling pairs (a, -a +- k ulp),
   and products and quotients aimed at the window edges and at results
   that round up to min_normal. *)
let pack s e m =
  Int64.logor
    (Int64.shift_left (Int64.of_int s) 63)
    (Int64.logor (Int64.shift_left (Int64.of_int e) 52)
       (Int64.logand m 0xFFFFFFFFFFFFFL))

let edge_exps =
  List.concat_map
    (fun e -> [ e - 2; e - 1; e; e + 1; e + 2 ])
    [ Soft64.win_lo; Soft64.win_hi ]
  @ [ 0; 1; 2; 2045; 2046; 2047; 1022; 1023; 1024 ]

let gen_edge_double =
  QCheck.Gen.(
    let* s = int_bound 1 in
    let* e = frequency [ (2, oneofl edge_exps); (1, int_bound 2047) ] in
    let* m =
      frequency
        [ (1, return 0L);
          (1, return 0xFFFFFFFFFFFFFL);
          (3, map Int64.of_int (int_bound max_int));
          (1, map Int64.of_int (int_bound 15));
          (1, map (fun k -> Int64.sub 0xFFFFFFFFFFFFFL (Int64.of_int k)) (int_bound 15)) ]
    in
    return (pack s e m))

(* b's exponent field chosen so that a op b lands near [target]. *)
let gen_aimed ~quotient =
  QCheck.Gen.(
    let* ea = int_range 1 2046 in
    let* target =
      oneofl [ 1; Soft64.win_lo; Soft64.win_hi; 2046 ] >>= fun t ->
      int_range (t - 2) (t + 2)
    in
    let eb = if quotient then ea + 1023 - target else target + 1023 - ea in
    let* sa = int_bound 1 and* sb = int_bound 1 in
    let* ma = oneof [ return 0xFFFFFFFFFFFFFL; map Int64.of_int (int_bound max_int) ] in
    let* mb = oneof [ return 0L; map Int64.of_int (int_bound 15); map Int64.of_int (int_bound max_int) ] in
    return (pack sa ea ma, pack sb (max 0 (min 2047 eb)) mb))

let gen_edge_pair =
  QCheck.Gen.(
    frequency
      [ (4, pair gen_edge_double gen_edge_double);
        (2,
         (* cancellation: a and -a +- k ulp *)
         let* a = gen_edge_double and* k = int_range (-4) 4 in
         return (a, Int64.add (Int64.logxor a Int64.min_int) (Int64.of_int k)));
        (1,
         let* a = gen_edge_double and* k = int_range (-4) 4 in
         return (a, Int64.add a (Int64.of_int k)));
        (2, gen_aimed ~quotient:false);
        (1, gen_aimed ~quotient:true);
        (1,
         (* (2 - 2^-52 k) 2^(ea-1023) * 2^-ea: tiny before rounding,
            min_normal after, for small k *)
         let* ea = int_range 1 1022 and* k = int_bound 3 and* s = int_bound 1 in
         return
           (pack s ea (Int64.sub 0xFFFFFFFFFFFFFL (Int64.of_int k)),
            pack 0 (1023 - ea) 0L)) ])

let gen_mode =
  QCheck.Gen.frequency
    [ (4, QCheck.Gen.return rne);
      (1, QCheck.Gen.return Softfp.Toward_zero);
      (1, QCheck.Gen.return Softfp.Toward_pos);
      (1, QCheck.Gen.return Softfp.Toward_neg) ]

let arb_edge_case =
  QCheck.make
    ~print:(fun (m, (a, b)) ->
      Format.asprintf "%a 0x%016Lx (%h) 0x%016Lx (%h)" Softfp.pp_rounding m a
        (fl a) b (fl b))
    QCheck.Gen.(pair gen_mode gen_edge_pair)

let agree (r1, f1) (r2, f2) = Int64.equal r1 r2 && f1 = f2

let fast_path_tests =
  let count = 200_000 in
  let bin name fast exact =
    q ~count (name ^ " agrees with the exact kernel") arb_edge_case
      (fun (m, (a, b)) -> agree (fast m a b) (exact m a b))
  in
  [ bin "add" Soft64.add Exact.add;
    bin "sub" Soft64.sub Exact.sub;
    bin "mul" Soft64.mul Exact.mul;
    bin "div" Soft64.div Exact.div;
    q ~count "sqrt agrees with the exact kernel" arb_edge_case
      (fun (m, (a, _)) -> agree (Soft64.sqrt m a) (Exact.sqrt m a)) ]

(* Flag semantics: hand-constructed cases. *)
let flag_tests =
  [ Alcotest.test_case "exact add raises nothing" `Quick (fun () ->
        let _, f = Soft64.add rne (bits 1.0) (bits 2.0) in
        Alcotest.check flags_t "flags" Flags.none f);
    Alcotest.test_case "inexact add raises PE" `Quick (fun () ->
        let _, f = Soft64.add rne (bits 1.0) (bits 1e-30) in
        Alcotest.check flags_t "flags" Flags.inexact f);
    Alcotest.test_case "overflow raises OE+PE" `Quick (fun () ->
        let _, f = Soft64.mul rne (bits 1e308) (bits 1e308) in
        Alcotest.check flags_t "flags" Flags.(union overflow inexact) f);
    Alcotest.test_case "underflow raises UE+PE" `Quick (fun () ->
        (* Both operands normal, result tiny and inexact. *)
        let _, f = Soft64.mul rne (bits 3e-308) (bits 1e-10) in
        Alcotest.check flags_t "flags" Flags.(union underflow inexact) f);
    Alcotest.test_case "div by zero raises ZE" `Quick (fun () ->
        let r, f = Soft64.div rne (bits 1.0) (bits 0.0) in
        Alcotest.check flags_t "flags" Flags.div_by_zero f;
        Alcotest.check b64 "inf" Soft64.pos_inf r);
    Alcotest.test_case "0/0 raises IE" `Quick (fun () ->
        let r, f = Soft64.div rne (bits 0.0) (bits 0.0) in
        Alcotest.check flags_t "flags" Flags.invalid f;
        Alcotest.(check bool) "nan" true (Soft64.is_nan r));
    Alcotest.test_case "inf - inf raises IE" `Quick (fun () ->
        let _, f = Soft64.add rne Soft64.pos_inf Soft64.neg_inf in
        Alcotest.check flags_t "flags" Flags.invalid f);
    Alcotest.test_case "sqrt(-1) raises IE" `Quick (fun () ->
        let r, f = Soft64.sqrt rne (bits (-1.0)) in
        Alcotest.check flags_t "flags" Flags.invalid f;
        Alcotest.(check bool) "nan" true (Soft64.is_nan r));
    Alcotest.test_case "sqrt(-0) is -0, no flags" `Quick (fun () ->
        let r, f = Soft64.sqrt rne Soft64.neg_zero in
        Alcotest.check flags_t "flags" Flags.none f;
        Alcotest.check b64 "neg zero" Soft64.neg_zero r);
    Alcotest.test_case "snan operand raises IE and quiets" `Quick (fun () ->
        let snan = Soft64.make_snan ~payload:42L in
        let r, f = Soft64.add rne snan (bits 1.0) in
        Alcotest.(check bool) "IE" true (Flags.mem ~flag:Flags.invalid f);
        Alcotest.(check bool) "qnan out" true (Soft64.is_qnan r);
        Alcotest.(check int64) "payload kept" 42L (Soft64.nan_payload r));
    Alcotest.test_case "qnan operand propagates without IE" `Quick (fun () ->
        let qnan = Soft64.make_qnan ~payload:99L in
        let r, f = Soft64.add rne qnan (bits 1.0) in
        Alcotest.check flags_t "flags" Flags.none f;
        Alcotest.(check int64) "payload" 99L (Soft64.nan_payload r));
    Alcotest.test_case "denormal operand raises DE" `Quick (fun () ->
        let tiny = bits 4.94e-324 in
        let _, f = Soft64.add rne tiny (bits 1.0) in
        Alcotest.(check bool) "DE" true (Flags.mem ~flag:Flags.denormal f));
    Alcotest.test_case "subnormal result detection" `Quick (fun () ->
        (* Exact tiny result: subnormal but exact, so no UE (x64 sets UE
           only when the tiny result is also inexact). *)
        let r, f = Soft64.mul rne (bits 2.2250738585072014e-308) (bits 0.5) in
        Alcotest.(check bool) "is subnormal" true (Soft64.is_subnormal r);
        Alcotest.check flags_t "no flags for exact tiny" Flags.none f;
        (* Inexact tiny result raises UE+PE. *)
        let _, f' = Soft64.mul rne (bits 2.2250738585072014e-308) (bits 0.3) in
        Alcotest.check flags_t "UE+PE" Flags.(union underflow inexact) f');
    Alcotest.test_case "signaling compare on qnan raises IE" `Quick (fun () ->
        let qnan = Soft64.make_qnan ~payload:1L in
        let c, f = Soft64.compare_signaling qnan (bits 1.0) in
        Alcotest.(check bool) "unordered" true (c = Softfp.Cmp_unordered);
        Alcotest.(check bool) "IE" true (Flags.mem ~flag:Flags.invalid f));
    Alcotest.test_case "quiet compare on qnan is silent" `Quick (fun () ->
        let qnan = Soft64.make_qnan ~payload:1L in
        let _, f = Soft64.compare_quiet qnan (bits 1.0) in
        Alcotest.check flags_t "flags" Flags.none f);
    Alcotest.test_case "to_int64 of NaN is invalid + indefinite" `Quick (fun () ->
        let v, f = Soft64.to_int64 rne (bits Float.nan) in
        Alcotest.(check int64) "indefinite" Int64.min_int v;
        Alcotest.check flags_t "flags" Flags.invalid f);
    Alcotest.test_case "to_int32 out of range is invalid" `Quick (fun () ->
        let v, f = Soft64.to_int32 rne (bits 3e9) in
        Alcotest.(check int32) "indefinite" Int32.min_int v;
        Alcotest.check flags_t "flags" Flags.invalid f);
    Alcotest.test_case "exact halfway rounds to even" `Quick (fun () ->
        (* 2^53 + 1 is exactly halfway between 2^53 and 2^53+2 *)
        let v, f = Soft64.of_int64 rne 9007199254740993L in
        Alcotest.check b64 "even" (bits 9007199254740992.0) v;
        Alcotest.check flags_t "inexact" Flags.inexact f);
    Alcotest.test_case "odd rounds up at halfway" `Quick (fun () ->
        let v, _ = Soft64.of_int64 rne 9007199254740995L in
        Alcotest.check b64 "up" (bits 9007199254740996.0) v)
  ]

let classify_tests =
  [ Alcotest.test_case "classification table" `Quick (fun () ->
        Alcotest.(check bool) "nan" true (Soft64.is_nan (bits Float.nan));
        Alcotest.(check bool) "inf" true (Soft64.is_inf Soft64.pos_inf);
        Alcotest.(check bool) "zero" true (Soft64.is_zero Soft64.neg_zero);
        Alcotest.(check bool) "sub" true (Soft64.is_subnormal (bits 4.94e-324));
        Alcotest.(check bool) "fin" true (Soft64.is_finite (bits 1.0));
        Alcotest.(check bool) "not fin" false (Soft64.is_finite Soft64.pos_inf);
        Alcotest.(check int) "sign -" 1 (Soft64.sign_bit (bits (-2.0)));
        Alcotest.(check int) "sign +" 0 (Soft64.sign_bit (bits 2.0)));
    Alcotest.test_case "snan/qnan distinction" `Quick (fun () ->
        let s = Soft64.make_snan ~payload:7L in
        Alcotest.(check bool) "snan" true (Soft64.is_snan s);
        Alcotest.(check bool) "not qnan" false (Soft64.is_qnan s);
        let qn = Soft64.quiet s in
        Alcotest.(check bool) "quieted" true (Soft64.is_qnan qn));
    Alcotest.test_case "bitwise ops carry no flags semantics" `Quick (fun () ->
        Alcotest.check b64 "neg" (bits (-1.5)) (Soft64.neg (bits 1.5));
        Alcotest.check b64 "abs" (bits 1.5) (Soft64.abs (bits (-1.5)));
        Alcotest.check b64 "copysign" (bits (-3.0))
          (Soft64.copysign (bits 3.0) (bits (-0.0))));
    Alcotest.test_case "f32 constants" `Quick (fun () ->
        Alcotest.(check int64) "one" (Int64.of_int32 (Int32.bits_of_float 1.0)) Soft32.one;
        Alcotest.(check bool) "inf" true (Soft32.is_inf Soft32.pos_inf))
  ]

let mxcsr_tests =
  [ Alcotest.test_case "default state" `Quick (fun () ->
        let m = Mxcsr.create () in
        Alcotest.(check int) "bits" 0x1F80 (Mxcsr.to_bits m);
        Alcotest.check flags_t "no flags" Flags.none (Mxcsr.flags m);
        Alcotest.(check bool) "rne" true (Mxcsr.rounding m = rne));
    Alcotest.test_case "flags are sticky" `Quick (fun () ->
        let m = Mxcsr.create () in
        Mxcsr.set_flags m Flags.inexact;
        Mxcsr.set_flags m Flags.overflow;
        Alcotest.check flags_t "accumulated" Flags.(union inexact overflow)
          (Mxcsr.flags m);
        Mxcsr.clear_flags m;
        Alcotest.check flags_t "cleared" Flags.none (Mxcsr.flags m));
    Alcotest.test_case "unmasked events" `Quick (fun () ->
        let m = Mxcsr.create () in
        Alcotest.check flags_t "all masked" Flags.none
          (Mxcsr.unmasked_events m Flags.all);
        Mxcsr.unmask_all m;
        Alcotest.check flags_t "all unmasked" Flags.all
          (Mxcsr.unmasked_events m Flags.all);
        Mxcsr.set_masks m Flags.inexact;
        Alcotest.check flags_t "inexact suppressed"
          Flags.(union invalid overflow)
          (Mxcsr.unmasked_events m Flags.(union (union invalid overflow) inexact)));
    Alcotest.test_case "rounding control roundtrip" `Quick (fun () ->
        let m = Mxcsr.create () in
        List.iter
          (fun r ->
            Mxcsr.set_rounding m r;
            Alcotest.(check bool) "rc" true (Mxcsr.rounding m = r))
          [ Softfp.Nearest_even; Softfp.Toward_zero; Softfp.Toward_pos;
            Softfp.Toward_neg ])
  ]

(* Exhaustive special-value cross products: every pair of specials through
   every binop must match the hardware. *)
let matrix name add sub mul div =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let check name hard soft =
                let h = bits (hard a b) in
                let s, _ = soft rne (bits a) (bits b) in
                if not (same_result h s) then
                  Alcotest.failf "%s %h %h: hw=%016Lx soft=%016Lx" name a b h s
              in
              check "add" ( +. ) add;
              check "sub" ( -. ) sub;
              check "mul" ( *. ) mul;
              check "div" ( /. ) div)
            specials)
        specials)

let special_matrix =
  [ matrix "special-value matrix (add/sub/mul/div)" Soft64.add Soft64.sub
      Soft64.mul Soft64.div;
    matrix "special-value matrix, exact kernel" Exact.add Exact.sub Exact.mul
      Exact.div ]

let () =
  Alcotest.run "ieee754"
    [ ("nan-propagation", nan_prop_tests);
      ("oracle", oracle_tests);
      ("kernel-oracle", kernel_oracle_tests);
      ("rounding", rounding_tests);
      ("fast-path", fast_path_tests);
      ("flags", flag_tests);
      ("classify", classify_tests);
      ("mxcsr", mxcsr_tests);
      ("special-matrix", special_matrix) ]

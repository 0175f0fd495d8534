(* FPVM engine tests: NaN-boxing, arena/GC, trap-and-emulate
   transparency (Vanilla == native), precision effects (MPFR), the
   correctness-trap path, and the alternative approaches. *)

open Machine
module E_vanilla = Fpvm.Engine.Make (Fpvm.Alt_vanilla)
module E_mpfr = Fpvm.Engine.Make (Fpvm.Alt_mpfr)
module E_posit = Fpvm.Engine.Make (Fpvm.Alt_posit)

let xmm n = Isa.Xmm n
let reg r = Isa.Reg r
let immi v = Isa.Imm (Int64.of_int v)

(* ---- nanbox unit + property tests ---- *)

let nanbox_tests =
  let q name ?(count = 2000) arb law =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED5 |])
 (QCheck.Test.make ~count ~name arb law)
  in
  [ Alcotest.test_case "box roundtrip basics" `Quick (fun () ->
        List.iter
          (fun i ->
            let b = Fpvm.Nanbox.box i in
            Alcotest.(check bool) "is_boxed" true (Fpvm.Nanbox.is_boxed b);
            Alcotest.(check int) "unbox" i (Fpvm.Nanbox.unbox b);
            (* boxed values are signaling NaNs *)
            Alcotest.(check bool) "snan" true (Ieee754.Soft64.is_snan b))
          [ 0; 1; 42; 65535; Fpvm.Nanbox.max_index ]);
    Alcotest.test_case "box rejects out-of-range" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Nanbox.box: index")
          (fun () -> ignore (Fpvm.Nanbox.box (-1))));
    q "ordinary doubles are never boxed" QCheck.float (fun f ->
        QCheck.assume (not (Float.is_nan f));
        not (Fpvm.Nanbox.is_boxed (Int64.bits_of_float f)));
    q "box roundtrip (random index)" (QCheck.int_range 0 1000000) (fun i ->
        Fpvm.Nanbox.unbox (Fpvm.Nanbox.box i) = i);
    Alcotest.test_case "quiet NaN is not boxed" `Quick (fun () ->
        Alcotest.(check bool) "qnan" false
          (Fpvm.Nanbox.is_boxed (Int64.bits_of_float Float.nan)));
    Alcotest.test_case "foreign snan detected" `Quick (fun () ->
        let s = Ieee754.Soft64.make_snan ~payload:3L in
        Alcotest.(check bool) "foreign" true (Fpvm.Nanbox.is_foreign_snan s);
        Alcotest.(check bool) "not ours" false (Fpvm.Nanbox.is_boxed s))
  ]

let arena_tests =
  [ Alcotest.test_case "alloc/get/sweep" `Quick (fun () ->
        let a = Fpvm.Arena.create ~capacity:2 () in
        let i1 = Fpvm.Arena.alloc a 1.5 in
        let i2 = Fpvm.Arena.alloc a 2.5 in
        let i3 = Fpvm.Arena.alloc a 3.5 in
        Alcotest.(check (option (float 0.0))) "get" (Some 2.5) (Fpvm.Arena.get a i2);
        Alcotest.(check int) "live" 3 (Fpvm.Arena.live_count a);
        Fpvm.Arena.clear_marks a;
        Fpvm.Arena.mark a i1;
        Fpvm.Arena.mark a i3;
        let freed = Fpvm.Arena.sweep a in
        Alcotest.(check int) "freed" 1 freed;
        Alcotest.(check (option (float 0.0))) "gone" None (Fpvm.Arena.get a i2);
        Alcotest.(check (option (float 0.0))) "kept" (Some 3.5) (Fpvm.Arena.get a i3);
        (* freed index is reused *)
        let i4 = Fpvm.Arena.alloc a 9.0 in
        Alcotest.(check int) "reuse" i2 i4);
    Alcotest.test_case "stats" `Quick (fun () ->
        let a = Fpvm.Arena.create () in
        for i = 0 to 99 do
          ignore (Fpvm.Arena.alloc a (float_of_int i))
        done;
        Alcotest.(check int) "total" 100 a.Fpvm.Arena.total_alloc;
        Alcotest.(check int) "high water" 100 a.Fpvm.Arena.high_water;
        Fpvm.Arena.clear_marks a;
        let freed = Fpvm.Arena.sweep a in
        Alcotest.(check int) "all freed" 100 freed)
  ]

(* ---- a rounding-heavy test program ---- *)

(* Computes x <- x * 1.1 + 0.3 iterated n times starting from 0.1, then
   s = sqrt(x), prints both. Nearly every operation rounds, so under
   FPVM everything gets promoted. *)
let build_iter_prog n =
  let b = Program.create ~name:"iter" () in
  let c = Program.data_f64 b [| 0.1; 1.1; 0.3 |] in
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RCX; src = immi n });
  let loop = Program.new_label b in
  Program.place b loop;
  Program.emit b (Isa.Fp_arith { op = Isa.FMUL; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
  Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 16)) });
  Program.emit b (Isa.Dec (reg Isa.RCX));
  Program.emit b (Isa.Cmp { a = reg Isa.RCX; b = immi 0 });
  Program.jcc b Isa.Jg loop;
  Program.emit b (Isa.Call_ext Isa.Print_f64);
  Program.emit b (Isa.Fp_arith { op = Isa.FSQRT; w = Isa.F64; packed = false; dst = xmm 0; src = xmm 0 });
  Program.emit b (Isa.Call_ext Isa.Print_f64);
  Program.emit b Isa.Halt;
  Program.finish b

(* The logistic map x <- r x (1-x) at r = 3.9: chaotic, so trajectories
   computed at different precisions fully decorrelate within ~60 steps. *)
let build_logistic_prog n =
  let b = Program.create ~name:"logistic" () in
  let c = Program.data_f64 b [| 0.2; 3.9; 1.0 |] in
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RCX; src = immi n });
  let loop = Program.new_label b in
  Program.place b loop;
  (* xmm1 = 1 - x *)
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 1; src = Isa.Mem (Isa.addr (c + 16)) });
  Program.emit b (Isa.Fp_arith { op = Isa.FSUB; w = Isa.F64; packed = false; dst = xmm 1; src = xmm 0 });
  Program.emit b (Isa.Fp_arith { op = Isa.FMUL; w = Isa.F64; packed = false; dst = xmm 0; src = xmm 1 });
  Program.emit b (Isa.Fp_arith { op = Isa.FMUL; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
  Program.emit b (Isa.Dec (reg Isa.RCX));
  Program.emit b (Isa.Cmp { a = reg Isa.RCX; b = immi 0 });
  Program.jcc b Isa.Jg loop;
  Program.emit b (Isa.Call_ext Isa.Print_f64);
  Program.emit b Isa.Halt;
  Program.finish b

(* A program exercising the correctness-trap path: stores a rounded
   double to memory, reads its bits back as an integer (the Figure 6
   idiom), and uses them to decide a branch. *)
let build_bits_prog () =
  let b = Program.create ~name:"bits" () in
  let c = Program.data_f64 b [| 0.1; 0.2 |] in
  let slot = Program.data_zero b 8 in
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
  (* store the (promoted!) result, then reinterpret as int *)
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr slot); src = xmm 0 });
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr slot) });
  Program.emit b (Isa.Call_ext Isa.Print_i64);
  (* and the value still works as a float afterwards *)
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr slot) });
  Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b (Isa.Call_ext Isa.Print_f64);
  Program.emit b Isa.Halt;
  Program.finish b

let validation_tests =
  [ Alcotest.test_case "vanilla == native (iter program)" `Quick (fun () ->
        let prog = build_iter_prog 100 in
        let native = Fpvm.Engine.run_native prog in
        let v = E_vanilla.run prog in
        Alcotest.(check string) "identical output" native.Fpvm.Engine.output
          v.Fpvm.Engine.output;
        (* sequence emulation absorbs in-trace faults without delivery;
           delivered + absorbed equals the single-step engine's count *)
        Alcotest.(check bool) "traps occurred" true
          (v.Fpvm.Engine.stats.Fpvm.Stats.fp_traps
           + v.Fpvm.Engine.stats.Fpvm.Stats.traps_avoided
           > 100));
    Alcotest.test_case "vanilla == native (libm path)" `Quick (fun () ->
        let b = Program.create () in
        let c = Program.data_f64 b [| 1.2345 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Call_ext Isa.Sin);
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b (Isa.Call_ext Isa.Exp);
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let native = Fpvm.Engine.run_native prog in
        let v = E_vanilla.run prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          v.Fpvm.Engine.output);
    Alcotest.test_case "vanilla == native (bit reinterpretation)" `Quick
      (fun () ->
        let prog = build_bits_prog () in
        let native = Fpvm.Engine.run_native prog in
        let v = E_vanilla.run prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          v.Fpvm.Engine.output;
        Alcotest.(check bool) "correctness traps fired" true
          (v.Fpvm.Engine.stats.Fpvm.Stats.correctness_traps > 0);
        Alcotest.(check bool) "demotions happened" true
          (v.Fpvm.Engine.stats.Fpvm.Stats.correctness_demotions > 0));
    Alcotest.test_case "mpfr changes a chaotic trajectory" `Quick (fun () ->
        let prog = build_logistic_prog 300 in
        let native = Fpvm.Engine.run_native prog in
        let m = E_mpfr.run prog in
        Alcotest.(check bool) "different trajectories" true
          (native.Fpvm.Engine.output <> m.Fpvm.Engine.output);
        (* both stay inside the logistic map's invariant interval *)
        let v = float_of_string (String.trim m.Fpvm.Engine.output) in
        Alcotest.(check bool) "bounded" true (v > 0.0 && v < 1.0));
    Alcotest.test_case "vanilla matches native on the chaotic map" `Quick
      (fun () ->
        let prog = build_logistic_prog 300 in
        let native = Fpvm.Engine.run_native prog in
        let v = E_vanilla.run prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          v.Fpvm.Engine.output);
    Alcotest.test_case "posit run completes and approximates" `Quick (fun () ->
        let prog = build_iter_prog 50 in
        let native = Fpvm.Engine.run_native prog in
        let p = E_posit.run prog in
        let first_line s = List.hd (String.split_on_char '\n' s) in
        let nf = float_of_string (first_line native.Fpvm.Engine.output) in
        let pf = float_of_string (first_line p.Fpvm.Engine.output) in
        Alcotest.(check bool) "within 0.1%" true
          (Float.abs ((nf -. pf) /. nf) < 1e-3));
    Alcotest.test_case "gc reclaims shadow values" `Quick (fun () ->
        let prog = build_iter_prog 2000 in
        let config =
          { Fpvm.Engine.default_config with Fpvm.Engine.gc_interval = 500 }
        in
        let v = E_vanilla.run ~config prog in
        let s = v.Fpvm.Engine.stats in
        Alcotest.(check bool) "gc ran" true (s.Fpvm.Stats.gc_passes >= 3);
        Alcotest.(check bool) "freed most garbage" true
          (s.Fpvm.Stats.gc_freed > s.Fpvm.Stats.boxes_allocated / 2);
        (* the single live chain value survives: alive stays tiny *)
        Alcotest.(check bool) "alive small" true (s.Fpvm.Stats.gc_alive_last < 32));
    Alcotest.test_case "decode cache amortizes" `Quick (fun () ->
        (* in the unspecialized engine every revisit decodes; with plans
           on, decode happens only on a plan miss, so the cache's
           amortization is visible only with plans off *)
        let prog = build_iter_prog 500 in
        let config =
          { Fpvm.Engine.default_config with Fpvm.Engine.use_plans = false }
        in
        let v = E_vanilla.run ~config prog in
        let s = v.Fpvm.Engine.stats in
        Alcotest.(check bool) "hits >> misses" true
          (s.Fpvm.Stats.decode_hits > 50 * s.Fpvm.Stats.decode_misses);
        (* with plans on, the plan table takes over that role *)
        let sp = (E_vanilla.run prog).Fpvm.Engine.stats in
        Alcotest.(check bool) "plan hits >> plan misses" true
          (sp.Fpvm.Stats.plan_hits > 50 * sp.Fpvm.Stats.plan_misses));
    Alcotest.test_case "all three approaches agree (vanilla)" `Quick (fun () ->
        let prog = build_iter_prog 60 in
        let native = Fpvm.Engine.run_native prog in
        List.iter
          (fun approach ->
            let config = { Fpvm.Engine.default_config with Fpvm.Engine.approach } in
            let r = E_vanilla.run ~config prog in
            Alcotest.(check string) "output" native.Fpvm.Engine.output
              r.Fpvm.Engine.output)
          [ Fpvm.Engine.Trap_and_emulate; Fpvm.Engine.Trap_and_patch;
            Fpvm.Engine.Static_transform ];
        (* A patched site's handler emulates exactly the executions the
           trap would have: never a second time after a failed native
           attempt. Tiers off, so both approaches step the same way. *)
        List.iter
          (fun (e : Workloads.entry) ->
            let prog = e.Workloads.program Workloads.Test in
            let run approach =
              (E_vanilla.run
                 ~config:
                   { Fpvm.Engine.default_config with
                     Fpvm.Engine.approach; use_plans = false; use_jit = false }
                 prog)
                .Fpvm.Engine.stats
            in
            let te = run Fpvm.Engine.Trap_and_emulate
            and tp = run Fpvm.Engine.Trap_and_patch in
            Alcotest.(check (pair int int))
              (e.Workloads.name ^ ": patch emulations, boxes = emulate's")
              (te.Fpvm.Stats.emulated_insns, te.Fpvm.Stats.boxes_allocated)
              (tp.Fpvm.Stats.emulated_insns, tp.Fpvm.Stats.boxes_allocated))
          Workloads.all);
    Alcotest.test_case "trap-and-patch stops trapping after patch" `Quick
      (fun () ->
        let prog = build_iter_prog 500 in
        let config =
          { Fpvm.Engine.default_config with
            Fpvm.Engine.approach = Fpvm.Engine.Trap_and_patch }
        in
        let r = E_vanilla.run ~config prog in
        let s = r.Fpvm.Engine.stats in
        (* only the first visit of each site traps; the rest go through
           the patch *)
        Alcotest.(check bool) "few kernel traps" true (s.Fpvm.Stats.fp_traps < 20);
        Alcotest.(check bool) "many patch invocations" true
          (s.Fpvm.Stats.patch_invocations > 400));
    Alcotest.test_case "always-emulate mode (footnote 2) is transparent" `Quick
      (fun () ->
        let prog = build_iter_prog 100 in
        let native = Fpvm.Engine.run_native prog in
        let config =
          { Fpvm.Engine.default_config with
            Fpvm.Engine.approach = Fpvm.Engine.Static_transform;
            Fpvm.Engine.always_emulate = true }
        in
        let r = E_vanilla.run ~config prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          r.Fpvm.Engine.output;
        (* every FP instruction was emulated, not just the rounding ones *)
        Alcotest.(check bool) "all fp insns emulated" true
          (r.Fpvm.Engine.stats.Fpvm.Stats.emulated_insns
           >= r.Fpvm.Engine.fp_insns - 5));
    Alcotest.test_case "static transform uses no kernel traps" `Quick (fun () ->
        let prog = build_iter_prog 200 in
        let config =
          { Fpvm.Engine.default_config with
            Fpvm.Engine.approach = Fpvm.Engine.Static_transform }
        in
        let r = E_vanilla.run ~config prog in
        let s = r.Fpvm.Engine.stats in
        Alcotest.(check int) "zero sigfpe" 0 s.Fpvm.Stats.fp_traps;
        Alcotest.(check bool) "checked stubs ran" true
          (s.Fpvm.Stats.checked_invocations > 200))
  ]

(* ---- VSA tests ---- *)

let vsa_tests =
  [ Alcotest.test_case "detects the Fig 6 store-load idiom" `Quick (fun () ->
        let prog = build_bits_prog () in
        let a = Fpvm.Vsa.analyze prog in
        (* instruction 3 is the integer load of the stored double *)
        Alcotest.(check bool) "sink found" true (List.mem 3 a.Fpvm.Vsa.sinks));
    Alcotest.test_case "pure integer loads are proven safe" `Quick (fun () ->
        let b = Program.create () in
        let ints = Program.data_i64 b [| 10L; 20L |] in
        let floats = Program.data_f64 b [| 1.5 |] in
        (* float store to its own a-loc *)
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr floats) });
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr floats); src = xmm 0 });
        (* integer load from a different a-loc *)
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr ints) });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let a = Fpvm.Vsa.analyze prog in
        Alcotest.(check int) "no sinks" 0 (List.length a.Fpvm.Vsa.sinks);
        Alcotest.(check bool) "loads seen" true (a.Fpvm.Vsa.total_int_loads >= 1);
        Alcotest.(check bool) "proven" true (a.Fpvm.Vsa.proven_safe_loads >= 1));
    Alcotest.test_case "xor-self is not a sink; sign-flip xor is" `Quick
      (fun () ->
        let b = Program.create () in
        let m = Program.data_f64 b [| -0.0; -0.0 |] in
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 0; src = xmm 0 });
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 1; src = Isa.Mem (Isa.addr m) });
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let a = Fpvm.Vsa.analyze prog in
        Alcotest.(check bool) "self not sink" true (not (List.mem 0 a.Fpvm.Vsa.sinks));
        Alcotest.(check bool) "flip is sink" true (List.mem 1 a.Fpvm.Vsa.sinks));
    Alcotest.test_case "movq is always a sink" `Quick (fun () ->
        let b = Program.create () in
        Program.emit b (Isa.Movq_xr { dst = Isa.RAX; src = 0 });
        Program.emit b Isa.Halt;
        let a = Fpvm.Vsa.analyze (Program.finish b) in
        Alcotest.(check bool) "sink" true (List.mem 0 a.Fpvm.Vsa.sinks))
  ]

let fpspy_tests =
  [ Alcotest.test_case "fpspy is transparent (output identical)" `Quick
      (fun () ->
        let prog = build_iter_prog 200 in
        let native = Fpvm.Engine.run_native prog in
        let spy = Fpvm.Fpspy.run prog in
        Alcotest.(check string) "output" native.Fpvm.Engine.output
          spy.Fpvm.Fpspy.run.Fpvm.Engine.output);
    Alcotest.test_case "fpspy counts rounding events" `Quick (fun () ->
        let spy = Fpvm.Fpspy.run (build_iter_prog 100) in
        let p = spy.Fpvm.Fpspy.profile in
        Alcotest.(check bool) "traps" true (p.Fpvm.Fpspy.total_traps >= 100);
        Alcotest.(check bool) "mostly rounding" true
          (p.Fpvm.Fpspy.rounded > p.Fpvm.Fpspy.total_traps / 2);
        Alcotest.(check int) "no overflow" 0 p.Fpvm.Fpspy.overflowed);
    Alcotest.test_case "fpspy finds the hot sites" `Quick (fun () ->
        let spy = Fpvm.Fpspy.run (build_iter_prog 300) in
        match Fpvm.Fpspy.top_sites ~n:2 spy.Fpvm.Fpspy.profile with
        | top :: _ ->
            Alcotest.(check bool) "hot site hit per iteration" true
              (top.Fpvm.Fpspy.hits >= 290)
        | [] -> Alcotest.fail "no sites recorded");
    Alcotest.test_case "fpspy sees NaN consumption as invalid" `Quick
      (fun () ->
        let open Machine in
        let b = Program.create () in
        let c = Program.data_f64 b [| 0.0; 1.0 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FDIV; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b Isa.Halt;
        let spy = Fpvm.Fpspy.run (Program.finish b) in
        (* 0/0 raises IE once; the resulting quiet NaN flows silently
           (only signaling NaNs re-trap - which is exactly why FPVM
           needs NaN-*boxing* to keep seeing its values) *)
        Alcotest.(check int) "one invalid event" 1
          spy.Fpvm.Fpspy.profile.Fpvm.Fpspy.invalid)
  ]

(* ---- slash (fixed-precision rational) arithmetic ---- *)

module Slash = Fpvm.Alt_slash

(* The slash port is a functor over the num/den bit budget; each test
   instantiates the budgets it needs (two can coexist in one test). *)
module Slash8 = Fpvm.Alt_slash.Make (struct let bits = 8 end)
module Slash9 = Fpvm.Alt_slash.Make (struct let bits = 9 end)
module Slash16 = Fpvm.Alt_slash.Make (struct let bits = 16 end)
module E_slash128 =
  Fpvm.Engine.Make (Fpvm.Alt_slash.Make (struct let bits = 128 end))

let slash_tests =
  [ Alcotest.test_case "exact field arithmetic (1/3 * 3 = 1)" `Quick (fun () ->
        let one = Slash.promote (Int64.bits_of_float 1.0) in
        let three = Slash.promote (Int64.bits_of_float 3.0) in
        let third = Slash.div one three in
        Alcotest.(check string) "repr" "1/3" (Slash.to_string third);
        Alcotest.(check bool) "back to one" true
          (Slash.cmp_quiet (Slash.mul third three) one = Ieee754.Softfp.Cmp_eq));
    Alcotest.test_case "budget rounding walks pi's convergents" `Quick
      (fun () ->
        (* 8-bit budget: 333/106 busts (333 > 256), so 22/7 remains;
           9-bit budget admits 355/113 *)
        let pi8 = Slash8.promote (Int64.bits_of_float Float.pi) in
        Alcotest.(check string) "22/7" "22/7" (Slash8.to_string pi8);
        let pi9 = Slash9.promote (Int64.bits_of_float Float.pi) in
        Alcotest.(check string) "355/113" "355/113" (Slash9.to_string pi9));
    Alcotest.test_case "0.1 + 0.2 = 0.3 exactly at small budgets" `Quick
      (fun () ->
        (* with a 16-bit budget, promote snaps each double to its best
           small rational: 1/10, 1/5, 3/10 - and the artifact vanishes *)
        let p f = Slash16.promote (Int64.bits_of_float f) in
        Alcotest.(check string) "tenth" "1/10" (Slash16.to_string (p 0.1));
        let sum = Slash16.add (p 0.1) (p 0.2) in
        Alcotest.(check bool) "equals 3/10" true
          (Slash16.cmp_quiet sum (p 0.3) = Ieee754.Softfp.Cmp_eq));
    Alcotest.test_case "to_i64 rounding modes" `Quick (fun () ->
        let half3 =
          Slash.div
            (Slash.promote (Int64.bits_of_float 7.0))
            (Slash.promote (Int64.bits_of_float 2.0))
        in
        (* 7/2 = 3.5 *)
        Alcotest.(check int64) "rne ties-to-even" 4L
          (Slash.to_i64 Ieee754.Softfp.Nearest_even half3);
        Alcotest.(check int64) "trunc" 3L
          (Slash.to_i64 Ieee754.Softfp.Toward_zero half3);
        Alcotest.(check int64) "floor" 3L
          (Slash.to_i64 Ieee754.Softfp.Toward_neg half3);
        Alcotest.(check int64) "ceil" 4L
          (Slash.to_i64 Ieee754.Softfp.Toward_pos half3));
    Alcotest.test_case "engine run under slash arithmetic" `Quick (fun () ->
        let prog = build_iter_prog 40 in
        let native = Fpvm.Engine.run_native prog in
        let r = E_slash128.run prog in
        (* rational arithmetic stays near the IEEE result at this scale *)
        let f s = float_of_string (List.hd (String.split_on_char '\n' s)) in
        let nf = f native.Fpvm.Engine.output and sf = f r.Fpvm.Engine.output in
        Alcotest.(check bool) "close" true
          (Float.abs ((nf -. sf) /. nf) < 1e-9))
  ]

let () =
  Alcotest.run "fpvm"
    [ ("nanbox", nanbox_tests);
      ("slash", slash_tests);
      ("arena", arena_tests);
      ("validation", validation_tests);
      ("fpspy", fpspy_tests);
      ("vsa", vsa_tests) ]

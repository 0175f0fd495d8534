(* Tests for the tiered static analysis (lib/analysis): the
   strided-interval domain, the CFG, flow-sensitive precision of the
   pipeline (strong updates, bounded array stores, branch refinement),
   the legacy pass's conservatism, the sink-exemption idioms (self-xor
   zeroing, clean BANDN, dead gpr<-xmm moves), idempotent patching, and
   the engine's soundness oracle / trace-hint invalidation. *)

open Machine
module Si = Analysis.Si
module Cfg = Analysis.Cfg
module AP = Analysis.Pipeline
module Fpa = Analysis.Fpa
module E_vanilla = Fpvm.Engine.Make (Fpvm.Alt_vanilla)

let xmm n = Isa.Xmm n
let reg r = Isa.Reg r
let immi v = Isa.Imm (Int64.of_int v)

(* ---- strided intervals ---- *)

let si = Alcotest.testable Si.pp Si.equal

let si_tests =
  [ Alcotest.test_case "join of singletons infers stride" `Quick (fun () ->
        Alcotest.check si "4 |_| 12"
          (Si.range ~stride:8 4 12)
          (Si.join (Si.singleton 4) (Si.singleton 12));
        Alcotest.check si "join with bot" (Si.singleton 7)
          (Si.join Si.bot (Si.singleton 7)));
    Alcotest.test_case "contains respects congruence" `Quick (fun () ->
        let v = Si.range ~stride:8 0 24 in
        Alcotest.(check bool) "16 in" true (Si.contains v 16);
        Alcotest.(check bool) "24 in" true (Si.contains v 24);
        Alcotest.(check bool) "12 out (wrong class)" false (Si.contains v 12);
        Alcotest.(check bool) "32 out (above hi)" false (Si.contains v 32));
    Alcotest.test_case "norm clips hi onto the lattice" `Quick (fun () ->
        (* [0,20] with stride 8 only reaches 16 *)
        Alcotest.check si "clip" (Si.range ~stride:8 0 16)
          (Si.range ~stride:8 0 20));
    Alcotest.test_case "meet snaps onto the congruence class" `Quick
      (fun () ->
        (* 8Z[0,64] /\ [10,20] = {16} *)
        Alcotest.check si "snap" (Si.singleton 16)
          (Si.meet (Si.range ~stride:8 0 64) (Si.range 10 20));
        (* empty after snapping *)
        Alcotest.check si "empty" Si.bot
          (Si.meet (Si.range ~stride:8 0 64) (Si.range 9 15)));
    Alcotest.test_case "widen sends grown bounds to infinity, keeps stride"
      `Quick (fun () ->
        let w = Si.widen (Si.range ~stride:8 0 16) (Si.range ~stride:8 0 32) in
        (match Si.bounds w with
        | Some (Some 0, None) -> ()
        | _ -> Alcotest.fail "expected [0, +inf)");
        Alcotest.(check bool) "stride survives" true (Si.contains w 800);
        Alcotest.(check bool) "congruence survives" false (Si.contains w 801));
    Alcotest.test_case "mul by a constant scales the stride" `Quick (fun () ->
        Alcotest.check si "8 * [0,10]"
          (Si.range ~stride:8 0 80)
          (Si.mul (Si.singleton 8) (Si.range 0 10));
        Alcotest.check si "shl 3"
          (Si.range ~stride:8 0 80)
          (Si.shl (Si.range 0 10) 3));
    Alcotest.test_case "logand with a non-negative mask is bounded" `Quick
      (fun () ->
        Alcotest.check si "top & 255" (Si.range 0 255)
          (Si.logand Si.top (Si.singleton 255));
        Alcotest.check si "const fold" (Si.singleton 4)
          (Si.logand (Si.singleton 12) (Si.singleton 6)))
  ]

(* ---- CFG construction ---- *)

(* 0: mov rcx, 3          block A
   1: loop: dec rcx       block B (loop head)
   2: cmp rcx, 0
   3: jg loop
   4: halt                block C *)
let loop_insns =
  [| Isa.Mov { size = 8; dst = reg Isa.RCX; src = immi 3 };
     Isa.Dec (reg Isa.RCX);
     Isa.Cmp { a = reg Isa.RCX; b = immi 0 };
     Isa.Jcc (Isa.Jg, 1);
     Isa.Halt
  |]

let cfg_tests =
  [ Alcotest.test_case "blocks, edges, loop heads" `Quick (fun () ->
        let g = Cfg.build loop_insns ~entry:0 in
        Alcotest.(check int) "3 blocks" 3 (Array.length g.Cfg.blocks);
        Alcotest.(check int) "one loop head" 1 g.Cfg.n_loop_heads;
        (* every instruction maps into a block that spans it *)
        Array.iteri
          (fun i b ->
            let blk = g.Cfg.blocks.(b) in
            Alcotest.(check bool) "span" true
              (blk.Cfg.first <= i && i <= blk.Cfg.last))
          g.Cfg.block_of;
        (* the loop body has two predecessors (entry + back edge) *)
        let body = g.Cfg.blocks.(g.Cfg.block_of.(1)) in
        Alcotest.(check int) "preds" 2 (List.length body.Cfg.preds);
        Alcotest.(check bool) "marked as head" true
          g.Cfg.loop_head.(body.Cfg.id);
        (* all three blocks are reachable and appear in rpo *)
        Alcotest.(check int) "rpo" 3 (Array.length g.Cfg.rpo);
        Alcotest.(check int) "entry first in rpo" g.Cfg.entry g.Cfg.rpo.(0));
    Alcotest.test_case "unreachable code is excluded" `Quick (fun () ->
        let insns =
          [| Isa.Jmp 2; Isa.Dec (reg Isa.RAX) (* dead *); Isa.Halt |]
        in
        let g = Cfg.build insns ~entry:0 in
        Alcotest.(check bool) "dead block" false
          g.Cfg.reachable.(g.Cfg.block_of.(1)))
  ]

(* ---- pipeline precision ---- *)

(* FP stores through a bounded induction variable (arr[i], i in 0..3)
   followed by an integer load of an unrelated slot placed just past the
   array.  The strided-interval pass bounds the store range to
   [arr, arr+32) and proves the load clean; the legacy pass only has a
   GlobalFrom summary for the dynamic store and must flag it. *)
let build_array_prog () =
  let b = Program.create ~name:"array" () in
  let arr = Program.data_f64 b [| 1.0; 2.0; 3.0; 4.0 |] in
  let islot = Program.data_i64 b [| 42L |] in
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr arr) });
  Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (arr + 8)) });
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RCX; src = immi 0 });
  let loop = Program.new_label b in
  let done_ = Program.new_label b in
  Program.place b loop;
  Program.emit b (Isa.Cmp { a = reg Isa.RCX; b = immi 4 });
  Program.jcc b Isa.Jge done_;
  Program.emit b
    (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr ~index:Isa.RCX ~scale:8 arr); src = xmm 0 });
  Program.emit b (Isa.Inc (reg Isa.RCX));
  Program.jmp b loop;
  Program.place b done_;
  let load_idx = Program.here b in
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr islot) });
  Program.emit b (Isa.Call_ext Isa.Print_i64);
  Program.emit b Isa.Halt;
  (Program.finish b, load_idx)

(* Figure-6 idiom: FP store then integer reload of the same slot. *)
let build_bits_prog () =
  let b = Program.create ~name:"bits" () in
  let c = Program.data_f64 b [| 0.1; 0.2 |] in
  let slot = Program.data_zero b 8 in
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr slot); src = xmm 0 });
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr slot) });
  Program.emit b (Isa.Call_ext Isa.Print_i64);
  Program.emit b Isa.Halt;
  Program.finish b

let sink_indices (p : AP.t) = List.map (fun s -> s.AP.sink_index) p.AP.sinks

let pipeline_tests =
  [ Alcotest.test_case "figure-6 load is the one sink, with provenance"
      `Quick (fun () ->
        let prog = build_bits_prog () in
        let p = AP.analyze prog in
        Alcotest.(check (list int)) "sinks" [ 3 ] (sink_indices p);
        let s = List.hd p.AP.sinks in
        Alcotest.(check bool) "kind" true (s.AP.kind = AP.K_int_load);
        (* provenance: the taint flows from the FP store at index 2 *)
        Alcotest.(check (list int)) "srcs" [ 2 ] s.AP.srcs;
        Alcotest.(check bool) "not bailed" false p.AP.bailed_out);
    Alcotest.test_case "bounded array store leaves outside load clean"
      `Quick (fun () ->
        let prog, load_idx = build_array_prog () in
        let p = AP.analyze prog in
        Alcotest.(check bool) "load proven safe" false
          (List.mem load_idx (sink_indices p));
        Alcotest.(check bool) "some load proven" true
          (p.AP.proven_safe_loads >= 1);
        (* the legacy pass cannot bound the dynamic store: its
           GlobalFrom summary swallows the slot past the array *)
        let l = Analysis.Legacy.analyze prog in
        Alcotest.(check bool) "legacy flags it" true
          (List.mem load_idx l.Analysis.Legacy.sinks));
    Alcotest.test_case "integer store strongly updates (kills) taint"
      `Quick (fun () ->
        let b = Program.create ~name:"strong" () in
        let c = Program.data_f64 b [| 0.1; 0.2 |] in
        let slot = Program.data_zero b 8 in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr slot); src = xmm 0 });
        (* overwrite the whole slot with a plain integer: taint dies *)
        Program.emit b (Isa.Mov { size = 8; dst = Isa.Mem (Isa.addr slot); src = immi 7 });
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr slot) });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let p = AP.analyze (Program.finish b) in
        Alcotest.(check (list int)) "no sinks" [] (sink_indices p);
        Alcotest.(check int) "proven" p.AP.total_int_loads
          p.AP.proven_safe_loads)
  ]

(* ---- sink-exemption idioms (satellite: self-xor, BANDN, dead movq) ---- *)

(* common prologue: dirty xmm0 with a promoted FP result *)
let dirty_prologue b c =
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) })

let idiom_tests =
  [ Alcotest.test_case "self-xor zeroing is exempt, and cleans the register"
      `Quick (fun () ->
        let b = Program.create ~name:"selfxor" () in
        let c = Program.data_f64 b [| 0.1; 0.2 |] in
        dirty_prologue b c;
        (* xorpd xmm0, xmm0 zeroes it: not a bit-observation... *)
        let x = Program.here b in
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 0; src = xmm 0 });
        (* ...and the subsequent reinterpret of the zeroed register is
           provably clean *)
        let m = Program.here b in
        Program.emit b (Isa.Movq_xr { dst = Isa.RDI; src = 0 });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let p = AP.analyze (Program.finish b) in
        let sinks = sink_indices p in
        Alcotest.(check bool) "xor exempt" false (List.mem x sinks);
        Alcotest.(check bool) "movq of zeroed xmm exempt" false
          (List.mem m sinks));
    Alcotest.test_case "BANDN sign-mask: clean operands exempt, dirty sinks"
      `Quick (fun () ->
        let b = Program.create ~name:"bandn" () in
        let c = Program.data_f64 b [| 0.1; 0.2 |] in
        (* both operands zeroed: andnpd is exempt *)
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 1; src = xmm 1 });
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 2; src = xmm 2 });
        let clean = Program.here b in
        Program.emit b (Isa.Fp_bit { op = Isa.BANDN; dst = xmm 1; src = xmm 2 });
        (* a promoted result flowing into andnpd must stay a sink *)
        dirty_prologue b c;
        let dirtyi = Program.here b in
        Program.emit b (Isa.Fp_bit { op = Isa.BANDN; dst = xmm 0; src = xmm 2 });
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let p = AP.analyze (Program.finish b) in
        let sinks = p.AP.sinks in
        Alcotest.(check bool) "clean bandn exempt" false
          (List.exists (fun s -> s.AP.sink_index = clean) sinks);
        Alcotest.(check bool) "dirty bandn is a sink" true
          (List.exists
             (fun s -> s.AP.sink_index = dirtyi && s.AP.kind = AP.K_fp_bit)
             sinks));
    Alcotest.test_case "gpr<-xmm immediately overwritten is dead" `Quick
      (fun () ->
        let b = Program.create ~name:"deadmovq" () in
        let c = Program.data_f64 b [| 0.1; 0.2 |] in
        dirty_prologue b c;
        (* movq rdi, xmm0 whose result is clobbered before any read *)
        let dead = Program.here b in
        Program.emit b (Isa.Movq_xr { dst = Isa.RDI; src = 0 });
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = immi 5 });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        (* the same movq actually consumed must be a sink *)
        let live = Program.here b in
        Program.emit b (Isa.Movq_xr { dst = Isa.RDI; src = 0 });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let p = AP.analyze (Program.finish b) in
        let sinks = p.AP.sinks in
        Alcotest.(check bool) "dead movq exempt" false
          (List.exists (fun s -> s.AP.sink_index = dead) sinks);
        Alcotest.(check bool) "live movq sinks" true
          (List.exists
             (fun s -> s.AP.sink_index = live && s.AP.kind = AP.K_movq)
             sinks))
  ]

(* ---- idempotent patching (satellite) ---- *)

let patch_tests =
  [ Alcotest.test_case "apply_patches twice is a no-op the second time"
      `Quick (fun () ->
        let prog = build_bits_prog () in
        let a = Fpvm.Vsa.analyze prog in
        Fpvm.Vsa.apply_patches prog a;
        (match prog.Program.insns.(3) with
        | Isa.Correctness_trap _ -> ()
        | _ -> Alcotest.fail "sink not wrapped");
        let once = Array.copy prog.Program.insns in
        Fpvm.Vsa.apply_patches prog a;
        Array.iteri
          (fun i insn ->
            if insn <> once.(i) then
              Alcotest.failf "insn %d changed on second application" i)
          prog.Program.insns)
  ]

(* ---- soundness oracle + trace hints ---- *)

let oracle_tests =
  [ Alcotest.test_case "oracle is quiet when the analysis patches" `Quick
      (fun () ->
        (* figure-6 idiom plus a clean integer load: the sink gets
           patched (so the oracle skips it) while the clean load stays
           bare and is checked on every dispatch *)
        let b = Program.create ~name:"bits+clean" () in
        let c = Program.data_f64 b [| 0.1; 0.2 |] in
        let slot = Program.data_zero b 8 in
        let islot = Program.data_i64 b [| 42L |] in
        dirty_prologue b c;
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr slot); src = xmm 0 });
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr slot) });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr islot) });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let native = Fpvm.Engine.run_native prog in
        let cfg = { Fpvm.Engine.default_config with oracle = true } in
        let r = E_vanilla.run ~config:cfg prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          r.Fpvm.Engine.output;
        Alcotest.(check bool) "loads observed" true
          (r.Fpvm.Engine.stats.Fpvm.Stats.oracle_loads_checked > 0);
        Alcotest.(check int) "no boxed leaks" 0
          r.Fpvm.Engine.stats.Fpvm.Stats.oracle_boxed_loads);
    Alcotest.test_case "oracle catches an unprotected boxed load" `Quick
      (fun () ->
        (* disable the analysis: the figure-6 reload runs unpatched and
           observes the NaN-boxed bits; the oracle must report it *)
        let prog = build_bits_prog () in
        let cfg =
          { Fpvm.Engine.default_config with use_vsa = false; oracle = true }
        in
        let r = E_vanilla.run ~config:cfg prog in
        Alcotest.(check bool) "violation detected" true
          (r.Fpvm.Engine.stats.Fpvm.Stats.oracle_boxed_loads > 0));
    Alcotest.test_case "demotion split: figure-6 demotions are boxed" `Quick
      (fun () ->
        let prog = build_bits_prog () in
        let r = E_vanilla.run prog in
        let s = r.Fpvm.Engine.stats in
        Alcotest.(check int) "split sums" s.Fpvm.Stats.correctness_demotions
          (s.Fpvm.Stats.corr_demote_boxed + s.Fpvm.Stats.corr_demote_clean);
        Alcotest.(check bool) "boxed demotions counted" true
          (s.Fpvm.Stats.corr_demote_boxed > 0));
    Alcotest.test_case "trap-and-patch invalidates trace hints" `Quick
      (fun () ->
        (* patching rewrites instructions mid-run; stale hints would let
           a trace run across a Patched site.  Output must stay exact. *)
        let b = Program.create ~name:"hint" () in
        let c = Program.data_f64 b [| 0.1; 1.1; 0.3 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RCX; src = immi 40 });
        let loop = Program.new_label b in
        Program.place b loop;
        Program.emit b (Isa.Fp_arith { op = Isa.FMUL; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 16)) });
        Program.emit b (Isa.Dec (reg Isa.RCX));
        Program.emit b (Isa.Cmp { a = reg Isa.RCX; b = immi 0 });
        Program.jcc b Isa.Jg loop;
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let native = Fpvm.Engine.run_native prog in
        let cfg =
          { Fpvm.Engine.default_config with
            approach = Fpvm.Engine.Trap_and_patch;
            oracle = true
          }
        in
        let r = E_vanilla.run ~config:cfg (Program.copy prog) in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          r.Fpvm.Engine.output;
        Alcotest.(check int) "oracle clean" 0
          r.Fpvm.Engine.stats.Fpvm.Stats.oracle_boxed_loads)
  ]

(* ---- taint map: differential against the list reference ---- *)

(* The taint operations as first written (two partitions, an append and
   a full coalesce per add; the join a left fold of add), kept as the
   oracle for the single-pass and zipper versions in Domain. *)
module Ref_taint = struct
  open Analysis.Domain

  let rec coalesce = function
    | a :: b :: rest when a.hi = b.lo && IntSet.equal a.srcs b.srcs ->
        coalesce ({ lo = a.lo; hi = b.hi; srcs = a.srcs } :: rest)
    | a :: rest -> a :: coalesce rest
    | [] -> []

  let add spans ~lo ~hi ~srcs =
    if hi <= lo then spans
    else begin
      let before, rest = List.partition (fun s -> s.hi <= lo) spans in
      let overlap, after = List.partition (fun s -> s.lo < hi) rest in
      let merged =
        List.fold_left
          (fun acc s ->
            { lo = min acc.lo s.lo; hi = max acc.hi s.hi;
              srcs = IntSet.union acc.srcs s.srcs })
          { lo; hi; srcs } overlap
      in
      coalesce (before @ (merged :: after))
    end

  let kill spans ~lo ~hi =
    if hi <= lo then spans
    else
      List.concat_map
        (fun s ->
          if s.hi <= lo || s.lo >= hi then [ s ]
          else
            (if s.lo < lo then [ { s with hi = lo } ] else [])
            @ if s.hi > hi then [ { s with lo = hi } ] else [])
        spans

  let join a b = List.fold_left (fun acc s -> add acc ~lo:s.lo ~hi:s.hi ~srcs:s.srcs) a b
end

module Dm = Analysis.Domain

let ints l = String.concat "," (List.map string_of_int l)

let taint_view (t : Dm.taint) =
  List.map (fun (s : Dm.span) -> (s.Dm.lo, s.Dm.hi, Dm.IntSet.elements s.Dm.srcs)) t

let show_taint t =
  String.concat " "
    (List.map
       (fun (lo, hi, srcs) -> Printf.sprintf "[%d,%d)%s" lo hi (ints srcs))
       (taint_view t))

(* sorted, disjoint, non-empty, no adjacent spans with equal provenance *)
let normal_form (t : Dm.taint) =
  List.for_all (fun (s : Dm.span) -> s.Dm.lo < s.Dm.hi) t
  &&
  let rec ok = function
    | (a : Dm.span) :: ((b : Dm.span) :: _ as rest) ->
        a.Dm.hi <= b.Dm.lo
        && (not (a.Dm.hi = b.Dm.lo && Dm.IntSet.equal a.Dm.srcs b.Dm.srcs))
        && ok rest
    | _ -> true
  in
  ok t

(* ops over a narrow byte range and few sources, so overlaps, exact
   adjacency and equal provenance all come up often *)
type taint_op = Add of int * int * int list | Kill of int * int

let gen_range =
  QCheck.Gen.(
    map2 (fun lo len -> (lo, lo + len)) (int_bound 48) (int_bound 12))

let gen_op =
  QCheck.Gen.(
    frequency
      [ (3, map2 (fun (lo, hi) srcs -> Add (lo, hi, srcs)) gen_range
              (list_size (int_range 1 2) (int_bound 3)));
        (1, map (fun (lo, hi) -> Kill (lo, hi)) gen_range) ])

let show_op = function
  | Add (lo, hi, srcs) -> Printf.sprintf "add[%d,%d)%s" lo hi (ints srcs)
  | Kill (lo, hi) -> Printf.sprintf "kill[%d,%d)" lo hi

let apply_ref t = function
  | Add (lo, hi, srcs) -> Ref_taint.add t ~lo ~hi ~srcs:(Dm.IntSet.of_list srcs)
  | Kill (lo, hi) -> Ref_taint.kill t ~lo ~hi

let apply_new t = function
  | Add (lo, hi, srcs) -> Dm.taint_add t ~lo ~hi ~srcs:(Dm.IntSet.of_list srcs)
  | Kill (lo, hi) -> Dm.taint_kill t ~lo ~hi

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_bound 24) gen_op)

let arb_two_ops = QCheck.pair arb_ops arb_ops

let build ops = List.fold_left apply_ref [] ops

let agree what expected actual =
  if not (normal_form actual) then
    QCheck.Test.fail_reportf "%s: not in normal form: %s" what (show_taint actual);
  if taint_view expected <> taint_view actual then
    QCheck.Test.fail_reportf "%s:\n  reference %s\n  new       %s" what
      (show_taint expected) (show_taint actual);
  true

let qtaint ~name arb law =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x7A147 |])
    (QCheck.Test.make ~count:3000 ~name arb law)

let taint_tests =
  [ qtaint ~name:"add and kill match the reference after every op" arb_ops
      (fun ops ->
        ignore
          (List.fold_left
             (fun (r, n) op ->
               let r = apply_ref r op and n = apply_new n op in
               ignore (agree (show_op op) r n);
               (r, n))
             ([], []) ops);
        true);
    qtaint ~name:"join is the left fold of add" arb_two_ops (fun (xs, ys) ->
        let a = build xs and b = build ys in
        agree "join a b" (Ref_taint.join a b) (Dm.taint_join a b)
        && agree "join b a" (Ref_taint.join b a) (Dm.taint_join b a)
        && agree "join a a" (Ref_taint.join a a) (Dm.taint_join a a)
        && agree "join a []" (Ref_taint.join a []) (Dm.taint_join a [])
        && agree "join [] a" (Ref_taint.join [] a) (Dm.taint_join [] a));
    qtaint ~name:"kill without overlap returns its input" arb_ops (fun ops ->
        let t = build ops in
        let hi = List.fold_left (fun m (s : Dm.span) -> max m s.Dm.hi) 0 t in
        Dm.taint_kill t ~lo:hi ~hi:(hi + 8) == t
        && Dm.taint_kill t ~lo:5 ~hi:5 == t)
  ]

(* ---- whole-analysis identity golden ---- *)

(* A canonical text rendering of everything [Vsa.analyze] decides, for
   every workload at both scales: the taint tier's sinks (kind and
   provenance), sources, exit taint spans, iteration and block counts,
   and the FP tier's per-site verdicts.  Host-time optimisations of the
   abstract domains must reproduce it byte for byte. *)

let identity_golden = "analysis_identity.txt"

let render_analysis buf (a : Fpvm.Vsa.analysis) =
  let pr fmt = Printf.bprintf buf fmt in
  let p = a.Fpvm.Vsa.pipeline in
  pr "pipeline iterations=%d n_blocks=%d n_loop_heads=%d bailed_out=%b\n"
    p.AP.iterations p.AP.n_blocks p.AP.n_loop_heads p.AP.bailed_out;
  pr "loads total=%d proven=%d elided=%d\n" p.AP.total_int_loads
    p.AP.proven_safe_loads p.AP.trap_checks_elided;
  pr "sources %s\n" (ints p.AP.sources);
  List.iter
    (fun (s : AP.sink) ->
      pr "sink %d %s srcs=%s\n" s.AP.sink_index
        (match s.AP.kind with
        | AP.K_int_load -> "int_load"
        | AP.K_movq -> "movq"
        | AP.K_fp_bit -> "fp_bit")
        (ints s.AP.srcs))
    p.AP.sinks;
  List.iter
    (fun (lo, hi, srcs) -> pr "taint [%d,%d) srcs=%s\n" lo hi (ints srcs))
    p.AP.tainted;
  let f = a.Fpvm.Vsa.fpa in
  pr "fpa iterations=%d sites=%d sub_free=%d born_free=%d proven=%d \
      bailed_out=%b\n"
    f.Fpa.iterations f.Fpa.sites f.Fpa.sub_free f.Fpa.born_free f.Fpa.proven
    f.Fpa.bailed_out;
  Array.iter
    (fun (v : Fpa.verdict) ->
      pr "verdict %d sub_free=%b born_free=%b risks=%s srcs=%s\n"
        v.Fpa.v_index v.Fpa.v_sub_free v.Fpa.v_born_free
        (String.concat "," v.Fpa.v_risks) (ints v.Fpa.v_srcs))
    f.Fpa.verdicts

let render_all_workloads () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (e : Workloads.entry) ->
      List.iter
        (fun (scale, tag) ->
          Printf.bprintf buf "== %s @ %s\n" e.Workloads.name tag;
          render_analysis buf (Fpvm.Vsa.analyze (e.Workloads.program scale)))
        [ (Workloads.Test, "test"); (Workloads.S, "s") ])
    Workloads.all;
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let identity_tests =
  [ Alcotest.test_case "Vsa.analyze reproduces the identity golden" `Slow
      (fun () ->
        let actual = render_all_workloads () in
        let expected = read_file identity_golden in
        if actual <> expected then begin
          (* leave the fresh rendering next to the test binary so a
             deliberate analysis change can be reviewed and committed *)
          let out = identity_golden ^ ".actual" in
          let oc = open_out_bin out in
          output_string oc actual;
          close_out oc;
          let la = String.split_on_char '\n' actual
          and le = String.split_on_char '\n' expected in
          let rec first i = function
            | a :: ra, e :: re -> if a = e then first (i + 1) (ra, re) else (i, a, e)
            | a :: _, [] -> (i, a, "<end of golden>")
            | [], e :: _ -> (i, "<end of rendering>", e)
            | [], [] -> (i, "", "")
          in
          let line, a, e = first 1 (la, le) in
          Alcotest.failf
            "analysis differs from test/%s at line %d:\n  golden: %s\n  actual: %s\n\
             (full rendering written to _build/default/test/%s)"
            identity_golden line e a out
        end)
  ]

let () =
  Alcotest.run "analysis"
    [ ("strided intervals", si_tests);
      ("cfg", cfg_tests);
      ("pipeline", pipeline_tests);
      ("idioms", idiom_tests);
      ("patching", patch_tests);
      ("oracle", oracle_tests);
      ("taint map", taint_tests);
      ("identity", identity_tests)
    ]

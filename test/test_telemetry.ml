(* Telemetry subsystem tests.

   The contract under test: telemetry is pure observation. A run's
   deterministic fingerprint is identical with collectors attached or
   not, on every arithmetic port and both GC modes; the per-site
   profile plus the run-global GC bucket reproduces total_fpvm_cycles
   exactly; the shadow numerical check is zero by construction on the
   vanilla port and nonzero under low-precision MPFR; and instrumented
   checkpoint/restore neither perturbs replay nor loses telemetry.

   Also pinned here (satellite): the exact field set and order of
   Stats.fingerprint — the replay/divergence machinery depends on that
   string, so growing it (or reordering it) must be a conscious,
   test-breaking act — and the breakdown divisor/bucket arithmetic. *)

module W = Workloads

let scale = W.Test

let cfg ?(use_plans = true) ?(use_jit = true) ?(incremental_gc = true)
    ?(approach = Fpvm.Engine.Trap_and_emulate) ?(trace_len = 16) () =
  { Fpvm.Engine.default_config with
    Fpvm.Engine.approach; use_plans; use_jit; incremental_gc;
    Fpvm.Engine.max_trace_len = trace_len }

let workload name =
  match W.find name with
  | Some e -> e.W.program scale
  | None -> failwith ("no workload " ^ name)

let lorenz () = workload "lorenz"

(* Run a program on port [A], optionally with collectors attached.
   Returns (stats, telemetry). *)
module Probe_run (A : Fpvm.Arith.S) = struct
  module E = Fpvm.Engine.Make (A)

  let go ?(trace = false) ?(profile = false) ?(shadow = false) ~config prog =
    let ses = E.prepare ~config prog in
    let tel =
      if trace || profile || shadow then
        Some (Telemetry.create ~trace ~profile ~shadow ())
      else None
    in
    (match tel with
    | Some t -> Telemetry.attach t ses.E.eng.E.probe
    | None -> ());
    let r = E.resume ses in
    (match tel with
    | Some t -> Telemetry.finalize t r.Fpvm.Engine.stats
    | None -> ());
    (r.Fpvm.Engine.stats, tel)
end

module R_vanilla = Probe_run (Fpvm.Alt_vanilla)
module R_mpfr = Probe_run (Fpvm.Alt_mpfr)

let profile_of tel =
  match tel with
  | Some { Telemetry.profile = Some p; _ } -> p
  | _ -> Alcotest.fail "expected a profile collector"

let numprof_of tel =
  match tel with
  | Some { Telemetry.numprof = Some np; _ } -> np
  | _ -> Alcotest.fail "expected a numprof collector"

(* ---- Stats.fingerprint golden --------------------------------------- *)

(* Every covered field set to a distinct value, in fingerprint order.
   If the field set, the order, or the encoding changes, this exact
   string changes with it. *)
let test_fingerprint_golden () =
  let s = Fpvm.Stats.create () in
  s.Fpvm.Stats.fp_traps <- 1;
  s.Fpvm.Stats.correctness_traps <- 2;
  s.Fpvm.Stats.correctness_demotions <- 3;
  s.Fpvm.Stats.patch_invocations <- 4;
  s.Fpvm.Stats.checked_invocations <- 5;
  s.Fpvm.Stats.emulated_ops <- 6;
  s.Fpvm.Stats.emulated_insns <- 7;
  s.Fpvm.Stats.traces <- 8;
  s.Fpvm.Stats.trace_insns <- 9;
  s.Fpvm.Stats.traps_avoided <- 10;
  s.Fpvm.Stats.math_calls <- 11;
  s.Fpvm.Stats.printf_hijacks <- 12;
  s.Fpvm.Stats.serialize_demotions <- 13;
  s.Fpvm.Stats.decode_hits <- 14;
  s.Fpvm.Stats.decode_misses <- 15;
  s.Fpvm.Stats.cyc_hw <- 16;
  s.Fpvm.Stats.cyc_kernel <- 17;
  s.Fpvm.Stats.cyc_delivery <- 18;
  s.Fpvm.Stats.cyc_decode <- 19;
  s.Fpvm.Stats.cyc_bind <- 20;
  s.Fpvm.Stats.cyc_emulate <- 21;
  s.Fpvm.Stats.cyc_trace <- 22;
  s.Fpvm.Stats.cyc_gc <- 23;
  s.Fpvm.Stats.cyc_correctness <- 24;
  s.Fpvm.Stats.cyc_correctness_handler <- 25;
  s.Fpvm.Stats.cyc_patch_checks <- 26;
  s.Fpvm.Stats.gc_passes <- 27;
  s.Fpvm.Stats.gc_full_passes <- 28;
  s.Fpvm.Stats.gc_freed <- 29;
  s.Fpvm.Stats.gc_alive_last <- 30;
  s.Fpvm.Stats.gc_words_scanned <- 31;
  s.Fpvm.Stats.boxes_allocated <- 32;
  s.Fpvm.Stats.eager_frees <- 33;
  s.Fpvm.Stats.corr_demote_boxed <- 34;
  s.Fpvm.Stats.corr_demote_clean <- 35;
  s.Fpvm.Stats.plan_hits <- 36;
  s.Fpvm.Stats.plan_misses <- 37;
  s.Fpvm.Stats.plan_invalidations <- 38;
  s.Fpvm.Stats.temps_elided <- 39;
  s.Fpvm.Stats.temps_materialized <- 40;
  s.Fpvm.Stats.cyc_plan <- 41;
  s.Fpvm.Stats.cyc_emu_dispatch <- 42;
  (* Lock membership and order of the 42 covered fields while
     tolerating additive growth: new deterministic counters may be
     appended (a conscious, reviewed act records them here), but the
     existing prefix must never reorder, drop, or re-encode — the
     replay/divergence machinery compares these strings. Appended
     fields must read 0 for counters this test never set. *)
  let locked = List.init 42 (fun i -> string_of_int (i + 1)) in
  let check_fp label =
    let fields = String.split_on_char ',' (Fpvm.Stats.fingerprint s) in
    let n = List.length fields in
    Alcotest.(check bool)
      (label ^ ": at least the 42 locked fields") true (n >= 42);
    Alcotest.(check (list string))
      (label ^ ": locked prefix intact") locked
      (List.filteri (fun i _ -> i < 42) fields);
    List.iteri
      (fun i v ->
        if i >= 42 then
          Alcotest.(check string)
            (Printf.sprintf "%s: appended field %d untouched" label i)
            "0" v)
      fields
  in
  check_fp "fingerprint field set and order";
  (* The observation-only gauges must NOT contribute. *)
  s.Fpvm.Stats.tel_events <- 999999;
  s.Fpvm.Stats.tel_dropped <- 888;
  s.Fpvm.Stats.gc_latency_s <- 3.14;
  s.Fpvm.Stats.replay_events <- 77;
  s.Fpvm.Stats.replay_checkpoints <- 7;
  s.Fpvm.Stats.replay_checkpoint_bytes <- 7777;
  s.Fpvm.Stats.replay_log_bytes <- 77777;
  s.Fpvm.Stats.patched_sites <- 5;
  s.Fpvm.Stats.patched_sites_boxed <- 4;
  s.Fpvm.Stats.trap_checks_elided <- 3;
  s.Fpvm.Stats.oracle_loads_checked <- 2;
  s.Fpvm.Stats.oracle_boxed_loads <- 1;
  (* ... nor the trace-JIT gauges: jit traffic moves cycles between
     buckets the fingerprint already covers, and the jit counters
     themselves are reporting surface (see Stats), not identity. *)
  s.Fpvm.Stats.jit_compiles <- 9;
  s.Fpvm.Stats.jit_hits <- 8;
  s.Fpvm.Stats.jit_links <- 7;
  s.Fpvm.Stats.jit_guard_exits <- 6;
  s.Fpvm.Stats.jit_invalidations <- 5;
  s.Fpvm.Stats.cyc_jit <- 12345;
  check_fp "gauges excluded from fingerprint"

(* ---- the stats registry --------------------------------------------- *)

(* Every field set to a distinct value through its registry setter, then
   each derived form checked against the registry: a record field with
   no entry, a checkpoint tail that drops or invents a field, or a JSON
   renderer that repeats or misses a name all fail here. *)
let test_registry () =
  let module S = Fpvm.Stats in
  let reg = S.registry in
  Alcotest.(check int) "one registry entry per record field"
    (Obj.size (Obj.repr (S.create ())))
    (List.length reg);
  let value (f : S.field) t =
    match f.S.value with
    | S.Int (get, _) -> float_of_int (get t)
    | S.Float (get, _) -> get t
  in
  let distinct i = float_of_int (i + 1) in
  let s = S.create () in
  List.iteri
    (fun i (f : S.field) ->
      match f.S.value with
      | S.Int (_, set) -> set s (i + 1)
      | S.Float (_, set) -> set s (distinct i +. 0.5))
    reg;
  let expected i (f : S.field) =
    match f.S.value with
    | S.Int _ -> distinct i
    | S.Float _ -> distinct i +. 0.5
  in
  (* checkpoint tail: exactly the checkpointed fields come back *)
  let b = Buffer.create 1024 in
  Replay.Snapshot.encode_stats b s;
  let r = S.create () in
  let pos = ref 0 in
  Replay.Snapshot.restore_stats (Buffer.contents b) pos r;
  Alcotest.(check int) "tail fully read" (Buffer.length b) !pos;
  List.iteri
    (fun i (f : S.field) ->
      Alcotest.(check (float 0.0))
        (f.S.name ^ " after restore")
        (if f.S.checkpointed then expected i f else 0.0)
        (value f r))
    reg;
  (* JSON: each name exactly once, with its value *)
  let members = S.json_members s in
  Alcotest.(check int) "one JSON member per field" (List.length reg)
    (List.length members);
  List.iteri
    (fun i (f : S.field) ->
      let key = Printf.sprintf "\"%s\": " f.S.name in
      match
        List.filter (fun m -> String.starts_with ~prefix:key m) members
      with
      | [ m ] ->
          let k = String.length key in
          Alcotest.(check (float 0.0))
            (f.S.name ^ " JSON value") (expected i f)
            (float_of_string (String.sub m k (String.length m - k)))
      | l ->
          Alcotest.failf "%s appears %d times in the JSON" f.S.name
            (List.length l))
    reg

(* ---- breakdown arithmetic ------------------------------------------- *)

let test_breakdown () =
  let s = Fpvm.Stats.create () in
  s.Fpvm.Stats.fp_traps <- 3;
  s.Fpvm.Stats.checked_invocations <- 4;
  s.Fpvm.Stats.patch_invocations <- 5;
  s.Fpvm.Stats.cyc_hw <- 100;
  s.Fpvm.Stats.cyc_kernel <- 200;
  s.Fpvm.Stats.cyc_delivery <- 300;
  s.Fpvm.Stats.cyc_decode <- 400;
  s.Fpvm.Stats.cyc_bind <- 500;
  s.Fpvm.Stats.cyc_plan <- 600;
  s.Fpvm.Stats.cyc_emulate <- 700;
  s.Fpvm.Stats.cyc_trace <- 800;
  s.Fpvm.Stats.cyc_gc <- 900;
  s.Fpvm.Stats.cyc_correctness <- 1000;
  s.Fpvm.Stats.cyc_correctness_handler <- 1100;
  s.Fpvm.Stats.cyc_patch_checks <- 1200;
  let total = 100 + 200 + 300 + 400 + 500 + 600 + 700 + 800 + 900
              + 1000 + 1100 + 1200 in
  Alcotest.(check int)
    "total_fpvm_cycles sums all twelve buckets" total
    (Fpvm.Stats.total_fpvm_cycles s);
  let b = Fpvm.Stats.breakdown s in
  Alcotest.(check int)
    "events = fp_traps + checked + patch" 12 b.Fpvm.Stats.events;
  Alcotest.(check (float 1e-9))
    "avg_total = total / events"
    (float_of_int total /. 12.0)
    b.Fpvm.Stats.avg_total;
  Alcotest.(check (float 1e-9))
    "avg_gc = cyc_gc / events" 75.0 b.Fpvm.Stats.avg_gc;
  (* Zero events must not divide by zero. *)
  let z = Fpvm.Stats.create () in
  let bz = Fpvm.Stats.breakdown z in
  Alcotest.(check int) "events floor is 1" 1 bz.Fpvm.Stats.events;
  Alcotest.(check (float 0.0)) "empty avg_total" 0.0 bz.Fpvm.Stats.avg_total

(* ---- fingerprint identity: telemetry on vs off ----------------------- *)

let test_identity () =
  let prog = lorenz () in
  let run name go_off go_on =
    List.iter
      (fun inc ->
        let config = cfg ~incremental_gc:inc () in
        let s_off, _ = go_off ~config prog in
        let s_on, _ = go_on ~config prog in
        Alcotest.(check string)
          (Printf.sprintf "%s incremental_gc=%b" name inc)
          (Fpvm.Stats.fingerprint s_off)
          (Fpvm.Stats.fingerprint s_on))
      [ true; false ]
  in
  run "vanilla"
    (fun ~config p -> R_vanilla.go ~config p)
    (fun ~config p ->
      R_vanilla.go ~trace:true ~profile:true ~shadow:true ~config p);
  run "mpfr"
    (fun ~config p -> R_mpfr.go ~config p)
    (fun ~config p ->
      R_mpfr.go ~trace:true ~profile:true ~shadow:true ~config p)

(* ---- profile reconciliation ------------------------------------------ *)

(* Every tier closes one emulation envelope, which reports each
   emulation (site plans and math calls alike) exactly once: the
   per-site counts sum to the engine's totals on every tier. *)
let test_profile_exact () =
  List.iter
    (fun wname ->
      let prog = workload wname in
      List.iter
        (fun (name, config) ->
          let name = wname ^ " " ^ name in
          let s, tel = R_mpfr.go ~profile:true ~config prog in
          let p = profile_of tel in
          Alcotest.(check int)
            (name ^ ": tracked == total_fpvm_cycles")
            (Fpvm.Stats.total_fpvm_cycles s)
            (Telemetry.Profile.tracked_cycles p);
          let emulations =
            Array.fold_left
              (fun acc -> function
                | Some site -> acc + site.Telemetry.Profile.emulations
                | None -> acc)
              0 p.Telemetry.Profile.sites
          in
          Alcotest.(check int)
            (name ^ ": site emulations == emulated_insns + math_calls")
            (s.Fpvm.Stats.emulated_insns + s.Fpvm.Stats.math_calls)
            emulations)
        [ ("emulate/incremental", cfg ());
          ("emulate/full-gc", cfg ~incremental_gc:false ());
          ("emulate/no-plans", cfg ~use_plans:false ());
          ("emulate/no-jit", cfg ~use_jit:false ());
          ("patch", cfg ~approach:Fpvm.Engine.Trap_and_patch ());
          ("static", cfg ~approach:Fpvm.Engine.Static_transform ()) ])
    [ "lorenz"; "fbench" ]

(* ---- ring trace export ----------------------------------------------- *)

let test_trace_export () =
  let prog = lorenz () in
  let _, tel = R_vanilla.go ~trace:true ~config:(cfg ()) prog in
  match tel with
  | Some { Telemetry.trace = Some tr; _ } ->
      Alcotest.(check bool) "events recorded" true
        (Telemetry.Trace.recorded tr > 0);
      let bb = Buffer.create 4096 in
      Telemetry.Trace.export_json tr bb;
      let body = Buffer.contents bb in
      let has needle =
        let n = String.length needle and m = String.length body in
        let rec at i =
          i + n <= m && (String.sub body i n = needle || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) "object" true (body.[0] = '{');
      Alcotest.(check bool) "schema_version" true
        (has "\"schema_version\"");
      Alcotest.(check bool) "traceEvents array" true
        (has "\"traceEvents\"");
      Alcotest.(check bool) "phase fields" true (has "\"ph\"")
  | _ -> Alcotest.fail "expected a trace collector"

(* A tiny ring must drop oldest, never crash, and keep counting. *)
let test_trace_bounded () =
  let prog = lorenz () in
  let ses = R_vanilla.E.prepare ~config:(cfg ()) prog in
  let t = Telemetry.create ~trace:true ~trace_capacity:8 () in
  Telemetry.attach t ses.R_vanilla.E.eng.R_vanilla.E.probe;
  let _ = R_vanilla.E.resume ses in
  match t.Telemetry.trace with
  | Some tr ->
      Alcotest.(check bool) "ring stayed bounded" true
        (Telemetry.Trace.length tr <= 8);
      Alcotest.(check int) "recorded = length + dropped"
        (Telemetry.Trace.recorded tr)
        (Telemetry.Trace.length tr + Telemetry.Trace.dropped tr);
      Alcotest.(check bool) "oldest were dropped" true
        (Telemetry.Trace.dropped tr > 0)
  | None -> Alcotest.fail "expected a trace collector"

(* ---- shadow numerical check ------------------------------------------ *)

let test_shadow_vanilla_zero () =
  let prog = lorenz () in
  let _, tel = R_vanilla.go ~shadow:true ~config:(cfg ()) prog in
  Alcotest.(check (float 0.0))
    "vanilla max relative error is exactly zero" 0.0
    (Telemetry.Numprof.max_rel_err (numprof_of tel))

let test_shadow_mpfr_low_prec () =
  let prog = lorenz () in
  let module R8 = Probe_run (Fpvm.Alt_mpfr.Make (struct let prec = 8 end)) in
  let _, tel = R8.go ~shadow:true ~config:(cfg ()) prog in
  Alcotest.(check bool)
    "8-bit mpfr shows nonzero error at sinks" true
    (Telemetry.Numprof.max_rel_err (numprof_of tel) > 0.0)

(* ---- NaN / Inf flow tracking ----------------------------------------- *)

let exceptional_src : Fpvm_ir.Ast.program =
  let open Fpvm_ir.Ast in
  { name = "exceptional";
    decls =
      [ Fscalar ("x", 1.0); Fscalar ("z", 0.0); Fscalar ("inf", 0.0);
        Fscalar ("nan", 0.0) ];
    body =
      [ Fset ("inf", fv "x" /: fv "z"); (* inf birth *)
        Fset ("nan", fv "inf" -: fv "inf"); (* nan birth from inf-inf *)
        Fset ("nan", fv "nan" +: f 1.0); (* nan propagation *)
        Print_f (fv "inf");
        Print_f (fv "nan") ] }

let test_nan_inf_births () =
  let prog = Fpvm_ir.Codegen.compile_program exceptional_src in
  let _, tel = R_vanilla.go ~shadow:true ~config:(cfg ()) prog in
  let np = numprof_of tel in
  let nb, np_, _nk, ib, _ip, _ik = Telemetry.Numprof.totals np in
  Alcotest.(check bool) "saw an Inf birth" true (ib >= 1);
  Alcotest.(check bool) "saw a NaN birth" true (nb >= 1);
  Alcotest.(check bool) "saw NaN propagation" true (np_ >= 1)

(* ---- checkpoint/restore under instrumentation ------------------------ *)

module RS = Replay.Session.Make (Fpvm.Alt_mpfr)

let test_checkpoint_instrumented () =
  let prog = lorenz () in
  let config = cfg () in
  let meta = { Replay.Log.workload = "lorenz"; scale = "test";
               arith = "mpfr:200"; config = "telemetry-test" } in
  (* Instrumented recording fingerprints identically to a bare one. *)
  let bare = RS.record ~checkpoint_every:50 ~meta ~config prog in
  let tel = Telemetry.create ~trace:true ~profile:true () in
  let rec_ =
    RS.record ~checkpoint_every:50
      ~instrument:(fun sink -> Telemetry.attach tel sink)
      ~meta ~config prog
  in
  Alcotest.(check string) "instrumented record fingerprint"
    (Fpvm.Stats.fingerprint bare.Replay.Session.result.Fpvm.Engine.stats)
    (Fpvm.Stats.fingerprint rec_.Replay.Session.result.Fpvm.Engine.stats);
  (* The checkpoint events reached the profile. *)
  let p = profile_of (Some tel) in
  Alcotest.(check bool) "profile saw checkpoints" true
    (p.Telemetry.Profile.checkpoints > 0);
  (* Restore from a mid-run checkpoint with fresh telemetry: same
     machine result as an uninstrumented restore, and the fresh
     collectors start from the restore point (telemetry survives
     restore by reattachment, not by serialization). *)
  Alcotest.(check bool) "recording produced checkpoints" true
    (rec_.Replay.Session.checkpoints <> []);
  let n = List.length rec_.Replay.Session.checkpoints in
  let _, mid = List.nth rec_.Replay.Session.checkpoints (n / 2) in
  let plain = RS.resume_from ~config prog mid in
  let tel2 = Telemetry.create ~profile:true () in
  let instr =
    RS.resume_from
      ~instrument:(fun sink -> Telemetry.attach tel2 sink)
      ~config prog mid
  in
  Alcotest.(check string) "instrumented restore fingerprint"
    (Fpvm.Stats.fingerprint plain.Fpvm.Engine.stats)
    (Fpvm.Stats.fingerprint instr.Fpvm.Engine.stats);
  Alcotest.(check string) "instrumented restore output"
    plain.Fpvm.Engine.output instr.Fpvm.Engine.output;
  (* Restored stats are cumulative from the original run's start, while
     the fresh collectors only saw the post-restore suffix: attributed
     cycles must be positive and strictly within the cumulative total. *)
  let p2 = profile_of (Some tel2) in
  let tracked = Telemetry.Profile.tracked_cycles p2 in
  let total = Fpvm.Stats.total_fpvm_cycles instr.Fpvm.Engine.stats in
  Alcotest.(check bool) "post-restore profile saw the suffix" true
    (tracked > 0 && tracked < total)

let () =
  Alcotest.run "telemetry"
    [ ("stats",
       [ Alcotest.test_case "fingerprint golden" `Quick
           test_fingerprint_golden;
         Alcotest.test_case "registry derives every form" `Quick
           test_registry;
         Alcotest.test_case "breakdown arithmetic" `Quick test_breakdown ]);
      ("determinism",
       [ Alcotest.test_case "fingerprint on == off" `Slow test_identity ]);
      ("profile",
       [ Alcotest.test_case "exact reconciliation" `Slow
           test_profile_exact ]);
      ("trace",
       [ Alcotest.test_case "perfetto export shape" `Quick
           test_trace_export;
         Alcotest.test_case "bounded ring" `Quick test_trace_bounded ]);
      ("numerical",
       [ Alcotest.test_case "vanilla shadow error zero" `Quick
           test_shadow_vanilla_zero;
         Alcotest.test_case "mpfr-8 shadow error nonzero" `Quick
           test_shadow_mpfr_low_prec;
         Alcotest.test_case "nan/inf births" `Quick test_nan_inf_births ]);
      ("replay",
       [ Alcotest.test_case "instrumented checkpoint/restore" `Slow
           test_checkpoint_instrumented ]) ]

(* Per-run accounting for the evaluation figures.

   Cycle buckets mirror Figure 9's breakdown: hardware trap cost, kernel
   cost, (user) delivery cost, decode, bind, emulate, garbage collection,
   correctness-trap overhead and correctness-handler work. GC behavior
   (Figure 10) is tracked as pass-by-pass alive/freed counts and
   wall-clock latency. The registry below lists every field once; the
   fingerprint, the checkpoint tail and every printed form derive from
   it. *)

type t = {
  mutable fp_traps : int;
  mutable correctness_traps : int;
  mutable correctness_demotions : int;
  (* correctness-trap deliveries split by what the handler found: the
     wrapped instruction's operand actually held a NaN-boxed value (the
     demotion did work) vs. it was already clean (the conservative
     patch fired for nothing) *)
  mutable corr_demote_boxed : int;
  mutable corr_demote_clean : int;
  mutable patch_invocations : int;
  mutable checked_invocations : int;
  mutable emulated_ops : int;
  mutable emulated_insns : int;
  (* sequence (trace) emulation *)
  mutable traces : int; (* trap deliveries that started a trace *)
  mutable trace_insns : int;
      (* instructions executed while resident, incl. the delivered one *)
  mutable traps_avoided : int;
      (* in-trace FP faults absorbed without a kernel delivery *)
  mutable math_calls : int;
  mutable printf_hijacks : int;
  mutable serialize_demotions : int;
  (* decode cache *)
  mutable decode_hits : int;
  mutable decode_misses : int;
  (* site specialization (binding-plan cache) *)
  mutable plan_hits : int; (* emulations served by a cached superop *)
  mutable plan_misses : int; (* first visits that compiled a plan *)
  mutable plan_invalidations : int;
      (* plans discarded when their site was rewritten (trap-and-patch) *)
  (* in-trace shadow-temp elision *)
  mutable temps_elided : int;
      (* intermediate results kept in the trace scratch buffer instead
         of a fresh Arena.alloc + Nanbox.box round trip *)
  mutable temps_materialized : int;
      (* scratch temps still live at trace exit, promoted to real boxes;
         temps_elided - temps_materialized = arena allocations avoided *)
  (* trace JIT (guarded IR superblocks). The cycle bucket [cyc_jit] is
     part of [total_fpvm_cycles] (it is real modeled work). *)
  mutable jit_compiles : int; (* hot traces lowered + compiled *)
  mutable jit_hits : int; (* trap deliveries served by a superblock *)
  mutable jit_links : int;
      (* compiled-to-compiled back-edge transfers (no delivery paid) *)
  mutable jit_guard_exits : int;
      (* side exits back to the interpreter (shape/taint/patch guards) *)
  mutable jit_invalidations : int;
      (* superblocks dropped when a contained site was rewritten *)
  mutable cyc_jit : int;
      (* superblock compile + entry + per-step + link charges *)
  (* cycle buckets *)
  mutable cyc_hw : int;
  mutable cyc_kernel : int;
  mutable cyc_delivery : int;
  mutable cyc_decode : int;
  mutable cyc_bind : int;
  mutable cyc_plan : int; (* plan compiles + plan-table hits *)
  mutable cyc_emulate : int;
  mutable cyc_emu_dispatch : int;
      (* the op_map-dispatch share of cyc_emulate (a subset, not an
         additional bucket): what site specialization eliminates *)
  mutable cyc_trace : int;
      (* per-instruction trace residency cost; trace-exit context
         restores land in the delivery buckets *)
  mutable cyc_gc : int;
  mutable cyc_correctness : int;
  mutable cyc_correctness_handler : int;
  mutable cyc_patch_checks : int;
  (* gc *)
  mutable gc_passes : int;
  mutable gc_full_passes : int; (* full scans among gc_passes *)
  mutable gc_freed : int;
  mutable gc_alive_last : int;
  mutable gc_words_scanned : int; (* words examined across all passes *)
  mutable gc_latency_s : float;
  (* allocator *)
  mutable boxes_allocated : int;
  mutable eager_frees : int;
      (* shadow values freed by compiler hints rather than the GC *)
  (* record/replay (lib/replay); written by the recorder, not the engine *)
  mutable replay_events : int; (* events appended to the log *)
  mutable replay_checkpoints : int;
  mutable replay_checkpoint_bytes : int; (* total serialized checkpoint size *)
  mutable replay_log_bytes : int;
  (* static-analysis gauges (set once at prepare time) and soundness
     oracle counters *)
  mutable patched_sites : int; (* correctness traps installed by the VSA *)
  mutable patched_sites_boxed : int;
      (* distinct patched sites that ever saw a boxed operand *)
  mutable trap_checks_elided : int;
      (* int loads the analysis proved clean (no patch installed) *)
  mutable oracle_loads_checked : int;
  mutable oracle_boxed_loads : int;
      (* unpatched integer loads that observed a live NaN-boxed word:
         any nonzero value is a soundness violation *)
  (* telemetry gauges (lib/telemetry); written by Telemetry.finalize,
     never by the engine *)
  mutable tel_events : int; (* telemetry events observed *)
  mutable tel_dropped : int; (* ring-buffer events overwritten (drop-oldest) *)
  (* FP special-value analysis (lib/analysis Fpa tier) gauges *)
  mutable fpa_sites_proven : int;
      (* FP sites with a static proof (subnormal-free or birth-free) *)
  mutable fused_unguarded : int;
      (* fused JIT steps executed without the runtime subnormal scan *)
  mutable shadow_elided : int;
      (* numprof/shadow-check records skipped at proven birth-free sites *)
  mutable jit_fused_steps : int;
      (* superblock steps taking the fused (emulate_fused/native/fold)
         path rather than a guard exit; the FPA fusion-widening metric *)
  mutable fpa_sub_violations : int;
      (* subnormal raw input seen at a proven-subnormal-free site: any
         nonzero value is a soundness violation (oracle exit 5) *)
  mutable fpa_nan_violations : int;
      (* dynamic NaN/Inf birth at a proven birth-free site: any nonzero
         value is a soundness violation (oracle exit 5) *)
  (* compilation-artifact cache gauges (lib/core Artifact): the cache
     moves compile charges off-guest but never perturbs the
     architectural counters *)
  mutable cache_hits : int;
      (* artifact-store claims served by an existing entry (a recipe
         published by another guest, or preloaded from disk) *)
  mutable cache_misses : int;
      (* claims that found no matching entry and published one *)
  mutable blocks_shared : int;
      (* superblocks compiled from a shared recipe (the jit subset of
         cache_hits); their compile charge was elided off-guest *)
  mutable cyc_compile_shared : int;
      (* jit compile cycles elided because the artifact was already
         charged elsewhere (another guest, or a previous run via the
         persistent cache) — the off-guest compile bucket *)
  (* FP-exception flight-recorder gauges (lib/telemetry Flowrec);
     written by Telemetry.finalize *)
  mutable flows_open : int; (* NaN/Inf flows still live at run end *)
  mutable flows_completed : int; (* flows that reached a kill/sink *)
  mutable flows_dropped : int;
      (* flows whose chain links were overwritten in the drop-oldest
         ring (the whole chain is dropped atomically) *)
  mutable flows_real : int;
      (* flows the interval ground-truth pass confirmed (the interval
         port also excepts at the birth site, or its enclosure is
         unbounded there) *)
  mutable flows_spurious : int;
      (* flows the interval port refutes: an artifact of the primary
         port's finite precision, not a real numerical failure *)
}

let create () =
  { fp_traps = 0; correctness_traps = 0; correctness_demotions = 0;
    corr_demote_boxed = 0; corr_demote_clean = 0;
    patch_invocations = 0; checked_invocations = 0; emulated_ops = 0;
    emulated_insns = 0; traces = 0; trace_insns = 0; traps_avoided = 0;
    math_calls = 0; printf_hijacks = 0;
    serialize_demotions = 0; decode_hits = 0; decode_misses = 0;
    plan_hits = 0; plan_misses = 0; plan_invalidations = 0;
    temps_elided = 0; temps_materialized = 0;
    jit_compiles = 0; jit_hits = 0; jit_links = 0; jit_guard_exits = 0;
    jit_invalidations = 0; cyc_jit = 0;
    cyc_hw = 0; cyc_kernel = 0; cyc_delivery = 0; cyc_decode = 0;
    cyc_bind = 0; cyc_plan = 0; cyc_emulate = 0; cyc_emu_dispatch = 0;
    cyc_trace = 0; cyc_gc = 0;
    cyc_correctness = 0;
    cyc_correctness_handler = 0; cyc_patch_checks = 0; gc_passes = 0;
    gc_full_passes = 0;
    gc_freed = 0; gc_alive_last = 0; gc_words_scanned = 0;
    gc_latency_s = 0.0;
    boxes_allocated = 0; eager_frees = 0;
    replay_events = 0; replay_checkpoints = 0; replay_checkpoint_bytes = 0;
    replay_log_bytes = 0;
    patched_sites = 0; patched_sites_boxed = 0; trap_checks_elided = 0;
    oracle_loads_checked = 0; oracle_boxed_loads = 0;
    tel_events = 0; tel_dropped = 0;
    fpa_sites_proven = 0; fused_unguarded = 0; shadow_elided = 0;
    jit_fused_steps = 0; fpa_sub_violations = 0; fpa_nan_violations = 0;
    cache_hits = 0; cache_misses = 0; blocks_shared = 0;
    cyc_compile_shared = 0;
    flows_open = 0; flows_completed = 0; flows_dropped = 0;
    flows_real = 0; flows_spurious = 0 }

(* ---- the registry --------------------------------------------------

   One entry per record field, in checkpoint order. Every output that
   lists fields is derived from it: [fingerprint], [pp], [json_members]
   and the checkpoint's stats tail (lib/replay Snapshot). Adding a
   counter means a record field, its [create] initialiser and one
   registry line; the registry test fails on a field with no entry.

   [fingerprinted]: part of the architectural identity that a recorded
   run, its replay and a checkpoint-resumed run must share (the 42
   fields predate the JIT; the order is the string's format).
   [checkpointed]: saved in and restored from a checkpoint (the order is
   the tail's format). Fingerprinted fields are all checkpointed. *)

type value =
  | Int of (t -> int) * (t -> int -> unit)
  | Float of (t -> float) * (t -> float -> unit)

type field = {
  name : string;
  value : value;
  fingerprinted : bool;
  checkpointed : bool;
}

(* [arch]: fingerprinted and checkpointed; [ckpt]: checkpointed only;
   [gauge]: neither. *)
let arch name get set =
  { name; value = Int (get, set); fingerprinted = true; checkpointed = true }

let ckpt name get set =
  { name; value = Int (get, set); fingerprinted = false; checkpointed = true }

let gauge name get set =
  { name; value = Int (get, set); fingerprinted = false; checkpointed = false }

let registry =
  [
    arch "fp_traps" (fun t -> t.fp_traps) (fun t v -> t.fp_traps <- v);
    arch "correctness_traps" (fun t -> t.correctness_traps) (fun t v -> t.correctness_traps <- v);
    arch "correctness_demotions" (fun t -> t.correctness_demotions) (fun t v -> t.correctness_demotions <- v);
    arch "patch_invocations" (fun t -> t.patch_invocations) (fun t v -> t.patch_invocations <- v);
    arch "checked_invocations" (fun t -> t.checked_invocations) (fun t v -> t.checked_invocations <- v);
    arch "emulated_ops" (fun t -> t.emulated_ops) (fun t v -> t.emulated_ops <- v);
    arch "emulated_insns" (fun t -> t.emulated_insns) (fun t v -> t.emulated_insns <- v);
    arch "traces" (fun t -> t.traces) (fun t v -> t.traces <- v);
    arch "trace_insns" (fun t -> t.trace_insns) (fun t v -> t.trace_insns <- v);
    arch "traps_avoided" (fun t -> t.traps_avoided) (fun t v -> t.traps_avoided <- v);
    arch "math_calls" (fun t -> t.math_calls) (fun t v -> t.math_calls <- v);
    arch "printf_hijacks" (fun t -> t.printf_hijacks) (fun t v -> t.printf_hijacks <- v);
    arch "serialize_demotions" (fun t -> t.serialize_demotions) (fun t v -> t.serialize_demotions <- v);
    arch "decode_hits" (fun t -> t.decode_hits) (fun t v -> t.decode_hits <- v);
    arch "decode_misses" (fun t -> t.decode_misses) (fun t v -> t.decode_misses <- v);
    arch "cyc_hw" (fun t -> t.cyc_hw) (fun t v -> t.cyc_hw <- v);
    arch "cyc_kernel" (fun t -> t.cyc_kernel) (fun t v -> t.cyc_kernel <- v);
    arch "cyc_delivery" (fun t -> t.cyc_delivery) (fun t v -> t.cyc_delivery <- v);
    arch "cyc_decode" (fun t -> t.cyc_decode) (fun t v -> t.cyc_decode <- v);
    arch "cyc_bind" (fun t -> t.cyc_bind) (fun t v -> t.cyc_bind <- v);
    arch "cyc_emulate" (fun t -> t.cyc_emulate) (fun t v -> t.cyc_emulate <- v);
    arch "cyc_trace" (fun t -> t.cyc_trace) (fun t v -> t.cyc_trace <- v);
    arch "cyc_gc" (fun t -> t.cyc_gc) (fun t v -> t.cyc_gc <- v);
    arch "cyc_correctness" (fun t -> t.cyc_correctness) (fun t v -> t.cyc_correctness <- v);
    arch "cyc_correctness_handler" (fun t -> t.cyc_correctness_handler) (fun t v -> t.cyc_correctness_handler <- v);
    arch "cyc_patch_checks" (fun t -> t.cyc_patch_checks) (fun t v -> t.cyc_patch_checks <- v);
    arch "gc_passes" (fun t -> t.gc_passes) (fun t v -> t.gc_passes <- v);
    arch "gc_full_passes" (fun t -> t.gc_full_passes) (fun t v -> t.gc_full_passes <- v);
    arch "gc_freed" (fun t -> t.gc_freed) (fun t v -> t.gc_freed <- v);
    arch "gc_alive_last" (fun t -> t.gc_alive_last) (fun t v -> t.gc_alive_last <- v);
    arch "gc_words_scanned" (fun t -> t.gc_words_scanned) (fun t v -> t.gc_words_scanned <- v);
    arch "boxes_allocated" (fun t -> t.boxes_allocated) (fun t v -> t.boxes_allocated <- v);
    arch "eager_frees" (fun t -> t.eager_frees) (fun t v -> t.eager_frees <- v);
    ckpt "replay_events" (fun t -> t.replay_events) (fun t v -> t.replay_events <- v);
    ckpt "replay_checkpoints" (fun t -> t.replay_checkpoints) (fun t v -> t.replay_checkpoints <- v);
    ckpt "replay_checkpoint_bytes" (fun t -> t.replay_checkpoint_bytes) (fun t v -> t.replay_checkpoint_bytes <- v);
    ckpt "replay_log_bytes" (fun t -> t.replay_log_bytes) (fun t v -> t.replay_log_bytes <- v);
    (* appended to the checkpoint tail: v1 demotion split, v2 site
       specialization, v3 trace JIT *)
    arch "corr_demote_boxed" (fun t -> t.corr_demote_boxed) (fun t v -> t.corr_demote_boxed <- v);
    arch "corr_demote_clean" (fun t -> t.corr_demote_clean) (fun t v -> t.corr_demote_clean <- v);
    arch "plan_hits" (fun t -> t.plan_hits) (fun t v -> t.plan_hits <- v);
    arch "plan_misses" (fun t -> t.plan_misses) (fun t v -> t.plan_misses <- v);
    arch "plan_invalidations" (fun t -> t.plan_invalidations) (fun t v -> t.plan_invalidations <- v);
    arch "temps_elided" (fun t -> t.temps_elided) (fun t v -> t.temps_elided <- v);
    arch "temps_materialized" (fun t -> t.temps_materialized) (fun t v -> t.temps_materialized <- v);
    arch "cyc_plan" (fun t -> t.cyc_plan) (fun t v -> t.cyc_plan <- v);
    arch "cyc_emu_dispatch" (fun t -> t.cyc_emu_dispatch) (fun t v -> t.cyc_emu_dispatch <- v);
    ckpt "jit_compiles" (fun t -> t.jit_compiles) (fun t v -> t.jit_compiles <- v);
    ckpt "jit_hits" (fun t -> t.jit_hits) (fun t v -> t.jit_hits <- v);
    ckpt "jit_links" (fun t -> t.jit_links) (fun t v -> t.jit_links <- v);
    ckpt "jit_guard_exits" (fun t -> t.jit_guard_exits) (fun t v -> t.jit_guard_exits <- v);
    ckpt "jit_invalidations" (fun t -> t.jit_invalidations) (fun t v -> t.jit_invalidations <- v);
    ckpt "cyc_jit" (fun t -> t.cyc_jit) (fun t v -> t.cyc_jit <- v);
    { name = "gc_latency_s"; fingerprinted = false; checkpointed = true;
      value = Float ((fun t -> t.gc_latency_s), (fun t v -> t.gc_latency_s <- v)) };
    (* observation and analysis gauges: neither identity nor state *)
    gauge "patched_sites" (fun t -> t.patched_sites) (fun t v -> t.patched_sites <- v);
    gauge "patched_sites_boxed" (fun t -> t.patched_sites_boxed) (fun t v -> t.patched_sites_boxed <- v);
    gauge "trap_checks_elided" (fun t -> t.trap_checks_elided) (fun t v -> t.trap_checks_elided <- v);
    gauge "oracle_loads_checked" (fun t -> t.oracle_loads_checked) (fun t v -> t.oracle_loads_checked <- v);
    gauge "oracle_boxed_loads" (fun t -> t.oracle_boxed_loads) (fun t v -> t.oracle_boxed_loads <- v);
    gauge "tel_events" (fun t -> t.tel_events) (fun t v -> t.tel_events <- v);
    gauge "tel_dropped" (fun t -> t.tel_dropped) (fun t v -> t.tel_dropped <- v);
    gauge "fpa_sites_proven" (fun t -> t.fpa_sites_proven) (fun t v -> t.fpa_sites_proven <- v);
    gauge "fused_unguarded" (fun t -> t.fused_unguarded) (fun t v -> t.fused_unguarded <- v);
    gauge "shadow_elided" (fun t -> t.shadow_elided) (fun t v -> t.shadow_elided <- v);
    gauge "jit_fused_steps" (fun t -> t.jit_fused_steps) (fun t v -> t.jit_fused_steps <- v);
    gauge "fpa_sub_violations" (fun t -> t.fpa_sub_violations) (fun t v -> t.fpa_sub_violations <- v);
    gauge "fpa_nan_violations" (fun t -> t.fpa_nan_violations) (fun t v -> t.fpa_nan_violations <- v);
    gauge "cache_hits" (fun t -> t.cache_hits) (fun t v -> t.cache_hits <- v);
    gauge "cache_misses" (fun t -> t.cache_misses) (fun t v -> t.cache_misses <- v);
    gauge "blocks_shared" (fun t -> t.blocks_shared) (fun t v -> t.blocks_shared <- v);
    gauge "cyc_compile_shared" (fun t -> t.cyc_compile_shared) (fun t v -> t.cyc_compile_shared <- v);
    gauge "flows_open" (fun t -> t.flows_open) (fun t v -> t.flows_open <- v);
    gauge "flows_completed" (fun t -> t.flows_completed) (fun t v -> t.flows_completed <- v);
    gauge "flows_dropped" (fun t -> t.flows_dropped) (fun t v -> t.flows_dropped <- v);
    gauge "flows_real" (fun t -> t.flows_real) (fun t v -> t.flows_real <- v);
    gauge "flows_spurious" (fun t -> t.flows_spurious) (fun t v -> t.flows_spurious <- v)
  ]

let show f t =
  match f.value with
  | Int (get, _) -> string_of_int (get t)
  | Float (get, _) -> Printf.sprintf "%.17g" (get t)

(* Excludes wall-clock GC latency, the recorder's own bookkeeping and
   every gauge, so a recorded run, its replay, and a checkpoint-resumed
   run all fingerprint identically. *)
let fingerprint t =
  String.concat ","
    (List.filter_map
       (fun f -> if f.fingerprinted then Some (show f t) else None)
       registry)

(* One ["name": value] JSON member per field, in registry order: the
   stats part of fpvm_run --json and of each fpvm_serve guest line. *)
let json_members t =
  List.map (fun f -> Printf.sprintf "%S: %s" f.name (show f t)) registry

(* A JSON string literal's body: the one escaper the tools share for the
   string members they print around [json_members]. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Arena allocations avoided by shadow-temp elision: every elided temp
   skipped a box; those still live at trace exit were boxed after all. *)
let allocs_avoided t = t.temps_elided - t.temps_materialized

let total_fpvm_cycles t =
  t.cyc_hw + t.cyc_kernel + t.cyc_delivery + t.cyc_decode + t.cyc_bind
  + t.cyc_plan
  + t.cyc_emulate + t.cyc_trace + t.cyc_jit + t.cyc_gc + t.cyc_correctness
  + t.cyc_correctness_handler
  + t.cyc_patch_checks

(* Mean dynamic length of an emulation trace (>= 1; exactly 1 when
   sequence emulation is off). *)
let mean_trace_len t =
  if t.traces = 0 then 0.0
  else float_of_int t.trace_insns /. float_of_int t.traces

(* Average cost of virtualizing one floating point instruction (the Fig 9
   metric), with its component breakdown. *)
type breakdown = {
  events : int;
  avg_total : float;
  avg_hw : float;
  avg_kernel : float;
  avg_delivery : float;
  avg_decode : float;
  avg_bind : float;
  avg_plan : float;
  avg_emulate : float;
  avg_emu_dispatch : float;
  avg_trace : float;
  avg_jit : float;
  avg_gc : float;
  avg_correctness : float;
  avg_correctness_handler : float;
}

let breakdown t =
  let n = max 1 (t.fp_traps + t.checked_invocations + t.patch_invocations) in
  let f v = float_of_int v /. float_of_int n in
  { events = n;
    avg_total = f (total_fpvm_cycles t);
    avg_hw = f t.cyc_hw;
    avg_kernel = f t.cyc_kernel;
    avg_delivery = f t.cyc_delivery;
    avg_decode = f t.cyc_decode;
    avg_bind = f t.cyc_bind;
    avg_plan = f t.cyc_plan;
    avg_emulate = f t.cyc_emulate;
    avg_emu_dispatch = f t.cyc_emu_dispatch;
    avg_trace = f t.cyc_trace;
    avg_jit = f t.cyc_jit;
    avg_gc = f t.cyc_gc;
    avg_correctness = f t.cyc_correctness;
    avg_correctness_handler = f t.cyc_correctness_handler }

(* Every registry field as name=value, in registry order, wrapped to
   the margin. *)
let pp fmt t =
  Format.fprintf fmt "@[<hov>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun fmt f ->
         Format.fprintf fmt "%s=%s" f.name (show f t)))
    registry

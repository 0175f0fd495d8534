(* The four workloads, their output checks and determinism pins, and
   the measurement loops behind every metric.

   Each workload is a closed loop with one client inside this process:
   a guest runs to completion (and is checked) before the next one is
   set up. [--seconds] bounds the measured loops; in the untraced run
   every iteration times its own set-up. *)

module W = Workloads
module Mpfr_port = (val Fpvm.Alt_mpfr.make ~prec:200 ())

let vanilla = let module M = Guest.Port (Fpvm.Alt_vanilla) in M.port
let mpfr = let module M = Guest.Port (Mpfr_port) in M.port

(* A recorder checkpoint every this many replay events (lorenz-S emits
   ~35k events, so ~8 checkpoints per recording). *)
let checkpoint_every = 4000

(* MPFR-200 results printed as decimal binary64 must agree with the
   binary64 reference to this relative tolerance. *)
let mpfr_rel_tol = 1e-12

(* The seed picks the injected-NaN site among these eligible scalar FP
   sites of lorenz-S (ordinals as [Program.inject_nan] counts them).
   At both a NaN is born on every integration step; their modeled
   cycles agree within 0.1%, and their set-up, recording and peak heap
   cost the same host time and memory, so the seed varies the input
   without adding spread across seeds. Ordinals 7, 9 and 11 birth one
   NaN that then propagates, at 60% of the modeled cost, and ordinal 6
   makes the analysis a third slower: mixing them in would make
   modeled_slowdown or setup_s depend on the seed. *)
let inject_candidates = [| 8; 10 |]

type ctx = { seed : int; seconds : float; trace : bool }

(* ---- results ---------------------------------------------------------- *)

type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list; (* reversed *)
  mutable lines : string list; (* human-readable, reversed *)
  mutable heap_mb : float;
}

let new_report () =
  { attempted = 0; failed = 0; metrics = []; lines = []; heap_mb = nan }
let metric r name unit v = r.metrics <- (name, v, unit) :: r.metrics
let line r fmt = Printf.ksprintf (fun s -> r.lines <- s :: r.lines) fmt

(* One guest run attempted; [problems] lists every check it failed. *)
let guest r problems =
  r.attempted <- r.attempted + 1;
  if problems <> [] then begin
    r.failed <- r.failed + 1;
    List.iter (fun p -> prerr_endline ("check failed: " ^ p)) problems
  end

(* ---- statistics ------------------------------------------------------- *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let f = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else (a.(i) *. (1. -. f)) +. (a.(i + 1) *. f)

let median xs = quantile xs 0.5

(* The highest of the usual percentiles that still has at least ten
   samples beyond it. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.)
    [ 99.; 95.; 90.; 75.; 50. ]

let describe_samples r name unit xs =
  let n = List.length xs in
  match tail_percentile n with
  | Some p ->
      line r "  %s: n=%d p50=%.3f %s, p%.0f=%.3f %s (highest percentile with >=10 samples beyond it)"
        name n (median xs) unit p (quantile xs (p /. 100.)) unit
  | None ->
      line r "  %s: n=%d p50=%.3f %s (too few samples for a tail percentile)"
        name n (median xs) unit

let ms_since t0 = float_of_int (Span.now () - t0) /. 1e6

(* Run [f] until [budget] seconds have passed (at least [min] times).
   Every call starts from a collected heap, as a guest in a fresh
   process would, so garbage left by earlier guests neither slows a run
   nor moves the heap peak. Returns the count and the seconds spent in
   [f], collections excluded. *)
let loop ?(min = 3) budget f =
  let deadline = Span.now () + int_of_float (budget *. 1e9) in
  let n = ref 0 and busy = ref 0 in
  while !n < min || Span.now () < deadline do
    Gc.full_major ();
    let t0 = Span.now () in
    f ();
    busy := !busy + (Span.now () - t0);
    incr n
  done;
  (!n, float_of_int !busy /. 1e9)

(* ---- checks ----------------------------------------------------------- *)

let digest s = Digest.to_hex (Digest.string s)

let pin_problems key (r : Fpvm.Engine.result) =
  match Pins.find key with
  | None -> [ Printf.sprintf "%s: no determinism pin" key ]
  | Some p ->
      let fp = Fpvm.Stats.fingerprint r.Fpvm.Engine.stats in
      List.concat
        [ (if r.Fpvm.Engine.cycles <> p.Pins.cycles then
             [ Printf.sprintf "%s: modeled cycles %d, pinned %d" key
                 r.Fpvm.Engine.cycles p.Pins.cycles ]
           else []);
          (if r.Fpvm.Engine.insns <> p.Pins.insns then
             [ Printf.sprintf "%s: insns %d, pinned %d" key r.Fpvm.Engine.insns
                 p.Pins.insns ]
           else []);
          (if fp <> p.Pins.fingerprint then
             [ Printf.sprintf "%s: stats fingerprint differs from its pin" key ]
           else []);
          (if digest r.Fpvm.Engine.output <> p.Pins.output_digest then
             [ Printf.sprintf "%s: output digest differs from its pin" key ]
           else []) ]

let vanilla_problems ~native ~reference (r : Fpvm.Engine.result) =
  (if r.Fpvm.Engine.output <> native then [ "output differs from run_native" ]
   else [])
  @
  if Some r.Fpvm.Engine.output <> reference then
    [ "output differs from the pure-OCaml reference" ]
  else []

let floats_of s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l -> float_of_string_opt (String.trim l))

let mpfr_problems ~reference (r : Fpvm.Engine.result) =
  match reference with
  | None -> [ "no binary64 reference" ]
  | Some ref_out ->
      let got = floats_of r.Fpvm.Engine.output and want = floats_of ref_out in
      if List.length got <> List.length want then
        [ "printed value count differs from the reference" ]
      else
        List.concat
          (List.mapi
             (fun i (g, w) ->
               match (g, w) with
               | Some g, Some w
                 when Float.abs (g -. w) <= mpfr_rel_tol *. Float.abs w ->
                   []
               | _ ->
                   [ Printf.sprintf
                       "printed value %d is outside %.0e of the reference" i
                       mpfr_rel_tol ])
             (List.combine got want))

(* ---- shared metric assembly ------------------------------------------- *)

(* The major heap's high-water mark after a fixed amount of work:
   set-up, run_native, the recording to replay and the first
   [heap_runs] measured iterations, each started from a collected heap. Taken later it would grow with how
   many runs fit in [--seconds]. *)
let heap_runs = 3

let note_heap r n =
  if n = heap_runs then
    r.heap_mb <-
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

(* Modeled buckets, grouped the way Fig 9 reports them, summed over the
   guest runs [ss]. *)
let sum ss f = List.fold_left (fun a s -> a + f s) 0 ss

let buckets ss =
  let open Fpvm.Stats in
  let g = sum ss in
  [ ("cyc.delivery", g (fun s -> s.cyc_hw + s.cyc_kernel + s.cyc_delivery));
    ("cyc.decode", g (fun s -> s.cyc_decode));
    ("cyc.bind", g (fun s -> s.cyc_bind));
    ("cyc.plan", g (fun s -> s.cyc_plan));
    ("cyc.emulate", g (fun s -> s.cyc_emulate));
    ("cyc.trace", g (fun s -> s.cyc_trace));
    ("cyc.jit", g (fun s -> s.cyc_jit));
    ("cyc.gc", g (fun s -> s.cyc_gc));
    ("cyc.correctness",
      g (fun s ->
          s.cyc_correctness + s.cyc_correctness_handler + s.cyc_patch_checks)) ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let stats_counts ss =
  let open Fpvm.Stats in
  let g = sum ss in
  let c f = float_of_int (g f) in
  [ ("trapkern.deliveries", c (fun s -> s.fp_traps + s.correctness_traps), "count");
    ("trace.traps_avoided", c (fun s -> s.traps_avoided), "count");
    ("emulate.insns", c (fun s -> s.emulated_insns), "count");
    ("plan.hit_ratio",
      ratio (g (fun s -> s.plan_hits)) (g (fun s -> s.plan_hits + s.plan_misses)),
      "ratio");
    ("decode.misses", c (fun s -> s.decode_misses), "count");
    ("jit.compiles", c (fun s -> s.jit_compiles), "count");
    ("jit.hits", c (fun s -> s.jit_hits), "count");
    ("jit.guard_exits", c (fun s -> s.jit_guard_exits), "count");
    ("jit.hit_ratio",
      ratio (g (fun s -> s.jit_hits)) (g (fun s -> s.jit_hits + s.jit_guard_exits)),
      "ratio");
    ("gc.passes", c (fun s -> s.gc_passes), "count");
    ("gc.words_scanned", c (fun s -> s.gc_words_scanned), "count");
    ("gc.boxes_allocated", c (fun s -> s.boxes_allocated), "count") ]

(* ---- the traced run: per-layer metrics and reconciliation ------------ *)

(* What a traced loop hands back for reporting. All layer figures are
   per traced guest iteration; [setup] figures are per set-up. *)
type traced = {
  t_guests : int; (* traced guest iterations *)
  t_wall_ms : float; (* summed wall time of those iterations *)
  t_plain_ms : float list; (* untraced iteration times, interleaved *)
  t_traced_ms : float list;
  t_stats : Fpvm.Stats.t list; (* the modeled stats of one traced iteration's guests *)
  t_cyc_shared : int; (* compile cycles booked off-guest, out of cyc.jit *)
  t_extra : (string * float) list; (* values for [workload_layers] *)
}

type setup_layers = { s_build : float; s_analysis : float; s_analysis_words : float; s_prepare : float }

let setup_layers cost ~reps =
  let per l = Span.corrected_incl_ns cost l /. 1e6 /. float_of_int reps in
  { s_build = per Guest.build_l;
    s_analysis = per Guest.analysis_l;
    s_analysis_words =
      Span.corrected_incl_words cost Guest.analysis_l /. float_of_int reps;
    s_prepare = per Guest.prepare_l }

(* Per-layer metrics only some workloads exercise; the others report 0. *)
let workload_layers =
  [ ("replay.log_bytes", "bytes"); ("replay.checkpoint_bytes", "bytes");
    ("replay.events", "count"); ("fleet.switches", "count");
    ("fleet.facts_misses", "count"); ("artifact.blocks_published", "count");
    ("artifact.blocks_shared", "count"); ("fleet.two_domain_ms", "ms");
    ("fleet.domain_finish_ms_p50", "ms"); ("fleet.domain_imbalance", "ratio") ]

let layer_metrics r cost ~native_ms ~native_wpi (su : setup_layers) (t : traced)
    =
  let n = float_of_int (max 1 t.t_guests) in
  let ms l = Span.corrected_self_ns cost l /. 1e6 /. n in
  let incl_ms l = Span.corrected_incl_ns cost l /. 1e6 /. n in
  let calls (l : Span.layer) = float_of_int l.Span.calls /. n in
  let words l = Span.corrected_incl_words cost l /. n in
  let m = metric r in
  m "workloads.build_ms" "ms" su.s_build;
  m "analysis.ms" "ms" su.s_analysis;
  m "analysis.words" "words" su.s_analysis_words;
  m "prepare.ms" "ms" su.s_prepare;
  m "trap.ms" "ms" (incl_ms Timed.trap);
  m "trap.calls" "count" (calls Timed.trap);
  m "trap.words" "words" (words Timed.trap);
  m "trap.self_ms" "ms" (ms Timed.trap);
  m "correctness.ms" "ms" (incl_ms Timed.correctness);
  m "correctness.calls" "count" (calls Timed.correctness);
  m "arith.ms" "ms" (ms Timed.arith);
  m "arith.calls" "count" (calls Timed.arith);
  m "arith.words" "words" (words Timed.arith);
  m "machine.ms" "ms" (ms Guest.machine_l);
  m "native.ms" "ms" native_ms;
  m "native.words_per_insn" "words/insn" native_wpi;
  m "gc.ms" "ms" (ms Span.gc);
  m "telemetry.ms" "ms" (ms Timed.telemetry);
  m "telemetry.calls" "count" (calls Timed.telemetry);
  m "record.hook_ms" "ms" (ms Timed.record_hook);
  m "record.self_ms" "ms" (ms Guest.record_l);
  m "replay.hook_ms" "ms" (ms Timed.replay_hook);
  m "replay.self_ms" "ms" (ms Guest.replay_l);
  m "prepare.loop_ms" "ms" (ms Guest.prepare_l);
  m "fleet.serve_ms" "ms" (ms Guest.fleet_l);
  List.iter (fun (name, v, unit) -> m name unit v) (stats_counts t.t_stats);
  let b =
    List.map
      (fun (name, v) ->
        (name, if name = "cyc.jit" then v - t.t_cyc_shared else v))
      (buckets t.t_stats)
  in
  List.iter (fun (name, v) -> m name "cycles" (float_of_int v)) b;
  List.iter
    (fun (name, unit) ->
      let v =
        match List.assoc_opt name t.t_extra with Some v -> v | None -> 0.
      in
      m name unit v)
    workload_layers;
  (* reconciliation: every layer's self time, the wrappers' own cost and
     the harness remainder add up to the traced wall time *)
  let selves =
    List.fold_left (fun a l -> a +. Span.corrected_self_ns cost l) 0. !Span.registry
  in
  let wrap = Span.wrapper_ns cost in
  let wall_ns = t.t_wall_ms *. 1e6 in
  let unattributed = wall_ns -. selves -. wrap in
  m "trace.wall_ms" "ms" (t.t_wall_ms /. n);
  m "trace.unattributed_ms" "ms" (unattributed /. 1e6 /. n);
  m "trace.wrapper_ms" "ms" (wrap /. 1e6 /. n);
  let plain = median t.t_plain_ms and traced = median t.t_traced_ms in
  m "trace.untraced_ms" "ms" plain;
  m "trace.overhead_ms" "ms" (traced -. plain);
  (* human-readable reconciliation, every ratio with its base *)
  line r "  traced wall per iteration: %.3f ms (base of every share below; %d traced iterations)"
    (t.t_wall_ms /. n) t.t_guests;
  let layers =
    List.filter (fun l -> l.Span.calls > 0 || l == Span.gc) (List.rev !Span.registry)
  in
  List.iter
    (fun l ->
      let v = Span.corrected_self_ns cost l in
      if v <> 0. then
        line r "    %-16s self %9.3f ms  %5.1f%%  calls %9.0f  words %12.0f"
          l.Span.name (v /. 1e6 /. n) (100. *. v /. wall_ns) (calls l)
          (Span.corrected_self_words cost l /. n))
    layers;
  line r "    %-16s      %9.3f ms  %5.1f%%" "(wrappers)" (wrap /. 1e6 /. n)
    (100. *. wrap /. wall_ns);
  line r "    %-16s      %9.3f ms  %5.1f%%" "(unattributed)"
    (unattributed /. 1e6 /. n) (100. *. unattributed /. wall_ns);
  line r "  tracing overhead: %.3f ms per guest over an untraced %.3f ms (%+.1f%% of the untraced base)"
    (traced -. plain) plain
    (if plain > 0. then 100. *. (traced -. plain) /. plain else 0.);
  line r "  span cost: %.1f ns and %.1f words inside a span, %.1f ns and %.1f words in total"
    cost.Span.in_ns cost.Span.in_words cost.Span.out_ns cost.Span.out_words;
  (* modeled buckets beside the host layer that does that work *)
  let fp =
    sum t.t_stats Fpvm.Stats.total_fpvm_cycles - t.t_cyc_shared
  in
  let get k = List.assoc k b in
  let share_m c = if fp = 0 then 0. else 100. *. float_of_int c /. float_of_int fp in
  let share_h ls =
    100.
    *. List.fold_left (fun a l -> a +. Span.corrected_self_ns cost l) 0. ls
    /. wall_ns
  in
  (* inside Replay.Session and Fleet.serve the handlers cannot be
     wrapped: the engine's service time is then their self time *)
  let service, service_layers =
    if Timed.trap.Span.calls > 0 then ("trap.self", [ Timed.trap ])
    else if Guest.fleet_l.Span.calls > 0 then ("fleet.serve.self", [ Guest.fleet_l ])
    else ("record+replay.self", [ Guest.record_l; Guest.replay_l ])
  in
  line r "  modeled FPVM cycles per traced iteration: %d (base of the modeled shares)" fp;
  line r "    %-34s modeled %5.1f%%   host %-18s %5.1f%%"
    "delivery+decode+bind+plan+trace+jit"
    (share_m
       (get "cyc.delivery" + get "cyc.decode" + get "cyc.bind"
      + get "cyc.plan" + get "cyc.trace" + get "cyc.jit"))
    service (share_h service_layers);
  line r "    %-34s modeled %5.1f%%   host %-18s %5.1f%%" "emulate"
    (share_m (get "cyc.emulate")) "arith" (share_h [ Timed.arith ]);
  line r "    %-34s modeled %5.1f%%   host %-18s %5.1f%%" "gc"
    (share_m (get "cyc.gc")) "gc" (share_h [ Span.gc ]);
  line r "    %-34s modeled %5.1f%%   host %-18s %5.1f%%" "correctness"
    (share_m (get "cyc.correctness")) "correctness"
    (share_h [ Timed.correctness ]);
  line r "    %-34s modeled %5.1f%%   host %-18s %5.1f%%" "(observation)" 0.
    "telemetry+hooks"
    (share_h [ Timed.telemetry; Timed.record_hook; Timed.replay_hook ])

(* Interleave untraced and traced iterations for [budget] seconds.
   [iter ~traced] runs one guest iteration and returns its guests' stats;
   [side] runs untimed before each pair. *)
let traced_loop ?(side = ignore) budget (iter : traced:bool -> Fpvm.Stats.t list) =
  let plain = ref [] and traced = ref [] and wall = ref 0. and stats = ref [] in
  let guests, _ =
    loop ~min:2 budget (fun () ->
        side ();
        let t0 = Span.now () in
        ignore (iter ~traced:false);
        plain := ms_since t0 :: !plain;
        Gc.full_major ();
        let t1 = Span.now () in
        let s = iter ~traced:true in
        let dt = ms_since t1 in
        traced := dt :: !traced;
        wall := !wall +. dt;
        stats := s)
  in
  (guests, !wall, !plain, !traced, !stats)

(* ---- single-guest workloads: three-body-vanilla, fbench-mpfr ---------- *)

(* Host times of the measured loop: raw, and scaled by the host-speed
   probes around each measured call (the metrics). *)
type times = {
  meter : Hostspeed.meter;
  mutable setups : float list; (* s *)
  mutable runs : float list;
  mutable replays : float list;
  mutable raw_runs : float list;
  mutable raw_replays : float list;
  mutable guest_s : float; (* scaled seconds of guest work *)
}

(* Takes the loop's first probe: call it right before the loop. *)
let new_times () =
  { meter = Hostspeed.meter (); setups = []; runs = []; replays = [];
    raw_runs = []; raw_replays = []; guest_s = 0. }

(* [guest_ms] is the guest's whole raw time (set-up, run, checks),
   which includes [setup_ms] and [run_ms]; [k] is the factor of the
   probes around it. *)
let add_run t ~setup_ms ~run_ms ~guest_ms k =
  t.setups <- (setup_ms *. k /. 1e3) :: t.setups;
  t.raw_runs <- run_ms :: t.raw_runs;
  t.runs <- (run_ms *. k) :: t.runs;
  t.guest_s <- t.guest_s +. (guest_ms *. k /. 1e3)

let add_replay t replay_ms k =
  t.raw_replays <- replay_ms :: t.raw_replays;
  t.replays <- (replay_ms *. k) :: t.replays

let e2e r t ~guests_per_s ~wpi ~slowdown =
  line r "  host-speed probe: n=%d p50=%.3f ms (nominal %.0f ms; times below are scaled to it unless marked raw)"
    (List.length t.meter.Hostspeed.probes) (median t.meter.Hostspeed.probes)
    Hostspeed.nominal_ms;
  describe_samples r "setup" "s" t.setups;
  describe_samples r "run_ms" "ms" t.runs;
  describe_samples r "run_ms raw" "ms" t.raw_runs;
  describe_samples r "replay_ms" "ms" t.replays;
  describe_samples r "replay_ms raw" "ms" t.raw_replays;
  metric r "setup_s" "s" (median t.setups);
  metric r "run_ms_p50" "ms" (median t.runs);
  metric r "replay_ms_p50" "ms" (median t.replays);
  metric r "guests_per_s" "1/s" guests_per_s;
  metric r "alloc_words_per_insn" "words/insn" wpi;
  metric r "peak_heap_mb" "MB" r.heap_mb;
  metric r "modeled_slowdown" "x" slowdown

let entry name =
  match W.find name with
  | Some e -> e
  | None -> invalid_arg ("unknown workload " ^ name)

(* Set-up: workload build + Vsa.analyze + prepare, from the pristine
   program to prepared sessions. [setup_once] times one. The untraced
   run times one inside every measured iteration, between the same
   host-speed probes as the guest run, so set-up samples the whole
   window as the runs do: run back to back before the loops, set-ups
   took 0.15 s in some processes and 0.20 s in others. *)
let setup_once build prepare =
  let t0 = Span.now () in
  let b = build () in
  let p = prepare b in
  (ms_since t0, b, p)

(* Set-up before the measured loops. The traced run repeats it [reps]
   times, sized so the per-set-up layer figures are steady; the
   untraced run does it once, as a warm-up. Returns the last build,
   whose programs and facts the loops reuse where they need no fresh
   set-up. *)
let setup ~traced ~reps build prepare =
  let last = ref None in
  for _ = 1 to if traced then reps else 1 do
    let _, b, _ = setup_once build prepare in
    last := Some b
  done;
  match !last with Some b -> b | None -> assert false

(* Set-up ends at a prepared session; its run is never started. *)
let discard_session (_ : unit -> Fpvm.Engine.result) = ()

let build_analyzed ~traced f =
  let prog = Guest.build ~traced f in
  (prog, Guest.analyze ~traced prog)

(* run_native with its host time and allocation *)
let native ~traced prog =
  let w0 = Span.words () in
  let t0 = Span.now () in
  let n = Guest.native ~traced prog in
  let ms = ms_since t0 in
  (n, ms, ratio (Span.words () - w0) n.Fpvm.Engine.insns)

let calibrated traced =
  if traced then Span.calibrate () else Span.zero_cost

let log_meta ~workload ~arith ~config =
  { Replay.Log.workload; scale = "s"; arith; config }

(* ---- three-body-vanilla and fbench-mpfr -------------------------------- *)

let solo ctx r ~key ~(port : Guest.port) ~arith ~name ~setup_reps ~check =
  let traced = ctx.trace in
  let e = entry name in
  let build () = build_analyzed ~traced (fun () -> e.W.program W.S) in
  let prepare (prog, facts) = port.prepare ~traced facts prog in
  let prog, facts = setup ~traced ~reps:setup_reps build prepare in
  let cost = calibrated traced in
  let su = setup_layers cost ~reps:setup_reps in
  let nat, native_ms, native_wpi = native ~traced prog in
  let reference = e.W.reference W.S in
  let problems res =
    check ~native:nat.Fpvm.Engine.output ~reference res @ pin_problems key res
  in
  if not traced then begin
    let meta = log_meta ~workload:e.W.name ~arith ~config:"hostbench" in
    let rec_ =
      port.record ~traced ~checkpoint_every:0 ~meta ~tel:None facts prog
    in
    guest r (problems rec_.Replay.Session.result);
    (* runs and replays interleave, so both medians sample the whole
       measured window of a host whose speed drifts *)
    let t = new_times () in
    let wpis = ref [] and slowdown = ref 0. in
    let n, _ =
      loop ctx.seconds (fun () ->
          let t_guest = Span.now () in
          let setup_ms, _, go = setup_once build prepare in
          let w0 = Span.words () in
          let t0 = Span.now () in
          let res = go () in
          let run_ms = ms_since t0 in
          wpis := ratio (Span.words () - w0) res.Fpvm.Engine.insns :: !wpis;
          note_heap r (List.length t.runs + 1);
          slowdown := ratio res.Fpvm.Engine.cycles nat.Fpvm.Engine.cycles;
          guest r (problems res);
          let k = Hostspeed.factor t.meter in
          add_run t ~setup_ms ~run_ms ~guest_ms:(ms_since t_guest) k;
          let t1 = Span.now () in
          let o = port.replay ~traced rec_.Replay.Session.log_bytes prog in
          let replay_ms = ms_since t1 in
          add_replay t replay_ms (Hostspeed.factor t.meter);
          guest r
            (match o with
            | Replay.Session.Match res -> pin_problems key res
            | Replay.Session.Diverged d ->
                [ Printf.sprintf "replay diverged at event %d" d.Replay.Session.at ]))
    in
    e2e r t ~guests_per_s:(float_of_int n /. t.guest_s) ~wpi:(median !wpis)
      ~slowdown:!slowdown
  end
  else begin
    Span.reset ();
    let guests, wall, plain, traced_ms, stats =
      traced_loop ctx.seconds (fun ~traced ->
          let res = port.prepare ~traced facts prog () in
          guest r (problems res);
          [ res.Fpvm.Engine.stats ])
    in
    layer_metrics r cost ~native_ms ~native_wpi su
      { t_guests = guests; t_wall_ms = wall; t_plain_ms = plain;
        t_traced_ms = traced_ms; t_stats = stats; t_cyc_shared = 0;
        t_extra = [] }
  end

let three_body ctx r =
  solo ctx r ~key:"three-body-vanilla" ~port:vanilla ~arith:"vanilla"
    ~name:"three-body" ~setup_reps:12 ~check:vanilla_problems

let fbench ctx r =
  solo ctx r ~key:"fbench-mpfr" ~port:mpfr ~arith:"mpfr:200" ~name:"fbench"
    ~setup_reps:120 ~check:(fun ~native:_ ~reference res -> mpfr_problems ~reference res)

(* ---- lorenz-record-replay ---------------------------------------------- *)

let lorenz_key nth = Printf.sprintf "lorenz-record-replay/inject=%d" nth

let lorenz_nth seed =
  inject_candidates.(abs (seed mod Array.length inject_candidates))

let lorenz_build nth () =
  Machine.Program.inject_nan ((entry "lorenz").W.program W.S) ~nth

(* Telemetry as [fpvm_run --shadow-check --flows] builds it. *)
let lorenz_telemetry (facts : Fpvm.Vsa.analysis) n =
  let born = Analysis.Fpa.born_free_array facts.Fpvm.Vsa.fpa n in
  Telemetry.create ~shadow:true ~flows:true
    ~clean:(fun i -> i >= 0 && i < n && born.(i))
    ()

let lorenz_setup_reps = 600

let lorenz ctx r =
  let traced = ctx.trace in
  let nth = lorenz_nth ctx.seed in
  let key = lorenz_key nth in
  line r "  seed %d: NaN injected at eligible FP site #%d" ctx.seed nth;
  let build () = build_analyzed ~traced (lorenz_build nth) in
  let prepare (prog, facts) = discard_session (mpfr.prepare ~traced facts prog) in
  let prog, facts = setup ~traced ~reps:lorenz_setup_reps build prepare in
  let cost = calibrated traced in
  let su = setup_layers cost ~reps:lorenz_setup_reps in
  let nat, native_ms, native_wpi = native ~traced prog in
  let n = Array.length prog.Machine.Program.insns in
  (* [inject_nan] appends [zero; 0/0; ret]: the NaN is born at n - 2 *)
  let birth_site = n - 2 in
  let meta =
    log_meta ~workload:"lorenz" ~arith:"mpfr:200"
      ~config:(Printf.sprintf "hostbench;injnan=%d" nth)
  in
  let wpis = ref [] and slowdown = ref 0. and heap_n = ref 0 in
  (* [t], in the untraced run, times a set-up before the recording and
     takes a host-speed probe after the recording and after the replay *)
  let iteration ?t ~traced () =
    let factor () =
      match t with Some t -> Hostspeed.factor t.meter | None -> 1.
    in
    let setup_ms, (prog, facts), () =
      match t with
      | Some _ -> setup_once build prepare
      | None -> (0., (prog, facts), ())
    in
    let tel = lorenz_telemetry facts n in
    let w0 = Span.words () in
    let t0 = Span.now () in
    let rec_ =
      mpfr.record ~traced ~checkpoint_every ~meta ~tel:(Some tel) facts prog
    in
    let run_ms = ms_since t0 in
    let words = Span.words () - w0 in
    let k_run = factor () in
    let t1 = Span.now () in
    let o = mpfr.replay ~traced rec_.Replay.Session.log_bytes prog in
    let replay_ms = ms_since t1 in
    let k_replay = factor () in
    let res = rec_.Replay.Session.result in
    let events = res.Fpvm.Engine.stats.Fpvm.Stats.replay_events in
    let birth =
      match tel.Telemetry.flows with
      | Some fr -> (
          match Telemetry.Flowrec.all_flows fr with
          | f :: _
            when f.Telemetry.Flowrec.fl_is_nan
                 && f.Telemetry.Flowrec.fl_birth_site = birth_site
                 && f.Telemetry.Flowrec.fl_birth_event >= 0
                 && f.Telemetry.Flowrec.fl_birth_event < events ->
              []
          | _ -> [ "the injected NaN birth was not recovered" ])
      | None -> [ "no flight recorder attached" ]
    in
    let replayed =
      match o with
      | Replay.Session.Match rr -> pin_problems key rr
      | Replay.Session.Diverged d ->
          [ Printf.sprintf "replay diverged at event %d" d.Replay.Session.at ]
    in
    guest r (pin_problems key res @ birth @ replayed);
    (match t with
    | Some t ->
        (* a guest is its recording plus its replay *)
        add_run t ~setup_ms ~run_ms ~guest_ms:(setup_ms +. run_ms) k_run;
        add_replay t replay_ms k_replay;
        t.guest_s <- t.guest_s +. (replay_ms *. k_replay /. 1e3)
    | None -> ());
    incr heap_n;
    note_heap r !heap_n;
    wpis := ratio words res.Fpvm.Engine.insns :: !wpis;
    slowdown := ratio res.Fpvm.Engine.cycles nat.Fpvm.Engine.cycles;
    res.Fpvm.Engine.stats
  in
  if not traced then begin
    let t = new_times () in
    let n, _ =
      loop ctx.seconds (fun () -> ignore (iteration ~t ~traced:false ()))
    in
    e2e r t ~guests_per_s:(float_of_int n /. t.guest_s) ~wpi:(median !wpis)
      ~slowdown:!slowdown
  end
  else begin
    Span.reset ();
    let guests, wall, plain, traced_ms, stats =
      traced_loop ctx.seconds (fun ~traced -> [ iteration ~traced () ])
    in
    let s = match stats with [ s ] -> s | _ -> Fpvm.Stats.create () in
    layer_metrics r cost ~native_ms ~native_wpi su
      { t_guests = guests; t_wall_ms = wall; t_plain_ms = plain;
        t_traced_ms = traced_ms; t_stats = stats; t_cyc_shared = 0;
        t_extra =
          [ ("replay.log_bytes", float_of_int s.Fpvm.Stats.replay_log_bytes);
            ("replay.checkpoint_bytes",
              float_of_int s.Fpvm.Stats.replay_checkpoint_bytes);
            ("replay.events", float_of_int s.Fpvm.Stats.replay_events) ] }
  end

(* ---- fleet-mix ---------------------------------------------------------- *)

(* (workload, port, pin key of its solo run), each served twice *)
let fleet_kinds =
  [ ("lorenz", Fleet.Port.Mpfr 200, "lorenz-mpfr");
    ("three-body", Fleet.Port.Vanilla, "three-body-vanilla");
    ("NAS MG", Fleet.Port.Vanilla, "nas-mg-vanilla");
    ("fbench", Fleet.Port.Mpfr 200, "fbench-mpfr") ]

(* The end-to-end fleet metrics come from one-domain serves. On a
   2-vCPU host shared with other tenants, a two-domain serve's wall time
   swung by up to 2x between otherwise identical runs, which no bound
   could hold; a one-domain serve still exercises the scheduler, the
   fact store and block sharing. Two-domain contention is measured in
   the traced run. *)
let fleet_domains = 1
let contention_domains = 2

let port_of = function Fleet.Port.Vanilla -> vanilla | _ -> mpfr

let pin_key_of (g : Fleet.guest) =
  let _, _, k =
    List.find
      (fun (w, p, _) -> w = g.Fleet.g_workload && p = g.Fleet.g_port)
      fleet_kinds
  in
  k

(* The manifest: one line per kind with count=2, lines in seed order.
   Both copies of a kind are adjacent, so the weighted partition gives
   each domain one copy of every kind in the same order whatever the
   seed; the seed moves only the order the kinds start in. *)
let fleet_guests seed =
  let kinds = Array.of_list fleet_kinds in
  let rng = Random.State.make [| seed |] in
  for i = Array.length kinds - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- t
  done;
  List.concat_map (fun k -> [ k; k ]) (Array.to_list kinds)
  |> List.mapi (fun i (w, p, _) ->
         { Fleet.g_id = i; g_workload = (entry w).W.name; g_scale = W.S;
           g_port = p; g_config = Guest.config })

let fleet_setup_reps = 5

let fleet ctx r =
  let traced = ctx.trace in
  let guests = fleet_guests ctx.seed in
  let n_guests = List.length guests in
  line r "  seed %d: manifest order %s" ctx.seed
    (String.concat ", "
       (List.map
          (fun g -> g.Fleet.g_workload ^ "/" ^ Fleet.Port.to_string g.Fleet.g_port)
          guests));
  (* LPT weights from the pinned modeled cycles *)
  let weights =
    Array.of_list
      (List.map
         (fun g ->
           match Pins.find (pin_key_of g) with
           | Some p -> p.Pins.cycles
           | None -> 1)
         guests)
  in
  let names = List.sort_uniq compare (List.map (fun g -> g.Fleet.g_workload) guests) in
  let build () =
    List.map
      (fun w -> (w, build_analyzed ~traced (fun () -> (entry w).W.program W.S)))
      names
  in
  let prepare progs =
    List.iter
      (fun (g : Fleet.guest) ->
        let prog, facts = List.assoc g.Fleet.g_workload progs in
        discard_session ((port_of g.Fleet.g_port).prepare ~traced facts prog))
      guests
  in
  let progs = setup ~traced ~reps:fleet_setup_reps build prepare in
  let cost = calibrated traced in
  let su = setup_layers cost ~reps:fleet_setup_reps in
  let natives = List.map (fun (w, (prog, _)) -> (w, native ~traced prog)) progs in
  let per_guest f = List.map (fun g -> f (List.assoc g.Fleet.g_workload natives)) guests in
  let native_cycles =
    List.fold_left ( + ) 0 (per_guest (fun (n, _, _) -> n.Fpvm.Engine.cycles))
  in
  let native_ms = List.fold_left ( +. ) 0. (per_guest (fun (_, ms, _) -> ms)) in
  let native_wpi = median (per_guest (fun (_, _, w) -> w)) in
  let serve_once ?(domains = fleet_domains) ~traced () =
    let t0 = Span.now () in
    let stamps = ref [] in
    let on_result (gr : Fleet.guest_result) =
      stamps := (gr.Fleet.r_domain, Span.now () - t0) :: !stamps
    in
    let m0 = (Gc.quick_stat ()).Gc.minor_words in
    let fr =
      Guest.span traced Guest.fleet_l (fun () ->
          Fleet.serve ~domains ~weights ~on_result guests)
    in
    let wall_ms = ms_since t0 in
    let words = (Gc.quick_stat ()).Gc.minor_words -. m0 in
    let total = fr.Fleet.f_total_cycles + fr.Fleet.f_cyc_compile_shared in
    let total_problems =
      if total <> Pins.fleet_total then
        [ Printf.sprintf "fleet total_cycles + cyc_compile_shared = %d, pinned %d"
            total Pins.fleet_total ]
      else []
    in
    (* one guest run per fleet guest; a wrong fleet total fails them all *)
    List.iter
      (fun (gr : Fleet.guest_result) ->
        let k = pin_key_of gr.Fleet.r_guest in
        guest r
          (total_problems
          @
          match Pins.find k with
          | None -> [ k ^ ": no determinism pin" ]
          | Some p ->
              (if gr.Fleet.r_fingerprint <> p.Pins.fingerprint then
                 [ k ^ ": fleet guest fingerprint differs from its solo pin" ]
               else [])
              @ (if gr.Fleet.r_insns <> p.Pins.insns then
                   [ k ^ ": fleet guest insns differ from its solo pin" ]
                 else [])
              @
              if digest gr.Fleet.r_output <> p.Pins.output_digest then
                [ k ^ ": fleet guest output differs from its solo pin" ]
              else []))
      fr.Fleet.f_results;
    (fr, wall_ms, words, !stamps)
  in
  if not traced then begin
    (* replay-validate the mix's lorenz mpfr-200 guest, recorded solo,
       interleaved with the serves *)
    let prog, facts = List.assoc "lorenz" progs in
    let meta = log_meta ~workload:"lorenz" ~arith:"mpfr:200" ~config:"hostbench" in
    let rec_ = mpfr.record ~traced ~checkpoint_every:0 ~meta ~tel:None facts prog in
    guest r (pin_problems "lorenz-mpfr" rec_.Replay.Session.result);
    let t = new_times () in
    let rates = ref [] and wpis = ref [] and slowdown = ref 0. in
    ignore
      (loop ctx.seconds (fun () ->
           (* the serve sets its guests up itself; this set-up of the
              same guests is timed alone *)
           let setup_ms, _, () = setup_once build prepare in
           let fr, wall_ms, words, _ = serve_once ~traced:false () in
           let k = Hostspeed.factor t.meter in
           add_run t ~setup_ms ~run_ms:wall_ms ~guest_ms:wall_ms k;
           let insns = List.fold_left (fun a g -> a + g.Fleet.r_insns) 0 fr.Fleet.f_results in
           note_heap r (List.length t.runs);
           rates := (float_of_int n_guests /. (wall_ms *. k /. 1e3)) :: !rates;
           wpis := (words /. float_of_int insns) :: !wpis;
           slowdown := ratio fr.Fleet.f_total_cycles native_cycles;
           let t0 = Span.now () in
           let o = mpfr.replay ~traced rec_.Replay.Session.log_bytes prog in
           add_replay t (ms_since t0) (Hostspeed.factor t.meter);
           guest r
             (match o with
             | Replay.Session.Match res -> pin_problems "lorenz-mpfr" res
             | Replay.Session.Diverged d ->
                 [ Printf.sprintf "replay diverged at event %d" d.Replay.Session.at ])));
    line r "  run_ms is one Fleet.serve of all %d guests on %d domain(s)" n_guests
      fleet_domains;
    e2e r t ~guests_per_s:(median !rates) ~wpi:(median !wpis)
      ~slowdown:!slowdown
  end
  else begin
    (* Fleet.serve returns no per-guest Stats. Each fleet guest's
       fingerprint is checked equal to its solo pin, so the fleet's
       modeled buckets and counts are those of one solo run per kind,
       summed over the manifest, less the compile cycles the fleet moved
       off-guest into its shared bucket. *)
    let solo_stats =
      List.map
        (fun (w, p, key) ->
          let prog, facts = List.assoc w progs in
          let res = (port_of p).prepare ~traced:false facts prog () in
          guest r (pin_problems key res);
          (key, res.Fpvm.Engine.stats))
        fleet_kinds
    in
    Span.reset ();
    let serves = ref [] and contended = ref [] in
    let iters, wall, plain, traced_ms, _ =
      traced_loop
        ~side:(fun () ->
          (* the same manifest on two domains, untraced, once per pair *)
          contended := serve_once ~domains:contention_domains ~traced:false () :: !contended;
          Gc.full_major ())
        ctx.seconds
        (fun ~traced ->
          let fr, _, _, _ = serve_once ~traced () in
          if traced then serves := fr :: !serves;
          [])
    in
    let count f = median (List.map (fun fr -> float_of_int (f fr)) !serves) in
    let finishes (_, _, _, stamps) =
      List.init contention_domains (fun d ->
          List.fold_left (fun a (d', t) -> if d' = d then max a t else a) 0 stamps)
    in
    let imbalance ((_, wall_ms, _, _) as c) =
      let fins = finishes c in
      float_of_int (List.fold_left max 0 fins - List.fold_left min max_int fins)
      /. 1e6 /. wall_ms
    in
    let two_ms = median (List.map (fun (_, ms, _, _) -> ms) !contended) in
    line r "  two-domain serve: n=%d, %.3f ms vs one-domain %.3f ms (speedup %.2fx over the one-domain base)"
      (List.length !contended) two_ms (median plain) (median plain /. two_ms);
    layer_metrics r cost ~native_ms ~native_wpi su
      { t_guests = iters; t_wall_ms = wall; t_plain_ms = plain;
        t_traced_ms = traced_ms;
        t_stats = List.map (fun g -> List.assoc (pin_key_of g) solo_stats) guests;
        t_cyc_shared = int_of_float (count (fun fr -> fr.Fleet.f_cyc_compile_shared));
        t_extra =
          [ ("fleet.switches", count (fun fr -> fr.Fleet.f_switches));
            ("fleet.facts_misses", count (fun fr -> fr.Fleet.f_facts_misses));
            ("artifact.blocks_published", count (fun fr -> fr.Fleet.f_blocks_published));
            ("artifact.blocks_shared", count (fun fr -> fr.Fleet.f_blocks_shared));
            ("fleet.two_domain_ms", two_ms);
            ("fleet.domain_finish_ms_p50",
              median
                (List.concat_map
                   (fun c -> List.map (fun t -> float_of_int t /. 1e6) (finishes c))
                   !contended));
            ("fleet.domain_imbalance", median (List.map imbalance !contended)) ] }
  end

let workloads =
  [ ("three-body-vanilla", three_body);
    ("fbench-mpfr", fbench);
    ("lorenz-record-replay", lorenz);
    ("fleet-mix", fleet) ]

(* ---- pins ---------------------------------------------------------------- *)

(* Print [pins.ml] from the current engine: the determinism pins are
   regenerated only when a change is meant to move modeled results. *)
let print_pins () =
  let solo key (port : Guest.port) prog =
    let facts = Fpvm.Vsa.analyze prog in
    let r = port.prepare ~traced:false facts prog () in
    Printf.printf
      "    (%S,\n     { cycles = %d; insns = %d;\n       fingerprint = %S;\n       output_digest = %S });\n"
      key r.Fpvm.Engine.cycles r.Fpvm.Engine.insns
      (Fpvm.Stats.fingerprint r.Fpvm.Engine.stats)
      (digest r.Fpvm.Engine.output)
  in
  let prog w = (entry w).W.program W.S in
  print_string
    "(* Determinism pins: modeled cycles, dynamic instructions, the 42-field\n\
    \   stats fingerprint and an output digest per guest, generated by\n\
    \   [main.exe --print-pins] and checked exactly on every run. *)\n\n\
     type pin = {\n\
    \  cycles : int;\n\
    \  insns : int;\n\
    \  fingerprint : string;\n\
    \  output_digest : string;\n\
     }\n\n\
     let table =\n\
    \  [\n";
  solo "three-body-vanilla" vanilla (prog "three-body");
  solo "fbench-mpfr" mpfr (prog "fbench");
  solo "lorenz-mpfr" mpfr (prog "lorenz");
  solo "nas-mg-vanilla" vanilla (prog "NAS MG");
  Array.iter
    (fun nth -> solo (lorenz_key nth) mpfr (lorenz_build nth ()))
    inject_candidates;
  print_string "  ]\n\nlet find key = List.assoc_opt key table\n\n";
  let fr =
    Fleet.serve ~domains:fleet_domains (fleet_guests 0)
  in
  Printf.printf
    "(* fleet-mix: total_cycles + cyc_compile_shared over all guests *)\n\
     let fleet_total = %d\n"
    (fr.Fleet.f_total_cycles + fr.Fleet.f_cyc_compile_shared)

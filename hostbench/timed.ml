(* Timing wrappers around the engine's public seams. Each wrapper only
   times the call it forwards: output, serialized bytes, modeled
   cycles and the stats fingerprint stay those of the plain run
   (test/test_transparency.ml checks it). *)

let arith = Span.layer "arith"
let trap = Span.layer "trap"
let correctness = Span.layer "correctness"
let telemetry = Span.layer "telemetry"
let record_hook = Span.layer "record.hook"
let replay_hook = Span.layer "replay.hook"

(* A timing functor over the arithmetic interface. A port that calls
   back into its own exported functions through this module would
   otherwise be timed twice, so nested calls run untimed. *)
module Arith (A : Fpvm.Arith.S) : Fpvm.Arith.S with type value = A.value =
struct
  type value = A.value

  let name = A.name
  let inside = ref false

  let t1 f x =
    if !inside then f x
    else begin
      inside := true;
      match Span.time1 Span.no_gc arith f x with
      | v ->
          inside := false;
          v
      | exception e ->
          inside := false;
          raise e
    end

  let t2 f x y =
    if !inside then f x y
    else begin
      inside := true;
      match Span.time2 Span.no_gc arith f x y with
      | v ->
          inside := false;
          v
      | exception e ->
          inside := false;
          raise e
    end

  let t3 f x y z =
    if !inside then f x y z
    else begin
      inside := true;
      match Span.time3 Span.no_gc arith f x y z with
      | v ->
          inside := false;
          v
      | exception e ->
          inside := false;
          raise e
    end

  let promote x = t1 A.promote x
  let demote x = t1 A.demote x
  let add x y = t2 A.add x y
  let sub x y = t2 A.sub x y
  let mul x y = t2 A.mul x y
  let div x y = t2 A.div x y
  let sqrt x = t1 A.sqrt x
  let fma x y z = t3 A.fma x y z
  let neg x = t1 A.neg x
  let abs x = t1 A.abs x
  let min_v x y = t2 A.min_v x y
  let max_v x y = t2 A.max_v x y
  let sin x = t1 A.sin x
  let cos x = t1 A.cos x
  let tan x = t1 A.tan x
  let asin x = t1 A.asin x
  let acos x = t1 A.acos x
  let atan x = t1 A.atan x
  let atan2 x y = t2 A.atan2 x y
  let exp x = t1 A.exp x
  let log x = t1 A.log x
  let log10 x = t1 A.log10 x
  let pow x y = t2 A.pow x y
  let fmod x y = t2 A.fmod x y
  let hypot x y = t2 A.hypot x y
  let of_i64 x = t1 A.of_i64 x
  let of_i32 x = t1 A.of_i32 x
  let to_i64 r x = t2 A.to_i64 r x
  let to_i32 r x = t2 A.to_i32 r x
  let of_f32_bits x = t1 A.of_f32_bits x
  let to_f32_bits x = t1 A.to_f32_bits x
  let round_int r x = t2 A.round_int r x
  let floor_v x = t1 A.floor_v x
  let ceil_v x = t1 A.ceil_v x
  let to_string x = t1 A.to_string x
  let cmp_quiet x y = t2 A.cmp_quiet x y
  let cmp_signaling x y = t2 A.cmp_signaling x y
  let is_nan_v x = t1 A.is_nan_v x
  let is_zero_v x = t1 A.is_zero_v x

  (* serialization belongs to the recorder and checkpoints, and the
     cost model is not host work: both forward untimed *)
  let encode_value = A.encode_value
  let decode_value = A.decode_value
  let op_cycles = A.op_cycles
end

(* The kernel's handlers as [prepare] installed them, each wrapped in a
   span that books the session's shadow-GC time to the gc layer. The
   wrappers are closure-free, like every hot one here, so an empty
   span's calibrated cost is what each call adds. *)
let wrap_handlers (kern : Trapkern.t) (stats : Fpvm.Stats.t) =
  let gc () = stats.Fpvm.Stats.gc_latency_s in
  (match kern.Trapkern.fpe_handler with
  | Some h -> kern.Trapkern.fpe_handler <- Some (Span.time2 gc trap h)
  | None -> ());
  match kern.Trapkern.trap_handler with
  | Some h -> kern.Trapkern.trap_handler <- Some (Span.time2 gc correctness h)
  | None -> ()

(* Telemetry collectors, after [Telemetry.attach] installed them. *)
let wrap_telemetry (sink : Fpvm.Probe.sink) =
  sink.Fpvm.Probe.on_tel <-
    Option.map (Span.time2 Span.no_gc telemetry) sink.Fpvm.Probe.on_tel;
  sink.Fpvm.Probe.on_num <-
    Option.map (Span.time2 Span.no_gc telemetry) sink.Fpvm.Probe.on_num

(* The recorder (or replay validator) installs its [on_event] and
   [on_quiesce] callbacks after the instrument hook has run, so they
   cannot be wrapped up front. Instead a first-firing trigger rewraps
   whatever the channel holds by then; the trigger itself becomes a
   no-op inside the wrapped chain. *)
let wrap_hooks_lazily ~quiesce hook (sink : Fpvm.Probe.sink) =
  let ev_armed = ref true and q_armed = ref true in
  Fpvm.Probe.add_event sink (fun _st _ev ->
      if !ev_armed then begin
        ev_armed := false;
        sink.Fpvm.Probe.on_event <-
          Option.map (Span.time2 Span.no_gc hook) sink.Fpvm.Probe.on_event
      end);
  if quiesce then
  Fpvm.Probe.add_quiesce sink (fun _st ->
      if !q_armed then begin
        q_armed := false;
        sink.Fpvm.Probe.on_quiesce <-
          Option.map (Span.time1 Span.no_gc hook) sink.Fpvm.Probe.on_quiesce
      end)

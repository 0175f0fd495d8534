(* Outside-in layer spans: host nanoseconds and host minor words per
   call into a layer's public functions.

   A span stack gives every layer its self time (its own duration minus
   the part its child spans cover), so the self times of all layers
   plus the harness time outside every span add up to the wall time of
   the traced run. The engine times its shadow GC itself
   ([Fpvm.Stats.gc_latency_s]); a span that can see a session's stats
   passes that clock in, and the GC time that ran under it becomes a
   pseudo-child booked to the [gc] layer.

   Spans are single-domain: traced runs never enter [Fleet.serve]'s
   worker domains. Reading [Gc.minor_words] boxes a float and each
   span reads three clocks, so {!calibrate} measures what an empty span
   costs and {!corrected_self_ns} subtracts it. *)

type layer = {
  name : string;
  mutable calls : int;
  mutable incl_ns : int;
  mutable self_ns : int;
  mutable incl_words : int;
  mutable self_words : int;
  mutable child_calls : int; (* spans opened directly under this one *)
}

let now () = Int64.to_int (Monotonic_clock.now ())
let words () = int_of_float (Gc.minor_words ())

let registry : layer list ref = ref []

let layer name =
  let l =
    { name; calls = 0; incl_ns = 0; self_ns = 0; incl_words = 0;
      self_words = 0; child_calls = 0 }
  in
  registry := l :: !registry;
  l

(* The GC pseudo-layer: fed only through [~gc] clocks. *)
let gc = layer "gc"

let reset () =
  List.iter
    (fun l ->
      l.calls <- 0;
      l.incl_ns <- 0;
      l.self_ns <- 0;
      l.incl_words <- 0;
      l.self_words <- 0;
      l.child_calls <- 0)
    !registry

(* Per-depth accumulators of what the open span's children covered. *)
let max_depth = 64
let child_ns = Array.make max_depth 0
let child_words = Array.make max_depth 0
let child_gc_ns = Array.make max_depth 0
let child_n = Array.make max_depth 0
let depth = ref 0

let[@inline] enter () =
  let d = !depth + 1 in
  child_ns.(d) <- 0;
  child_words.(d) <- 0;
  child_gc_ns.(d) <- 0;
  child_n.(d) <- 0;
  depth := d;
  d

let[@inline] leave l d t0 w0 gc_ns =
  let t1 = now () in
  let w1 = words () in
  let dt = t1 - t0 and dw = w1 - w0 in
  (* GC that ran under this span but not under a child span *)
  let own_gc = gc_ns - child_gc_ns.(d) in
  l.calls <- l.calls + 1;
  l.child_calls <- l.child_calls + child_n.(d);
  l.incl_ns <- l.incl_ns + dt;
  l.self_ns <- l.self_ns + dt - child_ns.(d) - own_gc;
  l.incl_words <- l.incl_words + dw;
  l.self_words <- l.self_words + dw - child_words.(d);
  if own_gc > 0 then begin
    gc.incl_ns <- gc.incl_ns + own_gc;
    gc.self_ns <- gc.self_ns + own_gc
  end;
  let p = d - 1 in
  depth := p;
  child_ns.(p) <- child_ns.(p) + dt;
  child_words.(p) <- child_words.(p) + dw;
  child_gc_ns.(p) <- child_gc_ns.(p) + gc_ns;
  child_n.(p) <- child_n.(p) + 1

(* Every span reads a GC clock: the engine's cumulative shadow-GC
   seconds for the session it drives, or [no_gc]. All spans therefore do
   the same work, and the one cost {!calibrate} measures is the cost of
   each of them. *)
let no_gc () = 0.

let[@inline] gc_ns gc g0 = int_of_float ((gc () -. g0) *. 1e9)

(* [time1 gc l f x] runs [f x] as a span of [l]; the closure-free
   [time2] and [time3] are the same for more arguments. *)
let time1 gc l f x =
  let d = enter () in
  let g0 = gc () in
  let w0 = words () in
  let t0 = now () in
  match f x with
  | v ->
      leave l d t0 w0 (gc_ns gc g0);
      v
  | exception e ->
      leave l d t0 w0 (gc_ns gc g0);
      raise e

let time2 gc l f x y =
  let d = enter () in
  let g0 = gc () in
  let w0 = words () in
  let t0 = now () in
  match f x y with
  | v ->
      leave l d t0 w0 (gc_ns gc g0);
      v
  | exception e ->
      leave l d t0 w0 (gc_ns gc g0);
      raise e

let time3 gc l f x y z =
  let d = enter () in
  let g0 = gc () in
  let w0 = words () in
  let t0 = now () in
  match f x y z with
  | v ->
      leave l d t0 w0 (gc_ns gc g0);
      v
  | exception e ->
      leave l d t0 w0 (gc_ns gc g0);
      raise e

(* [time ?gc l f] runs [f ()] as a span of [l]. For the coarse layers,
   entered a few times per guest: the caller allocates the closure. *)
let time ?(gc = no_gc) l f = time1 gc l f ()

(* ---- wrapper cost -------------------------------------------------- *)

(* What one empty span costs: [in_*] is what it books inside itself
   (its own incl), [out_*] what it costs its caller in total. *)
type cost = { in_ns : float; out_ns : float; in_words : float; out_words : float }

let zero_cost = { in_ns = 0.; out_ns = 0.; in_words = 0.; out_words = 0. }

let calibrate ?(n = 200_000) () =
  let probe =
    { name = "calibration"; calls = 0; incl_ns = 0; self_ns = 0;
      incl_words = 0; self_words = 0; child_calls = 0 }
  in
  let noop () = () in
  (* a clock shaped like a session's: a float field read per call *)
  let clock_cell = ref 0. in
  let clock () = !clock_cell in
  let best = ref None in
  for _ = 1 to 5 do
    probe.calls <- 0;
    probe.incl_ns <- 0;
    probe.incl_words <- 0;
    let w0 = words () in
    let t0 = now () in
    for _ = 1 to n do
      time1 clock probe noop ()
    done;
    let t1 = now () in
    let w1 = words () in
    let fn = float_of_int n in
    let c =
      { in_ns = float_of_int probe.incl_ns /. fn;
        out_ns = float_of_int (t1 - t0) /. fn;
        in_words = float_of_int probe.incl_words /. fn;
        out_words = float_of_int (w1 - w0) /. fn }
    in
    match !best with
    | Some b when b.out_ns <= c.out_ns -> ()
    | _ -> best := Some c
  done;
  match !best with Some c -> c | None -> zero_cost

(* Self time net of the wrappers: each own call books [in_ns] inside
   itself, and each direct child costs this span [out_ns - in_ns]
   beyond what the child booked. *)
let corrected_self_ns c l =
  float_of_int l.self_ns
  -. (float_of_int l.calls *. c.in_ns)
  -. (float_of_int l.child_calls *. (c.out_ns -. c.in_ns))

let corrected_self_words c l =
  float_of_int l.self_words
  -. (float_of_int l.calls *. c.in_words)
  -. (float_of_int l.child_calls *. (c.out_words -. c.in_words))

(* Inclusive figures net of the wrappers of the span and of its direct
   children; the traced layers nest at most one span deep under the
   inclusive ones reported. *)
let corrected_incl_ns c l =
  float_of_int l.incl_ns
  -. (float_of_int l.calls *. c.in_ns)
  -. (float_of_int l.child_calls *. c.out_ns)

let corrected_incl_words c l =
  float_of_int l.incl_words
  -. (float_of_int l.calls *. c.in_words)
  -. (float_of_int l.child_calls *. c.out_words)

(* Total cost of every span opened, as seen from outside. *)
let wrapper_ns c =
  List.fold_left (fun a l -> a +. (float_of_int l.calls *. c.out_ns)) 0. !registry

(* One guest through the library, the way an embedding user drives it:
   Workloads -> Vsa.analyze -> Engine.Make(A).prepare ~facts -> resume,
   Replay.Session.record / replay. [Make (A) (Traced)] makes every call
   a span and wraps the engine's seams (Timed); [Make (A) (Untraced)]
   runs the plain modules untouched. [Port] holds both and picks one by
   [~traced]. The set-up calls outside a port take [~traced] directly. *)

let config = Fpvm.Engine.default_config

let build_l = Span.layer "workloads.build"
let analysis_l = Span.layer "analysis"
let prepare_l = Span.layer "prepare"
let machine_l = Span.layer "machine"
let native_l = Span.layer "native"
let record_l = Span.layer "record"
let replay_l = Span.layer "replay"
let fleet_l = Span.layer "fleet.serve"

let span traced ?gc l f = if traced then Span.time ?gc l f else f ()

let build ~traced (f : unit -> Machine.Program.t) = span traced build_l f

let analyze ~traced prog =
  span traced analysis_l (fun () -> Fpvm.Vsa.analyze prog)

let native ~traced prog =
  span traced native_l (fun () -> Fpvm.Engine.run_native prog)

(* A session's cumulative shadow-GC host seconds, for spans that book
   that time to the gc layer. *)
let gc_clock (s : Fpvm.Stats.t) () = s.Fpvm.Stats.gc_latency_s

(* How [Make] drives a guest: untouched, or as spans with the engine's
   seams wrapped. *)
module type MODE = sig
  val traced : bool
end

module Untraced = struct
  let traced = false
end

module Traced = struct
  let traced = true
end

module Make (A : Fpvm.Arith.S) (M : MODE) = struct
  module S = Replay.Session.Make (A)
  module E = S.E

  let span ?gc l f = if M.traced then Span.time ?gc l f else f ()

  let prepare ?(config = config) facts prog =
    let ses = span prepare_l (fun () -> E.prepare ~config ~facts prog) in
    if M.traced then Timed.wrap_handlers ses.E.kern ses.E.eng.E.stats;
    ses

  let resume (ses : E.session) =
    span ~gc:(gc_clock ses.E.eng.E.stats) machine_l (fun () -> E.resume ses)

  (* Recording, with [tel]'s collectors attached by the instrument hook. *)
  let record ?(config = config) ~checkpoint_every ~meta ?tel facts prog =
    let instrument sink =
      (match tel with
      | Some t ->
          Telemetry.attach t sink;
          if M.traced then Timed.wrap_telemetry sink
      | None -> ());
      if M.traced then
        Timed.wrap_hooks_lazily ~quiesce:(checkpoint_every > 0)
          Timed.record_hook sink
    in
    let gc_s = ref 0. in
    span
      ~gc:(fun () -> !gc_s)
      record_l
      (fun () ->
        let r = S.record ~checkpoint_every ~facts ~instrument ~meta ~config prog in
        gc_s := r.Replay.Session.result.Fpvm.Engine.stats.Fpvm.Stats.gc_latency_s;
        r)

  (* Replay-validate a log read back from its bytes. *)
  let replay ?(config = config) log_bytes prog =
    let instrument sink =
      if M.traced then
        Timed.wrap_hooks_lazily ~quiesce:false Timed.replay_hook sink
    in
    let gc_s = ref 0. in
    span
      ~gc:(fun () -> !gc_s)
      replay_l
      (fun () ->
        let log = Replay.Log.of_string log_bytes in
        match S.replay ~instrument ~config log prog with
        | Replay.Session.Match r as o ->
            gc_s := r.Fpvm.Engine.stats.Fpvm.Stats.gc_latency_s;
            o
        | o -> o)
end

(* A port's plain and traced instantiations behind one functor-free
   record, chosen by [~traced]. [prepare] returns the prepared
   session's [resume], so a caller can time the run apart from its
   set-up. *)
type port = {
  prepare :
    traced:bool ->
    Fpvm.Vsa.analysis ->
    Machine.Program.t ->
    unit ->
    Fpvm.Engine.result;
  record :
    traced:bool ->
    checkpoint_every:int ->
    meta:Replay.Log.meta ->
    tel:Telemetry.t option ->
    Fpvm.Vsa.analysis ->
    Machine.Program.t ->
    Replay.Session.recording;
  replay : traced:bool -> string -> Machine.Program.t -> Replay.Session.outcome;
}

module Port (A : Fpvm.Arith.S) = struct
  module P = Make (A) (Untraced)
  module T = Make (Timed.Arith (A)) (Traced)

  let port =
    { prepare =
        (fun ~traced facts prog ->
          if traced then
            let ses = T.prepare facts prog in
            fun () -> T.resume ses
          else
            let ses = P.prepare facts prog in
            fun () -> P.resume ses);
      record =
        (fun ~traced ~checkpoint_every ~meta ~tel facts prog ->
          if traced then T.record ~checkpoint_every ~meta ?tel facts prog
          else P.record ~checkpoint_every ~meta ?tel facts prog);
      replay =
        (fun ~traced log_bytes prog ->
          if traced then T.replay log_bytes prog else P.replay log_bytes prog) }
end

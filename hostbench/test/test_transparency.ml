(* The benchmark's wrappers must only time what they forward: with the
   timing arith functor, the wrapped kernel handlers and the wrapped
   probe callbacks installed, every workload's output, serialized
   bytes, modeled cycles and stats fingerprint equal the plain run's,
   in both GC modes. The span arithmetic itself is checked on a
   synthetic nest. *)

open Hostbench
module W = Workloads
module Mpfr = (val Fpvm.Alt_mpfr.make ~prec:200 ())

let gc_modes =
  [ ("incremental-gc", Guest.config);
    ("full-gc", { Guest.config with Fpvm.Engine.incremental_gc = false }) ]

let program name = (Suite.entry name).W.program W.S

let same_result what (a : Fpvm.Engine.result) (b : Fpvm.Engine.result) =
  Alcotest.(check string) (what ^ ": output") a.Fpvm.Engine.output b.Fpvm.Engine.output;
  Alcotest.(check string) (what ^ ": serialized bytes") a.Fpvm.Engine.serialized
    b.Fpvm.Engine.serialized;
  Alcotest.(check int) (what ^ ": modeled cycles") a.Fpvm.Engine.cycles b.Fpvm.Engine.cycles;
  Alcotest.(check int) (what ^ ": insns") a.Fpvm.Engine.insns b.Fpvm.Engine.insns;
  Alcotest.(check string) (what ^ ": fingerprint")
    (Fpvm.Stats.fingerprint a.Fpvm.Engine.stats)
    (Fpvm.Stats.fingerprint b.Fpvm.Engine.stats)

(* Checkpoints carry the engine's host GC latency
   ([Stats.gc_latency_s], one 8-byte float), which differs between any
   two runs, and end in an 8-byte checksum over everything before it.
   Apart from those two words every byte must match. *)
let same_but_host_time x y =
  let n = String.length x - 8 in
  String.length x = String.length y
  && n >= 0
  &&
  let diffs = ref [] in
  for i = n - 1 downto 0 do
    if x.[i] <> y.[i] then diffs := i :: !diffs
  done;
  match !diffs with
  | [] -> true
  | first :: _ -> List.for_all (fun i -> i - first < 8) !diffs

module Solo (A : Fpvm.Arith.S) = struct
  module P = Guest.Make (A) (Guest.Untraced)
  module T = Guest.Make (Timed.Arith (A)) (Guest.Traced)

  let check name () =
    let prog = program name in
    let facts = Fpvm.Vsa.analyze prog in
    List.iter
      (fun (mode, config) ->
        let plain = P.resume (P.prepare ~config facts prog) in
        let traced = T.resume (T.prepare ~config facts prog) in
        same_result (name ^ "/" ^ mode) plain traced)
      gc_modes
end

module Vanilla = Solo (Fpvm.Alt_vanilla)
module Mpfr_solo = Solo (Mpfr)

let test_record_replay () =
  let module P = Guest.Make (Mpfr) (Guest.Untraced) in
  let module T = Guest.Make (Timed.Arith (Mpfr)) (Guest.Traced) in
  let nth = Suite.inject_candidates.(0) in
  let prog = Suite.lorenz_build nth () in
  let facts = Fpvm.Vsa.analyze prog in
  let n = Array.length prog.Machine.Program.insns in
  let meta =
    Suite.log_meta ~workload:"lorenz" ~arith:"mpfr:200" ~config:"transparency"
  in
  List.iter
    (fun (mode, config) ->
      let what = "lorenz-record-replay/" ^ mode in
      let tel_a = Suite.lorenz_telemetry facts n
      and tel_b = Suite.lorenz_telemetry facts n in
      let a =
        P.record ~config ~checkpoint_every:Suite.checkpoint_every
          ~meta ~tel:tel_a facts prog
      in
      let b =
        T.record ~config ~checkpoint_every:Suite.checkpoint_every
          ~meta ~tel:tel_b facts prog
      in
      same_result (what ^ " record") a.Replay.Session.result b.Replay.Session.result;
      Alcotest.(check string) (what ^ ": log bytes") a.Replay.Session.log_bytes
        b.Replay.Session.log_bytes;
      Alcotest.(check (list int)) (what ^ ": checkpoint sequence numbers")
        (List.map fst a.Replay.Session.checkpoints)
        (List.map fst b.Replay.Session.checkpoints);
      List.iter2
        (fun (seq, x) (_, y) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: checkpoint %d bytes" what seq)
            true (same_but_host_time x y))
        a.Replay.Session.checkpoints b.Replay.Session.checkpoints;
      let flows t =
        match t.Telemetry.flows with
        | Some fr -> Telemetry.Flowrec.gauges fr
        | None -> (0, 0, 0)
      in
      Alcotest.(check (triple int int int)) (what ^ ": flow gauges") (flows tel_a)
        (flows tel_b);
      Alcotest.(check bool) (what ^ ": spans fired") true
        (Timed.telemetry.Span.calls > 0 && Timed.record_hook.Span.calls > 0);
      match
        ( P.replay ~config a.Replay.Session.log_bytes prog,
          T.replay ~config a.Replay.Session.log_bytes prog )
      with
      | Replay.Session.Match x, Replay.Session.Match y ->
          same_result (what ^ " replay") x y;
          same_result (what ^ " replay vs record") a.Replay.Session.result y
      | _ -> Alcotest.fail (what ^ ": replay diverged"))
    gc_modes

(* Every fleet guest kind through [Fleet.driver] over the timing
   functor, against the plain port driver. *)
let test_fleet_driver () =
  List.iter
    (fun (w, port, _) ->
      let prog = program w in
      let plain = Fleet.port_driver port in
      let timed =
        match port with
        | Fleet.Port.Vanilla -> Fleet.driver (module Timed.Arith (Fpvm.Alt_vanilla))
        | _ -> Fleet.driver (module Timed.Arith (Mpfr))
      in
      List.iter
        (fun (mode, config) ->
          same_result
            (Printf.sprintf "fleet %s/%s/%s" w (Fleet.Port.to_string port) mode)
            (plain.Fleet.d_run ~config prog)
            (timed.Fleet.d_run ~config prog))
        gc_modes)
    Suite.fleet_kinds

(* A nest with known self times: parent 2 ms of its own around a 3 ms
   child; self times must add up to the parent's inclusive time. *)
let test_span_reconciles () =
  let parent = Span.layer "test.parent" and child = Span.layer "test.child" in
  let spin ms =
    let t0 = Span.now () in
    while Span.now () - t0 < ms * 1_000_000 do
      ()
    done
  in
  Span.time parent (fun () ->
      spin 1;
      Span.time child (fun () -> spin 3);
      spin 1);
  Alcotest.(check int) "self times add up to the inclusive time"
    parent.Span.incl_ns
    (parent.Span.self_ns + child.Span.self_ns);
  Alcotest.(check bool) "child self is at least its 3 ms" true
    (child.Span.self_ns >= 3_000_000 && child.Span.self_ns < 50_000_000);
  Alcotest.(check int) "one direct child" 1 parent.Span.child_calls;
  let c = Span.calibrate ~n:20_000 () in
  Alcotest.(check bool) "calibrated span cost is finite and ordered" true
    (Float.is_finite c.Span.out_ns && c.Span.in_ns >= 0.
    && c.Span.out_ns >= c.Span.in_ns)

let () =
  Alcotest.run "hostbench-transparency"
    [ ( "transparency",
        [ Alcotest.test_case "three-body-vanilla" `Slow (Vanilla.check "three-body");
          Alcotest.test_case "fbench-mpfr" `Slow (Mpfr_solo.check "fbench");
          Alcotest.test_case "lorenz-record-replay" `Slow test_record_replay;
          Alcotest.test_case "fleet-mix driver" `Slow test_fleet_driver ] );
      ("spans", [ Alcotest.test_case "self times reconcile" `Quick test_span_reconciles ]) ]

(* Workload validation (paper section 5.2, across the whole benchmark
   suite):

     reference oracle (pure OCaml)  ==  native VX64 run
     native VX64 run                ==  FPVM + Vanilla run
     native VX64 run                ==  compiler-instrumented + Vanilla

   plus workload-specific structural checks (correctness traps in astro's
   hot loop, IS being integer-dominated, MPFR divergence on the chaotic
   workloads). *)

module E_vanilla = Fpvm.Engine.Make (Fpvm.Alt_vanilla)
module E_mpfr = Fpvm.Engine.Make (Fpvm.Alt_mpfr)

let scale = Workloads.Test

let native_vs_reference =
  List.map
    (fun (e : Workloads.entry) ->
      Alcotest.test_case (e.name ^ ": native == reference") `Quick (fun () ->
          match e.reference scale with
          | None -> ()
          | Some expected ->
              let r = Fpvm.Engine.run_native (e.program scale) in
              Alcotest.(check string) "output" expected r.Fpvm.Engine.output))
    Workloads.all

let vanilla_vs_native =
  List.map
    (fun (e : Workloads.entry) ->
      Alcotest.test_case (e.name ^ ": fpvm-vanilla == native") `Quick
        (fun () ->
          let prog = e.program scale in
          let native = Fpvm.Engine.run_native prog in
          let v = E_vanilla.run prog in
          Alcotest.(check string) "output" native.Fpvm.Engine.output
            v.Fpvm.Engine.output))
    Workloads.all

let instrumented_vs_native =
  List.map
    (fun (e : Workloads.entry) ->
      Alcotest.test_case (e.name ^ ": compiler-instrumented == native") `Quick
        (fun () ->
          let native = Fpvm.Engine.run_native (e.program scale) in
          (* The instrumented binary contains inline check stubs; running
             it under the static-transform engine must be transparent. *)
          let config =
            { Fpvm.Engine.default_config with
              Fpvm.Engine.approach = Fpvm.Engine.Static_transform }
          in
          let r = E_vanilla.run ~config (e.instrumented scale) in
          Alcotest.(check string) "output" native.Fpvm.Engine.output
            r.Fpvm.Engine.output))
    Workloads.all

let structural =
  [ Alcotest.test_case "astro: correctness traps fire in the hot loop" `Quick
      (fun () ->
        let prog = Workloads.Astro.program ~n:16 ~steps:3 () in
        let r = E_vanilla.run prog in
        let s = r.Fpvm.Engine.stats in
        Alcotest.(check bool) "many correctness traps" true
          (s.Fpvm.Stats.correctness_traps > 20);
        Alcotest.(check bool) "demotions happened" true
          (s.Fpvm.Stats.correctness_demotions > 0));
    Alcotest.test_case "IS is integer-dominated (few FP traps)" `Quick
      (fun () ->
        let prog = Workloads.Nas_is.program ~nkeys:256 ~max_key:64 () in
        let r = E_vanilla.run prog in
        let s = r.Fpvm.Engine.stats in
        (* almost all instructions are integer: the trap count must be a
           tiny fraction of the dynamic instruction count *)
        Alcotest.(check bool) "traps << insns" true
          (s.Fpvm.Stats.fp_traps * 50 < r.Fpvm.Engine.insns));
    Alcotest.test_case "CG is FP-dominated (many traps)" `Quick (fun () ->
        let prog = Workloads.Nas_cg.program ~n:10 ~cg_iters:5 () in
        let r = E_vanilla.run prog in
        let s = r.Fpvm.Engine.stats in
        Alcotest.(check bool) "traps plentiful" true
          (s.Fpvm.Stats.fp_traps + s.Fpvm.Stats.traps_avoided > 1000));
    Alcotest.test_case "lorenz: MPFR-200 diverges from IEEE" `Quick (fun () ->
        let prog = Workloads.Lorenz.program ~steps:900 () in
        let native = Fpvm.Engine.run_native prog in
        let m = E_mpfr.run prog in
        Alcotest.(check bool) "trajectory differs" true
          (native.Fpvm.Engine.output <> m.Fpvm.Engine.output);
        (* both must remain on the attractor (bounded) *)
        List.iter
          (fun line ->
            let v = float_of_string line in
            Alcotest.(check bool) "bounded" true (Float.abs v < 100.0))
          (String.split_on_char '\n' (String.trim m.Fpvm.Engine.output)));
    Alcotest.test_case "lorenz: vanilla trajectory identical (Fig 13)" `Quick
      (fun () ->
        let prog = Workloads.Lorenz.program ~steps:900 ~emit_every:64 () in
        let native = Fpvm.Engine.run_native prog in
        let v = E_vanilla.run prog in
        Alcotest.(check string) "serialized trajectory identical"
          native.Fpvm.Engine.serialized v.Fpvm.Engine.serialized);
    Alcotest.test_case "three-body: MPFR changes the final state" `Quick
      (fun () ->
        let prog = Workloads.Three_body.program ~steps:1500 ~dt:0.01 () in
        let native = Fpvm.Engine.run_native prog in
        let m = E_mpfr.run prog in
        Alcotest.(check bool) "differs" true
          (native.Fpvm.Engine.output <> m.Fpvm.Engine.output));
    Alcotest.test_case "compiler shadow-death hints reduce GC load" `Quick
      (fun () ->
        let plain = Workloads.Lorenz.program ~steps:400 () in
        let instr = Workloads.Lorenz.program ~steps:400 ~mode:`Instrumented () in
        let config =
          { Fpvm.Engine.default_config with
            Fpvm.Engine.approach = Fpvm.Engine.Static_transform;
            Fpvm.Engine.gc_interval = 1000 }
        in
        let rp = E_vanilla.run ~config plain in
        let ri = E_vanilla.run ~config instr in
        Alcotest.(check string) "same output" rp.Fpvm.Engine.output
          ri.Fpvm.Engine.output;
        let sp = rp.Fpvm.Engine.stats and si = ri.Fpvm.Engine.stats in
        Alcotest.(check bool) "hints fired" true (si.Fpvm.Stats.eager_frees > 100);
        (* most garbage is reclaimed eagerly, so the GC finds less *)
        Alcotest.(check bool) "gc found less garbage" true
          (si.Fpvm.Stats.gc_freed < sp.Fpvm.Stats.gc_freed));
    Alcotest.test_case "fbench heavy on libm (math calls counted)" `Quick
      (fun () ->
        let prog = Workloads.Fbench.program ~iterations:20 () in
        let r = E_vanilla.run prog in
        Alcotest.(check bool) "math calls" true
          (r.Fpvm.Engine.stats.Fpvm.Stats.math_calls > 100))
  ]

(* ---- scale names (library parser and the fpvm_run --scale flag) ---- *)

let fpvm_run = "../bin/fpvm_run.exe"

(* run fpvm_run natively on lorenz with [--scale arg]: exit code and stdout *)
let run_scale arg =
  let out = Filename.temp_file "scale" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s -w lorenz -a native --scale %s > %s 2> /dev/null"
         fpvm_run (Filename.quote arg) (Filename.quote out))
  in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let scale_tests =
  [ Alcotest.test_case "scale_of_string: test or s, any case" `Quick (fun () ->
        List.iter
          (fun (v, want) ->
            match Workloads.scale_of_string v with
            | Ok s ->
                Alcotest.(check string) v (Workloads.scale_name want)
                  (Workloads.scale_name s)
            | Error m -> Alcotest.fail m)
          [ ("test", Workloads.Test); ("TEST", Workloads.Test);
            ("s", Workloads.S); ("S", Workloads.S) ];
        List.iter
          (fun v ->
            match Workloads.scale_of_string v with
            | Ok _ -> Alcotest.failf "%S accepted" v
            | Error _ -> ())
          [ ""; "foo"; "small"; "s "; "l" ]);
    Alcotest.test_case "fpvm_run --scale: S runs the S scale, foo is a usage error"
      `Quick (fun () ->
        let expect_ok arg =
          let code, out = run_scale arg in
          Alcotest.(check int) ("exit for --scale " ^ arg) 0 code;
          out
        in
        let s_ref = Option.get ((Option.get (Workloads.find "lorenz")).reference Workloads.S)
        and t_ref = Option.get ((Option.get (Workloads.find "lorenz")).reference Workloads.Test) in
        Alcotest.(check string) "--scale s" s_ref (expect_ok "s");
        Alcotest.(check string) "--scale S" s_ref (expect_ok "S");
        Alcotest.(check string) "--scale Test" t_ref (expect_ok "Test");
        Alcotest.(check int) "--scale foo is a cmdliner usage error" 124
          (fst (run_scale "foo")))
  ]

let () =
  Alcotest.run "workloads"
    [ ("native-vs-reference", native_vs_reference);
      ("vanilla-vs-native", vanilla_vs_native);
      ("instrumented-vs-native", instrumented_vs_native);
      ("structural", structural);
      ("scale", scale_tests) ]

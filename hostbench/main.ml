(* hostbench: the two-clock benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --print-pins > hostbench/pins.ml

   Prints a human-readable report, then, as the last line of standard
   output, one JSON object: {"correct", "attempted", "failed",
   "metrics"}. [--trace 0] measures the end-to-end metrics with every
   wrapper off; [--trace 1] is the separate traced run that reports the
   per-layer metrics. Exits 1 if any guest fails an output check or a
   determinism pin, 2 on bad arguments. *)

open Hostbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --print-pins";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | "--print-pins" :: rest -> parse (("--print-pins", "") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  if get "--print-pins" <> None then Suite.print_pins ()
  else begin
    let int_arg k =
      match Option.bind (get k) int_of_string_opt with
      | Some v -> v
      | None -> usage ()
    in
    let name = match get "--workload" with Some w -> w | None -> usage () in
    let run =
      match List.assoc_opt name Suite.workloads with
      | Some f -> f
      | None ->
          prerr_endline ("unknown workload " ^ name);
          exit 2
    in
    let seed = int_arg "--seed" in
    let seconds = int_arg "--seconds" in
    let trace = int_arg "--trace" in
    if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
    let ctx =
      { Suite.seed; seconds = float_of_int seconds; trace = trace = 1 }
    in
    let r = Suite.new_report () in
    run ctx r;
    let metrics = List.rev r.Suite.metrics in
    Printf.printf "workload %s (seed %d, %d s, %s)\n" name seed seconds
      (if ctx.Suite.trace then "traced run: per-layer metrics"
       else "untraced run: end-to-end metrics");
    List.iter print_endline (List.rev r.Suite.lines);
    List.iter
      (fun (n, v, u) -> Printf.printf "  %-28s %16.6f %s\n" n v u)
      metrics;
    Printf.printf "  error_rate = %d/%d = %g (guest runs failing a check / attempted)\n"
      r.Suite.failed r.Suite.attempted
      (float_of_int r.Suite.failed /. float_of_int (max 1 r.Suite.attempted));
    let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
    if not finite then prerr_endline "a metric is not a finite number";
    let correct = r.Suite.failed = 0 && r.Suite.attempted > 0 && finite in
    let body =
      String.concat ", "
        (List.map
           (fun (n, v, u) ->
             (* names and units are fixed identifiers: nothing to escape *)
             Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n
               (if Float.is_finite v then v else 0.)
               u)
           metrics)
    in
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      correct (max 1 r.Suite.attempted) r.Suite.failed body;
    if not correct then exit 1
  end

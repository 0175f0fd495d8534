(* Registry of the paper's benchmark programs (section 5.1), each
   available at a quick "test" scale and the evaluation "S" scale, with
   pure-OCaml reference oracles for native validation. *)

(* Re-export the individual workload modules so library users can reach
   them through the root module. *)
module Lorenz = Lorenz
module Three_body = Three_body
module Fbench = Fbench
module Nas_cg = Nas_cg
module Nas_ep = Nas_ep
module Nas_mg = Nas_mg
module Nas_lu = Nas_lu
module Nas_is = Nas_is
module Miniaero = Miniaero
module Astro = Astro

type scale = Test | S

let scale_name = function Test -> "test" | S -> "s"

(* the one parser for a scale name, shared by the CLI and fleet
   manifests: [test] or [s], case-insensitively *)
let scale_of_string v =
  match String.lowercase_ascii v with
  | "test" -> Ok Test
  | "s" -> Ok S
  | _ -> Error (Printf.sprintf "scale must be test or s (got %S)" v)

type entry = {
  name : string;
  specifics : string; (* Figure 12's "Specifics" column *)
  program : scale -> Machine.Program.t;
  instrumented : scale -> Machine.Program.t;
      (* compiler-based FPVM build of the same source *)
  reference : scale -> string option;
      (* expected native output, when an oracle exists *)
}

let entry name specifics program instrumented reference =
  { name; specifics; program; instrumented; reference }

let all : entry list =
  [ entry "fbench" "n.a."
      (function
        | Test -> Fbench.program ~iterations:20 ()
        | S -> Fbench.program ~iterations:300 ())
      (function
        | Test -> Fbench.program ~iterations:20 ~mode:`Instrumented ()
        | S -> Fbench.program ~iterations:300 ~mode:`Instrumented ())
      (function
        | Test -> Some (Fbench.reference ~iterations:20 ())
        | S -> Some (Fbench.reference ~iterations:300 ()));
    entry "lorenz" "n.a."
      (function
        | Test -> Lorenz.program ~steps:300 ()
        | S -> Lorenz.program ~steps:2500 ())
      (function
        | Test -> Lorenz.program ~steps:300 ~mode:`Instrumented ()
        | S -> Lorenz.program ~steps:2500 ~mode:`Instrumented ())
      (function
        | Test -> Some (Lorenz.reference ~steps:300 ())
        | S -> Some (Lorenz.reference ~steps:2500 ()));
    entry "three-body" "n.a."
      (function
        | Test -> Three_body.program ~steps:200 ()
        | S -> Three_body.program ~steps:2000 ())
      (function
        | Test -> Three_body.program ~steps:200 ~mode:`Instrumented ()
        | S -> Three_body.program ~steps:2000 ~mode:`Instrumented ())
      (function
        | Test -> Some (Three_body.reference ~steps:200 ())
        | S -> Some (Three_body.reference ~steps:2000 ()));
    entry "miniAero" "Flat Plate"
      (function
        | Test -> Miniaero.program ~nx:8 ~ny:8 ~steps:3 ()
        | S -> Miniaero.program ~nx:12 ~ny:12 ~steps:8 ())
      (function
        | Test -> Miniaero.program ~nx:8 ~ny:8 ~steps:3 ~mode:`Instrumented ()
        | S -> Miniaero.program ~nx:12 ~ny:12 ~steps:8 ~mode:`Instrumented ())
      (function
        | Test -> Some (Miniaero.reference ~nx:8 ~ny:8 ~steps:3 ())
        | S -> Some (Miniaero.reference ~nx:12 ~ny:12 ~steps:8 ()));
    entry "NAS IS" "Class S"
      (function
        | Test -> Nas_is.program ~nkeys:256 ~max_key:64 ()
        | S -> Nas_is.program ~nkeys:2048 ~max_key:512 ())
      (function
        | Test -> Nas_is.program ~nkeys:256 ~max_key:64 ~mode:`Instrumented ()
        | S -> Nas_is.program ~nkeys:2048 ~max_key:512 ~mode:`Instrumented ())
      (function
        | Test -> Some (Nas_is.reference ~nkeys:256 ~max_key:64 ())
        | S -> Some (Nas_is.reference ~nkeys:2048 ~max_key:512 ()));
    entry "NAS EP" "Class S"
      (function
        | Test -> Nas_ep.program ~pairs:200 ()
        | S -> Nas_ep.program ~pairs:2000 ())
      (function
        | Test -> Nas_ep.program ~pairs:200 ~mode:`Instrumented ()
        | S -> Nas_ep.program ~pairs:2000 ~mode:`Instrumented ())
      (function
        | Test -> Some (Nas_ep.reference ~pairs:200 ())
        | S -> Some (Nas_ep.reference ~pairs:2000 ()));
    entry "NAS CG" "Class S"
      (function
        | Test -> Nas_cg.program ~n:10 ~cg_iters:5 ()
        | S -> Nas_cg.program ~n:24 ~cg_iters:15 ())
      (function
        | Test -> Nas_cg.program ~n:10 ~cg_iters:5 ~mode:`Instrumented ()
        | S -> Nas_cg.program ~n:24 ~cg_iters:15 ~mode:`Instrumented ())
      (function
        | Test -> Some (Nas_cg.reference ~n:10 ~cg_iters:5 ())
        | S -> Some (Nas_cg.reference ~n:24 ~cg_iters:15 ()));
    entry "NAS MG" "Class S"
      (function
        | Test -> Nas_mg.program ~n:9 ~cycles:1 ()
        | S -> Nas_mg.program ~n:17 ~cycles:2 ())
      (function
        | Test -> Nas_mg.program ~n:9 ~cycles:1 ~mode:`Instrumented ()
        | S -> Nas_mg.program ~n:17 ~cycles:2 ~mode:`Instrumented ())
      (function
        | Test -> Some (Nas_mg.reference ~n:9 ~cycles:1 ())
        | S -> Some (Nas_mg.reference ~n:17 ~cycles:2 ()));
    entry "NAS LU" "Class S"
      (function
        | Test -> Nas_lu.program ~n:8 ()
        | S -> Nas_lu.program ~n:20 ())
      (function
        | Test -> Nas_lu.program ~n:8 ~mode:`Instrumented ()
        | S -> Nas_lu.program ~n:20 ~mode:`Instrumented ())
      (function
        | Test -> Some (Nas_lu.reference ~n:8 ())
        | S -> Some (Nas_lu.reference ~n:20 ()));
    entry "Enzo(astro)" "Cosmology Sim."
      (function
        | Test -> Astro.program ~n:16 ~steps:3 ()
        | S -> Astro.program ~n:24 ~steps:6 ())
      (function
        | Test -> Astro.program ~n:16 ~steps:3 ~mode:`Instrumented ()
        | S -> Astro.program ~n:24 ~steps:6 ~mode:`Instrumented ())
      (function
        | Test -> Some (Astro.reference ~n:16 ~steps:3 ())
        | S -> Some (Astro.reference ~n:24 ~steps:6 ())) ]

let find name =
  List.find_opt
    (fun e -> String.lowercase_ascii e.name = String.lowercase_ascii name)
    all

(* A host-speed probe, and host times scaled by it.

   On a host whose cores and caches are shared with other tenants, the
   speed of this process changes under it: the same three-body guest
   run took anywhere from 280 to 460 ms within one minute, switching
   between a fast and a slow mode every few seconds, and a ten-run
   median moved by up to 40% from one batch of runs to the next. A
   fixed piece of OCaml work, timed right before and right after a
   measured call, tells how fast the host was while the call ran.

   The probe allocates boxed floats and short lists, fills a hash table
   and drops short-lived arrays, as the engine does; a pure ALU loop
   did not follow the slowdowns at all. It calls no library code, so no
   change to the engine, the ports or the GC settings of a session
   moves it. Interleaved with guest runs, scaling by it cut a run's
   drift between one-minute windows from ~18% to ~7%.

   A scaled time is the raw host time times [nominal_ms] divided by the
   geometric mean of the two probes around it: the time the call would
   take on a host where the probe takes [nominal_ms]. *)

let nominal_ms = 20.
let iterations = 200_000

let kernel () =
  let h = Hashtbl.create 4096 in
  let ring = Array.make 256 [||] in
  let acc = ref 0. in
  for i = 1 to iterations do
    let x = float_of_int i *. 1.0000001 in
    let l = [ x; x +. 1.; x *. 0.5 ] in
    acc := !acc +. List.fold_left ( +. ) 0. l;
    Hashtbl.replace h (i land 4095) l;
    if i land 63 = 0 then ring.((i lsr 6) land 255) <- Array.make 64 x
  done;
  !acc

(* One probe, in ms, run between two collections so that it starts on a
   collected heap and leaves one behind for the call that follows. *)
let probe_ms () =
  Gc.full_major ();
  let t0 = Span.now () in
  ignore (Sys.opaque_identity (kernel ()));
  let ms = float_of_int (Span.now () - t0) /. 1e6 in
  Gc.full_major ();
  ms

(* Consecutive measured calls share probes: the probe after one call is
   the probe before the next. *)
type meter = { mutable before : float; mutable probes : float list }

let meter () =
  let p = probe_ms () in
  { before = p; probes = [ p ] }

(* Closes the measurement that started at the last probe: takes the
   probe after it and returns the factor that scales its raw time. *)
let factor m =
  let after = probe_ms () in
  let f = nominal_ms /. sqrt (m.before *. after) in
  m.before <- after;
  m.probes <- after :: m.probes;
  f

(* The abstract state of the flow-sensitive pass: per-GPR strided
   intervals with copy provenance, per-xmm cleanliness, abstract memory
   cells (8-byte, 8-aligned) and the taint map — a set of disjoint byte
   intervals each carrying the set of source instructions whose stored
   FP (possibly NaN-boxed) values may live there.

   Strong updates: an exact 8-byte integer store subtracts its interval
   from the taint map (the boxed value is gone); an exact FP store adds
   one.  Imprecise stores only add.

   Copy provenance ties a register to the root memory cell it was loaded
   from (transitively through reg->cell->reg copy chains the -O0-style
   code generator emits), so a compare on a freshly loaded temp can
   refine the *root* cell (e.g. the loop counter slot) at a branch. *)

module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

(* ---- taint spans --------------------------------------------------------- *)

(* byte interval [lo, hi), srcs = contributing source instruction idxs *)
type span = { lo : int; hi : int; srcs : IntSet.t }

(* Normal form, which every operation below preserves and relies on:
   sorted by [lo], pairwise disjoint, every span non-empty, and no two
   adjacent spans ([a.hi = b.lo]) with equal provenance.  Each operation
   walks the list once, rebuilds only the prefix it changes and shares
   the untouched tail. *)
type taint = span list

let span_equal a b = a.lo = b.lo && a.hi = b.hi && IntSet.equal a.srcs b.srcs

let taint_equal a b =
  a == b || try List.for_all2 span_equal a b with Invalid_argument _ -> false

(* [m] is about to be placed between the reversed finished prefix [rev]
   and the remaining spans [rest], neither of which it overlaps:
   coalesce it with an equal-provenance neighbour on either side (the
   left one's provenance set is kept), then push it onto the prefix. *)
let place rev m rest =
  let rev, m =
    match rev with
    | p :: rev' when p.hi = m.lo && IntSet.equal p.srcs m.srcs ->
        (rev', { lo = p.lo; hi = m.hi; srcs = p.srcs })
    | _ -> (rev, m)
  in
  match rest with
  | n :: rest' when m.hi = n.lo && IntSet.equal m.srcs n.srcs ->
      ({ m with hi = n.hi } :: rev, rest')
  | _ -> (m :: rev, rest)

(* Insert [lo,hi) ↦ srcs at the zipper ([rev] reversed prefix, [rest]
   suffix): move every span wholly left of [lo] onto the prefix, absorb
   every span the new one overlaps (widening it and unioning their
   provenance in ascending order), then [place] the result. *)
let insert rev rest ~lo ~hi ~srcs =
  let rec skip rev = function
    | s :: rest when s.hi <= lo -> skip (s :: rev) rest
    | rest -> absorb rev { lo; hi; srcs } rest
  and absorb rev m = function
    | s :: rest when s.lo < hi ->
        absorb rev
          { lo = min m.lo s.lo; hi = max m.hi s.hi;
            srcs = IntSet.union m.srcs s.srcs }
          rest
    | rest -> place rev m rest
  in
  skip rev rest

let taint_add spans ~lo ~hi ~srcs =
  if hi <= lo then spans
  else
    let rev, rest = insert [] spans ~lo ~hi ~srcs in
    List.rev_append rev rest

(* remove [lo,hi); returns [spans] itself when nothing overlaps *)
let taint_kill spans ~lo ~hi =
  let rec cut = function
    | s :: rest when s.lo < hi ->
        let right = if s.hi > hi then { s with lo = hi } :: rest else cut rest in
        if s.lo < lo then { s with hi = lo } :: right else right
    | rest -> rest
  in
  let rec skip rev = function
    | s :: rest when s.hi <= lo -> skip (s :: rev) rest
    | s :: _ as rest when s.lo < hi -> List.rev_append rev (cut rest)
    | _ -> spans
  in
  if hi <= lo then spans else skip [] spans

(* provenance of any taint overlapping [lo, hi); empty set = untainted *)
let taint_query spans ~lo ~hi =
  List.fold_left
    (fun acc s -> if s.hi <= lo || s.lo >= hi then acc else IntSet.union acc s.srcs)
    IntSet.empty spans

(* The join is defined as the left fold of [taint_add] over [b]'s spans.
   Because [b] is sorted, the fold is one merge walk: a zipper over the
   accumulated result whose cursor only moves right.  The last placed
   span is stepped back over when the next span of [b] reaches into it,
   since it may have grown past that span's start. *)
let taint_join a b =
  if a == b then a
  else
    let rec go rev rest = function
      | [] -> List.rev_append rev rest
      | s :: b' ->
          let rev, rest =
            match rev with
            | p :: rev' when p.hi > s.lo -> (rev', p :: rest)
            | _ -> (rev, rest)
          in
          let rev, rest = insert rev rest ~lo:s.lo ~hi:s.hi ~srcs:s.srcs in
          go rev rest b'
    in
    go [] a b

(* ---- registers, cells, compare facts ------------------------------------- *)

type rv = { si : Si.t; copy_of : int option (* root cell address *) }

type cell = { cv : Si.t; cell_copy_of : int option }

(* where a compared operand came from, for branch refinement *)
type origin = { osi : Si.t; oreg : int option (* gpr index *); ocell : int option }

type cmp_info = { ca : origin; cb : origin }

type st = {
  regs : rv array; (* 16 *)
  xmm_clean : bool array; (* 16: whole register provably not NaN-boxed *)
  cells : cell IntMap.t;
  taint : taint;
  cmp : cmp_info option;
}

let top_rv = { si = Si.top; copy_of = None }

let copy_st st =
  { st with regs = Array.copy st.regs; xmm_clean = Array.copy st.xmm_clean }

let rv_equal a b = Si.equal a.si b.si && a.copy_of = b.copy_of

let cell_equal a b = Si.equal a.cv b.cv && a.cell_copy_of = b.cell_copy_of

let equal a b =
  (try Array.for_all2 rv_equal a.regs b.regs with Invalid_argument _ -> false)
  && a.xmm_clean = b.xmm_clean
  && IntMap.equal cell_equal a.cells b.cells
  && taint_equal a.taint b.taint
  && a.cmp = b.cmp

let join_copy a b = if a = b then a else None

let join a b =
  let regs =
    Array.init 16 (fun i ->
        { si = Si.join a.regs.(i).si b.regs.(i).si;
          copy_of = join_copy a.regs.(i).copy_of b.regs.(i).copy_of })
  in
  let xmm_clean = Array.init 16 (fun i -> a.xmm_clean.(i) && b.xmm_clean.(i)) in
  let cells =
    IntMap.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y ->
            Some { cv = Si.join x.cv y.cv;
                   cell_copy_of = join_copy x.cell_copy_of y.cell_copy_of }
        | _ -> None (* absent = top: join is top *))
      a.cells b.cells
  in
  { regs; xmm_clean; cells; taint = taint_join a.taint b.taint;
    cmp = (if a.cmp = b.cmp then a.cmp else None) }

(* widening point: bounds that grew go to ±∞ (Si.widen); cells must agree
   in both states to survive *)
let widen old nw =
  let regs =
    Array.init 16 (fun i ->
        { si = Si.widen old.regs.(i).si nw.regs.(i).si;
          copy_of = join_copy old.regs.(i).copy_of nw.regs.(i).copy_of })
  in
  let xmm_clean = Array.init 16 (fun i -> old.xmm_clean.(i) && nw.xmm_clean.(i)) in
  let cells =
    IntMap.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y ->
            Some { cv = Si.widen x.cv y.cv;
                   cell_copy_of = join_copy x.cell_copy_of y.cell_copy_of }
        | _ -> None)
      old.cells nw.cells
  in
  { regs; xmm_clean; cells; taint = taint_join old.taint nw.taint;
    cmp = (if old.cmp = nw.cmp then old.cmp else None) }

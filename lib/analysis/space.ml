(** Exact packet-space solver: unions of ternary bit-cubes over the
    18-field header space.

    A cube constrains, per field, the bits of a care mask to fixed
    values; a set is a (not necessarily disjoint) union of cubes.  The
    representation is closed under intersection (pairwise cube meet),
    union (concatenation + absorption) and difference (the classic
    cube-splitting subtraction), which gives complement, emptiness and
    model extraction for free; containment, and a witness against it,
    come from a coverage search over the same splitting that never
    builds the difference.  Every cube is non-empty by construction, so
    a set is empty iff it has no cubes, and any cube yields a witness
    packet by reading off its constrained bits.

    Comparison atoms compile exactly: an order predicate over a masked
    field unrolls into at most [width] prefix cubes (the standard
    binary-trie decomposition of an interval, restricted to the mask's
    bit positions — bits outside the mask read as zero, exactly like
    [(packet.field land mask) op value] in the reference evaluator). *)

open Newton_packet
open Newton_query

let nf = Field.count

(* Per-field full masks, indexed by Field.index. *)
let fm = Array.init nf (fun i -> Field.full_mask (Field.of_index i))

(* One ternary cube: for field i, the bits of [c.(i)] are constrained
   to the corresponding bits of [v.(i)].  Invariants: [c] ⊆ full mask,
   [v] ⊆ [c].  A cube is never empty. *)
type cube = { v : int array; c : int array }

type t = cube list

exception Too_complex

(* Cube budget: diffs multiply cube counts; refuse rather than thrash.
   Also bounds the pieces one containment search visits.  Generous
   relative to real intents (a branch has a handful of atoms, each
   ≤ width cubes). *)
let max_cubes = 8192

let check_budget cubes =
  if List.length cubes > max_cubes then raise Too_complex;
  cubes

let free_cube () = { v = Array.make nf 0; c = Array.make nf 0 }

let universe = [ free_cube () ]
let empty = []

let is_empty s = s = []
let cube_count = List.length

(* a ⊆ b: b's constraints are a subset of a's and agree on values;
   decided at the first field where they do not. *)
let cube_subset a b =
  let rec from i =
    i >= nf
    || b.c.(i) land lnot a.c.(i) = 0
       && (a.v.(i) lxor b.v.(i)) land b.c.(i) = 0
       && from (i + 1)
  in
  from 0

let cube_inter a b =
  let clash = ref false in
  for i = 0 to nf - 1 do
    if (a.v.(i) lxor b.v.(i)) land (a.c.(i) land b.c.(i)) <> 0 then
      clash := true
  done;
  if !clash then None
  else
    Some
      {
        v = Array.init nf (fun i -> a.v.(i) lor b.v.(i));
        c = Array.init nf (fun i -> a.c.(i) lor b.c.(i));
      }

(* Drop cubes subsumed by another cube of the union. *)
let absorb cubes =
  let rec go kept = function
    | [] -> List.rev kept
    | x :: rest ->
        if
          List.exists (cube_subset x) rest
          || List.exists (cube_subset x) kept
        then go kept rest
        else go (x :: kept) rest
  in
  go [] cubes

(* Every set is kept absorbed, so an empty or universal operand leaves
   the other one as it is, cube for cube.  Otherwise the budget is
   checked before the quadratic [absorb], so an oversized result is
   refused at once. *)
let union a b =
  match (a, b) with
  | [], s | s, [] -> s
  | _ -> absorb (check_budget (a @ b))

let is_free cube = Array.for_all (fun c -> c = 0) cube.c

let inter a b =
  match (a, b) with
  | [ u ], s when is_free u -> s
  | s, [ u ] when is_free u -> s
  | _ ->
      absorb
        (check_budget
           (List.concat_map
              (fun ca -> List.filter_map (fun cb -> cube_inter ca cb) b)
              a))

(* a \ b, as a union of cubes: split a along b's extra care bits —
   flipping each in turn escapes b; the final fully-b-constrained
   residue is the part inside b and is dropped. *)
let cube_minus a b =
  match cube_inter a b with
  | None -> [ a ]
  | Some _ ->
      let out = ref [] in
      let cv = Array.copy a.v and cc = Array.copy a.c in
      for i = 0 to nf - 1 do
        let bits = ref (b.c.(i) land lnot a.c.(i)) in
        while !bits <> 0 do
          let bit = !bits land - !bits in
          bits := !bits land lnot bit;
          let nv = Array.copy cv and nc = Array.copy cc in
          nv.(i) <- nv.(i) lor (bit land lnot b.v.(i));
          nc.(i) <- nc.(i) lor bit;
          out := { v = nv; c = nc } :: !out;
          cv.(i) <- cv.(i) lor (bit land b.v.(i));
          cc.(i) <- cc.(i) lor bit
        done
      done;
      !out

let diff a b =
  List.fold_left
    (fun acc bc ->
      absorb (check_budget (List.concat_map (fun ac -> cube_minus ac bc) acc)))
    a b

let compl s = diff universe s

(* The first piece of [a] outside [b], found without building
   [diff a b]: a cube is covered by b's cubes iff every piece of it
   outside b's first cube is covered by the rest.  The search visits
   pieces depth first and stops at the first uncovered one; every
   visited piece counts against the cube budget, so a pathological pair
   is refused rather than searched. *)
let find_outside a b =
  let visited = ref 0 in
  let rec uncovered piece = function
    | [] -> Some piece
    | bc :: rest ->
        incr visited;
        if !visited > max_cubes then raise Too_complex;
        List.find_map (fun p -> uncovered p rest) (cube_minus piece bc)
  in
  List.find_map (fun ac -> uncovered ac b) a

let subset a b = Option.is_none (find_outside a b)

let equal a b = subset a b && subset b a

let is_universe s = subset universe s

(* ---------------- atoms ---------------- *)

(* A cube constraining one field: bits [care] to [value]. *)
let field_cube i value care =
  let u = free_cube () in
  u.v.(i) <- value land care;
  u.c.(i) <- care;
  [ u ]

(* Cubes of (x < value) where x = packet.field land m, support(x) = m.
   Binary-trie walk from the top bit: at a mask bit where value has a
   1, everything below with that bit 0 is smaller; at a non-mask bit
   where value has a 1, x (which reads 0 there) is smaller than value
   for every completion of the equal prefix. *)
let lt_cubes i width m value =
  if value <= 0 then []
  else if value > m then universe
  else begin
    let out = ref [] and pv = ref 0 and pc = ref 0 in
    (try
       for b = width - 1 downto 0 do
         let bit = 1 lsl b in
         if m land bit <> 0 then
           if value land bit <> 0 then begin
             out := field_cube i !pv (!pc lor bit) @ !out;
             pv := !pv lor bit;
             pc := !pc lor bit
           end
           else pc := !pc lor bit
         else if value land bit <> 0 then begin
           out := field_cube i !pv !pc @ !out;
           raise Exit
         end
       done
     with Exit -> ());
    !out
  end

(* Cubes of (x > value), symmetric to {!lt_cubes}. *)
let gt_cubes i width m value =
  if value < 0 then universe
  else if value >= m then []
  else begin
    let out = ref [] and pv = ref 0 and pc = ref 0 in
    (try
       for b = width - 1 downto 0 do
         let bit = 1 lsl b in
         if m land bit <> 0 then
           if value land bit = 0 then begin
             out := field_cube i (!pv lor bit) (!pc lor bit) @ !out;
             pc := !pc lor bit
           end
           else begin
             pv := !pv lor bit;
             pc := !pc lor bit
           end
         else if value land bit <> 0 then raise Exit
       done
     with Exit -> ());
    !out
  end

let atom field mask op value =
  let i = Field.index field in
  let width = Field.width field in
  (* Packet fields are truncated to their width at set time, so bits of
     the mask beyond the width always read zero. *)
  let m = mask land fm.(i) in
  match op with
  | Ast.Eq ->
      if value land lnot m <> 0 then empty else field_cube i value m
  | Ast.Neq ->
      if value land lnot m <> 0 then universe
      else begin
        (* Some constrained bit differs: one single-bit cube per mask
           bit, carrying the flipped value. *)
        let out = ref [] and bits = ref m in
        while !bits <> 0 do
          let bit = !bits land - !bits in
          bits := !bits land lnot bit;
          out := field_cube i (value lxor bit) bit @ !out
        done;
        !out
      end
  | Ast.Lt -> lt_cubes i width m value
  | Ast.Le ->
      if value >= m then universe else lt_cubes i width m (value + 1)
  | Ast.Gt -> gt_cubes i width m value
  | Ast.Ge ->
      if value <= 0 then universe else gt_cubes i width m (value - 1)

let of_pred = function
  | Ast.Cmp { field; mask; op; value } -> atom field mask op value
  | Ast.Result_cmp _ -> universe

let of_preds preds =
  List.fold_left (fun acc p -> inter acc (of_pred p)) universe preds

let of_matches ms =
  List.fold_left
    (fun acc (field, value, mask) ->
      inter acc (atom field mask Ast.Eq value))
    universe ms

(* ---------------- evaluation, models, rendering ---------------- *)

let cube_mem cube pkt =
  let ok = ref true in
  for i = 0 to nf - 1 do
    if
      (Packet.get pkt (Field.of_index i) land cube.c.(i)) <> cube.v.(i)
    then ok := false
  done;
  !ok

let mem s pkt = List.exists (fun cube -> cube_mem cube pkt) s

let packet_of_cube cube =
  let pkt = Packet.create ~ts:0.0 () in
  for i = 0 to nf - 1 do
    if cube.v.(i) <> 0 then Packet.set pkt (Field.of_index i) cube.v.(i)
  done;
  pkt

let model = function [] -> None | cube :: _ -> Some (packet_of_cube cube)

let witness_outside a b = Option.map packet_of_cube (find_outside a b)

(* Within a field [!=] goes last, as the difference with its equality
   cube: that splits only the pieces holding the excluded value, where
   meeting its [width] single-bit cubes would multiply them. *)
let solve preds =
  let factor = Array.make nf universe in
  let meet = function
    | Ast.Cmp { field; mask; op; value } ->
        let i = Field.index field in
        if factor.(i) <> [] then
          factor.(i) <-
            (match op with
            | Ast.Neq -> diff factor.(i) (atom field mask Ast.Eq value)
            | _ -> inter factor.(i) (atom field mask op value))
    | Ast.Result_cmp _ -> ()
  in
  let neq, rest =
    List.partition (function Ast.Cmp { op = Ast.Neq; _ } -> true | _ -> false) preds
  in
  List.iter meet rest;
  List.iter meet neq;
  if Array.exists is_empty factor then None
  else
    let first i = List.hd factor.(i) in
    model
      [
        {
          v = Array.init nf (fun i -> (first i).v.(i));
          c = Array.init nf (fun i -> (first i).c.(i));
        };
      ]

let pred_holds p pkt =
  match p with
  | Ast.Cmp { field; mask; op; value } ->
      Ast.cmp_holds op (Packet.get pkt field land mask) value
  | Ast.Result_cmp _ -> true

let cube_to_string cube =
  let parts = ref [] in
  for i = nf - 1 downto 0 do
    if cube.c.(i) <> 0 then
      parts :=
        Printf.sprintf "%s&0x%x=0x%x"
          (Field.to_string (Field.of_index i))
          cube.c.(i) cube.v.(i)
        :: !parts
  done;
  if !parts = [] then "*" else String.concat " " !parts

let to_string s =
  match s with
  | [] -> "(empty)"
  | cubes -> String.concat " | " (List.map cube_to_string cubes)

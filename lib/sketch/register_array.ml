(** A register array — the stateful-memory unit of the state bank (S).

    Models one SRAM register array of a programmable switch stage: a fixed
    number of registers, each supporting one transactional ALU per
    packet, held as word cells or, for Bloom banks, one-bit cells.
    Windowed queries ([reduce]/[distinct] over 100 ms windows in the
    paper) reset arrays between windows via [clear]. *)

(* A Bloom bank's registers only ever hold 0 or 1 (its ALU is [Or 1]),
   so it keeps them as one-bit cells, 32 to an int: a bank's rows then
   take a 32nd of the memory of word cells and stay in cache. *)
type cells = Words | Bits

type t = {
  size : int;
  cells : cells;
  regs : int array; (* [Words]: one register per element; [Bits]: cell
                       [i] is bit [i land 31] of element [i lsr 5] *)
  mutable ops : int; (* lifetime ALU executions, for accounting *)
}

let create ?(cells = Words) size =
  if size <= 0 then invalid_arg "Register_array.create: size must be positive";
  let len = match cells with Words -> size | Bits -> (size + 31) lsr 5 in
  { size; cells; regs = Array.make len 0; ops = 0 }

let size t = t.size
let ops t = t.ops

(* Cell [idx], in range. *)
let cell t idx =
  match t.cells with
  | Words -> t.regs.(idx)
  | Bits -> (t.regs.(idx lsr 5) lsr (idx land 31)) land 1

(* Store [v] in cell [idx], in range; [fn] names the entry point when
   [v] does not fit a one-bit cell. *)
let store fn t idx v =
  match t.cells with
  | Words -> t.regs.(idx) <- v
  | Bits ->
      if v land lnot 1 <> 0 then
        invalid_arg
          (Printf.sprintf "Register_array.%s: value %d does not fit a one-bit cell" fn v);
      let w = idx lsr 5 and bit = 1 lsl (idx land 31) in
      t.regs.(w) <- (if v = 0 then t.regs.(w) land lnot bit else t.regs.(w) lor bit)

let get t idx =
  if idx < 0 || idx >= t.size then invalid_arg "Register_array.get: index out of range";
  cell t idx

let set t idx v =
  if idx < 0 || idx >= t.size then invalid_arg "Register_array.set: index out of range";
  store "set" t idx v

let index_error fn t idx =
  invalid_arg
    (Printf.sprintf "Register_array.%s: index %d out of range [0,%d)" fn idx t.size)

(** Execute a stateful ALU at [idx]; returns the ALU result.  A one-bit
    cell runs the ALU on its value and stores the result back. *)
let exec t alu idx =
  if idx < 0 || idx >= t.size then index_error "exec" t idx;
  let v =
    match t.cells with
    | Words -> Alu.exec alu t.regs idx
    | Bits ->
        let r = [| cell t idx |] in
        let v = Alu.exec alu r 0 in
        store "exec" t idx r.(0);
        v
  in
  t.ops <- t.ops + 1;
  v

let clear t = Array.fill t.regs 0 (Array.length t.regs) 0

(** Back to the state [create] returns — registers and op count zeroed
    — so a removed query's SRAM can serve the next install. *)
let reset t =
  clear t;
  t.ops <- 0

let copy t = { t with regs = Array.copy t.regs }

(* ---------------- shard merging ---------------- *)

(* The cross-shard combine menu mirrors the stateful ALUs: Bloom banks
   union with [`Or], Count-Min rows sum with [`Add], running maxima take
   [`Max].  All three are associative and commutative, so shard state
   folds in any order. *)
type merge_op = [ `Add | `Or | `Max ]

(** Fold [src] into [dst] register-by-register with the merge op's ALU
    update ([Alu.Add]/[Or]/[Max] by the source register); merging is
    not counted as packet ALU executions. *)
let merge_into ~op ~dst ~src =
  if dst.size <> src.size then
    invalid_arg
      (Printf.sprintf "Register_array.merge_into: size mismatch (%d vs %d)"
         dst.size src.size);
  let d = dst.regs and s = src.regs in
  match (dst.cells, src.cells, op) with
  | Words, Words, `Add -> for i = 0 to dst.size - 1 do d.(i) <- d.(i) + s.(i) done
  | Words, Words, `Or -> for i = 0 to dst.size - 1 do d.(i) <- d.(i) lor s.(i) done
  | Words, Words, `Max ->
      for i = 0 to dst.size - 1 do
        let v = s.(i) in
        if v > d.(i) then d.(i) <- v
      done
  | Bits, Bits, `Or -> for i = 0 to Array.length d - 1 do d.(i) <- d.(i) lor s.(i) done
  | Bits, Bits, (`Add | `Max) ->
      invalid_arg "Register_array.merge_into: one-bit cells merge only with `Or"
  | _ -> invalid_arg "Register_array.merge_into: cell width mismatch"

(** Functional merge: a fresh array holding [op]-combined registers. *)
let merge ~op a b =
  let t = copy a in
  merge_into ~op ~dst:t ~src:b;
  t

(* Set bits of a one-bit row's element (at most 32). *)
let rec popcount w = if w = 0 then 0 else 1 + popcount (w land (w - 1))

(** Number of non-zero registers (occupancy), used in accuracy analyses. *)
let occupancy t =
  match t.cells with
  | Words -> Array.fold_left (fun acc v -> if v <> 0 then acc + 1 else acc) 0 t.regs
  | Bits -> Array.fold_left (fun acc w -> acc + popcount w) 0 t.regs

let fold f init t =
  match t.cells with
  | Words -> Array.fold_left f init t.regs
  | Bits ->
      let acc = ref init in
      for i = 0 to t.size - 1 do acc := f !acc (cell t i) done;
      !acc

(** SRAM footprint in bytes assuming 32-bit words, for resource
    accounting: the modelled switch registers, whatever the cells
    here. *)
let sram_bytes t = t.size * 4

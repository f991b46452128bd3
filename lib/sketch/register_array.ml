(** A register array — the stateful-memory unit of the state bank (S).

    Models one SRAM register array of a programmable switch stage: a fixed
    number of registers, each supporting one transactional ALU per
    packet, held as 32-bit word cells or, for Bloom banks, one-bit cells.
    Windowed queries ([reduce]/[distinct] over 100 ms windows in the
    paper) reset arrays between windows via [clear]. *)

(* A word cell is a switch register: 32 bits, four bytes of [regs].  A
   Bloom bank's registers only ever hold 0 or 1 (its ALU is [Or 1]), so
   it keeps them as one-bit cells, eight to a byte: a bank's rows then
   take a 32nd of the memory of word cells and stay in cache. *)
type cells = Words | Bits

type t = {
  size : int;
  cells : cells;
  regs : Bytes.t; (* [Words]: cell [i] is the 32 bits at byte [4 * i];
                     [Bits]: cell [i] is bit [i land 7] of byte [i lsr 3] *)
  mutable ops : int; (* lifetime ALU executions, for accounting *)
}

external load_word : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external store_word : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let create ?(cells = Words) size =
  if size <= 0 then invalid_arg "Register_array.create: size must be positive";
  let len = match cells with Words -> size * 4 | Bits -> (size + 7) lsr 3 in
  { size; cells; regs = Bytes.make len '\000'; ops = 0 }

let size t = t.size
let ops t = t.ops

(* Word cell [i] of [regs], in range: [Int32.to_int] sign-extends. *)
let word regs i = Int32.to_int (load_word regs (i lsl 2)) land Alu.cell_max
let set_word regs i v = store_word regs (i lsl 2) (Int32.of_int v)
let byte regs i = Char.code (Bytes.unsafe_get regs i)
let set_byte regs i v = Bytes.unsafe_set regs i (Char.unsafe_chr v)

(* Cell [idx], in range. *)
let cell t idx =
  match t.cells with
  | Words -> word t.regs idx
  | Bits -> (byte t.regs (idx lsr 3) lsr (idx land 7)) land 1

(* Store [v] in cell [idx], in range; [fn] names the entry point when
   [v] does not fit the cell. *)
let store fn t idx v =
  match t.cells with
  | Words ->
      if v < 0 || v > Alu.cell_max then
        invalid_arg
          (Printf.sprintf "Register_array.%s: value %d does not fit a 32-bit cell" fn v);
      set_word t.regs idx v
  | Bits ->
      if v land lnot 1 <> 0 then
        invalid_arg
          (Printf.sprintf "Register_array.%s: value %d does not fit a one-bit cell" fn v);
      let b = idx lsr 3 and bit = 1 lsl (idx land 7) in
      let old = byte t.regs b in
      set_byte t.regs b (if v = 0 then old land lnot bit else old lor bit)

let get t idx =
  if idx < 0 || idx >= t.size then invalid_arg "Register_array.get: index out of range";
  cell t idx

let set t idx v =
  if idx < 0 || idx >= t.size then invalid_arg "Register_array.set: index out of range";
  store "set" t idx v

let index_error fn t idx =
  invalid_arg
    (Printf.sprintf "Register_array.%s: index %d out of range [0,%d)" fn idx t.size)

(** Execute a stateful ALU at [idx]; returns the ALU result.  The ALU
    runs on the cell's value and stores the new value back. *)
let exec t alu idx =
  if idx < 0 || idx >= t.size then index_error "exec" t idx;
  let prev = cell t idx in
  let next = Alu.update alu prev in
  store "exec" t idx next;
  t.ops <- t.ops + 1;
  if Alu.returns_previous alu then prev else next

let clear t = Bytes.fill t.regs 0 (Bytes.length t.regs) '\000'

(** Back to the state [create] returns — registers and op count zeroed
    — so a removed query's SRAM can serve the next install. *)
let reset t =
  clear t;
  t.ops <- 0

let copy t = { t with regs = Bytes.copy t.regs }

(* ---------------- shard merging ---------------- *)

(* The cross-shard combine menu mirrors the stateful ALUs: Bloom banks
   union with [`Or], Count-Min rows sum with [`Add], running maxima take
   [`Max].  All three are associative and commutative, so shard state
   folds in any order. *)
type merge_op = [ `Add | `Or | `Max ]

(** Fold [src] into [dst] register-by-register with the merge op's ALU
    update ([Alu.Add]/[Or]/[Max] by the source register, so [`Add]
    saturates); merging is not counted as packet ALU executions. *)
let merge_into ~op ~dst ~src =
  if dst.size <> src.size then
    invalid_arg
      (Printf.sprintf "Register_array.merge_into: size mismatch (%d vs %d)"
         dst.size src.size);
  let d = dst.regs and s = src.regs in
  match (dst.cells, src.cells, op) with
  | Words, Words, `Add ->
      for i = 0 to dst.size - 1 do
        let v = word d i + word s i in
        set_word d i (if v > Alu.cell_max then Alu.cell_max else v)
      done
  | Words, Words, `Or -> for i = 0 to dst.size - 1 do set_word d i (word d i lor word s i) done
  | Words, Words, `Max ->
      for i = 0 to dst.size - 1 do
        let v = word s i in
        if v > word d i then set_word d i v
      done
  | Bits, Bits, `Or ->
      for i = 0 to Bytes.length d - 1 do set_byte d i (byte d i lor byte s i) done
  | Bits, Bits, (`Add | `Max) ->
      invalid_arg "Register_array.merge_into: one-bit cells merge only with `Or"
  | _ -> invalid_arg "Register_array.merge_into: cell width mismatch"

(** Functional merge: a fresh array holding [op]-combined registers. *)
let merge ~op a b =
  let t = copy a in
  merge_into ~op ~dst:t ~src:b;
  t

(* Set bits of a one-bit row's byte. *)
let rec popcount b = if b = 0 then 0 else 1 + popcount (b land (b - 1))

(** Number of non-zero registers (occupancy), used in accuracy analyses. *)
let occupancy t =
  let n = ref 0 in
  (match t.cells with
  | Words -> for i = 0 to t.size - 1 do if word t.regs i <> 0 then incr n done
  | Bits -> for i = 0 to Bytes.length t.regs - 1 do n := !n + popcount (byte t.regs i) done);
  !n

let fold f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do acc := f !acc (cell t i) done;
  !acc

(** SRAM footprint in bytes at the switch's 32-bit registers: what a
    word cell takes here too; a one-bit cell takes a 32nd of it. *)
let sram_bytes t = t.size * 4

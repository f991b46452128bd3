(** A register array — the stateful-memory unit of the state bank (S).

    Models one SRAM register array of a programmable switch stage: a fixed
    number of word-sized registers, each supporting one transactional ALU
    per packet.  Windowed queries ([reduce]/[distinct] over 100 ms windows
    in the paper) reset arrays between windows via [clear]. *)

type t = {
  size : int;
  regs : int array;
  mutable ops : int; (* lifetime ALU executions, for accounting *)
}

let create size =
  if size <= 0 then invalid_arg "Register_array.create: size must be positive";
  { size; regs = Array.make size 0; ops = 0 }

let size t = t.size
let ops t = t.ops

let get t idx =
  if idx < 0 || idx >= t.size then invalid_arg "Register_array.get: index out of range";
  t.regs.(idx)

let set t idx v =
  if idx < 0 || idx >= t.size then invalid_arg "Register_array.set: index out of range";
  t.regs.(idx) <- v

let index_error fn t idx =
  invalid_arg
    (Printf.sprintf "Register_array.%s: index %d out of range [0,%d)" fn idx t.size)

(** Execute a stateful ALU at [idx]; returns the ALU result. *)
let exec t alu idx =
  if idx < 0 || idx >= t.size then index_error "exec" t idx;
  t.ops <- t.ops + 1;
  Alu.exec alu t.regs idx

let clear t = Array.fill t.regs 0 t.size 0

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
  match op with
  | `Add -> for i = 0 to dst.size - 1 do d.(i) <- d.(i) + s.(i) done
  | `Or -> for i = 0 to dst.size - 1 do d.(i) <- d.(i) lor s.(i) done
  | `Max ->
      for i = 0 to dst.size - 1 do
        let v = s.(i) in
        if v > d.(i) then d.(i) <- v
      done

(** Functional merge: a fresh array holding [op]-combined registers. *)
let merge ~op a b =
  let t = copy a in
  merge_into ~op ~dst:t ~src:b;
  t

(** Number of non-zero registers (occupancy), used in accuracy analyses. *)
let occupancy t =
  Array.fold_left (fun acc v -> if v <> 0 then acc + 1 else acc) 0 t.regs

let fold f init t = Array.fold_left f init t.regs

(** SRAM footprint in bytes assuming 32-bit words, for resource accounting. *)
let sram_bytes t = t.size * 4

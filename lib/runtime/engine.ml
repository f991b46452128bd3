(** Per-switch query execution engine.

    Holds the query instances installed on one switch — each a slice of a
    compiled query's module chain (the whole chain for sole-switch
    execution, a stage range for CQE) — together with the register arrays
    their state banks own.  Packets are classified once per switch by
    the engine's [newton_init] classifier and then run through each
    matching instance's slots in chain order; windowed state resets every [query.window] seconds as in
    §6 ("values of reduce and distinct are evaluated and reset every
    100 ms").

    Stage placement governs {e which} slots a switch hosts and its
    resource accounting; execution follows chain order, which the
    composition's dependency constraints keep consistent with stage
    order. *)

open Newton_packet
open Newton_sketch
open Newton_query
open Newton_compiler
open Newton_telemetry

type array_key = int * int * int (* branch, prim, suite *)

(* Report dedup memory, keyed by a report's operation keys alone: every
   entry belongs to the instance's current window, since entering a
   window resets the table.  Hashed with the H module's own chain and
   compared element-wise, so a lookup allocates nothing. *)
let rec keys_equal_from (a : int array) (b : int array) i =
  i >= Array.length a
  || (Array.unsafe_get a i = Array.unsafe_get b i && keys_equal_from a b (i + 1))

module Keys_tbl = Hashtbl.Make (struct
  type t = int array

  let equal a b = Array.length a = Array.length b && keys_equal_from a b 0
  let hash keys = Hash.hash_vector ~seed:0 keys
end)

(* ---------------- compiled slots ----------------

   [install] compiles each hosted IR slot once: key fields become byte
   offsets of their cells in a packet's row with a reusable projection
   buffer, register arrays become direct references, constant ALUs are
   prebuilt, and each branch's newton_init entry becomes a need-mask
   over the engine classifier's atoms.  Every entry point below runs
   this one program.

   Operation keys are bound at install, as a switch fixes each metadata
   set's place in the PHV when the rules are compiled: every H slot and
   reporting R slot holds the projection buffer of the K slot in effect
   at its chain position — the chain-latest K of its metadata set, [||]
   when there is none.  A K slot then only writes ints into its own
   buffer, and the step stores no pointer per packet. *)

(* The parts of an H->S->R suite, each compiled once.  A chain runs a
   part alone in its own slot, or all three in one [C_suite] slot when
   the suite's modules are consecutive in the hosted chain; the step
   runs either through one helper per part. *)
type hpart =
  | H_direct of { keys : int array }
  | H_hash of {
      seed : int;
      range : int;
      mask : int;  (* [range - 1] for a power-of-two range, else -1 *)
      keys : int array;
    }

(* One state-bank kind per ALU, run on the array's cells by the step
   itself with [Register_array.exec]'s bounds check and op count. *)
type spart =
  | S_pass
  | S_or1 of { arr : Register_array.t }  (* Bloom bit, one-bit cells: Alu.Or 1 *)
  | S_add of { arr : Register_array.t; k : int }         (* Alu.Add k *)
  | S_max of { arr : Register_array.t; k : int }         (* Alu.Max k *)
  | S_add_field of { arr : Register_array.t; off : int }  (* the field's cell *)
  | S_max_field of { arr : Register_array.t; off : int }
  | S_read of { arr : Register_array.t }     (* word cells *)
  | S_read_bit of { arr : Register_array.t } (* a Bloom bank's one-bit cells *)
  | S_read_remote  (* the read array is not hosted here: reads 0 *)

type rpart = {
  r_merge : (Ir.acc * Ir.merge_op) option;
  r_combine : Ir.merge_op option;
  r_guard : (Ir.guard_target * Ast.cmp_op * int) option;
  r_report : bool;
  r_keys : int array;  (* the reported operation keys *)
}

type cslot =
  | C_key of {
      ck_off : int array;    (* the key fields' cell offsets *)
      ck_masks : int array;
      ck_buf : int array;    (* reused projection buffer *)
    }
  | C_hash of { meta : int; h : hpart }
  | C_state of { meta : int; s : spart }
  | C_result of { meta : int; r : rpart }
  | C_suite of { meta : int; h : hpart; s : spart; r : rpart }

type cbranch = {
  cb_atoms : (int * int * int) list;  (* newton_init entry: (cell offset, mask, value) *)
  (* the words of the classifier bitset [cb_atoms] must all hit, set by
     [index_instances] *)
  mutable cb_need : int array;
  cb_slots : cslot array;
}

type instance = {
  uid : int;                       (** controller-assigned install id *)
  compiled : Compose.t;
  stage_lo : int;                  (** slice bounds, inclusive *)
  stage_hi : int;
  slots : Ir.slot list array;      (** hosted slots per branch, chain order *)
  arrays : (array_key, Register_array.t) Hashtbl.t;
  reported : unit Keys_tbl.t;     (** keys reported in [window_index] *)
  mutable rules : int;             (** table entries this slice holds *)
  mutable window_index : int;      (** this instance's current window *)
  mutable window_slot : int;       (** its window length's index in [window_lens] *)
  branches : cbranch array;        (** [slots], compiled *)
  ctx0 : Ctx.t;                    (** branch-0 scratch (device-level) *)
  bctx : Ctx.t;                    (** scratch for branches > 0 *)
}

(* Counter events of one driver call — or, for the path executors, of
   one packet's walk — folded into the sink by [flush]. *)
type tally = {
  mutable hits_k : int;
  mutable hits_h : int;
  mutable hits_s : int;
  mutable hits_r : int;
  mutable guard_stops : int;
  mutable emitted : int;
  mutable deduped : int;
  mutable dropped : int;
  mutable rolls : int;
  mutable seen : int;  (* packets counted by [record_packet_seen] and [process_flat] *)
  mutable cqe_hops : int;
  mutable sp_header_bytes : int;
  mutable continuations : int;
}

type t = {
  switch_id : int;
  (* Mirror-session budget: reports are exported by cloning packets to
     the analyzer; a switch mirrors at most [report_budget] packets per
     window (None = unlimited).  Overflow reports are dropped on the
     wire — the analyzer's dedup sees at-most-once anyway. *)
  mutable report_budget : int option;
  mutable budget_window : int;
  mutable window_reports : int;
  mutable window_drops : int; (* budget drops in the current window *)
  mutable dropped_reports : int;
  (* Telemetry sink: every event below is one [Stats.bump] away;
     [Stats.null] turns the whole layer into a single branch. *)
  mutable sink : Stats.sink;
  tally : tally;
  mutable instances : instance list;
  (* The distinct window lengths of [instances], and scratch for the
     window index [classify] computes for each. *)
  mutable window_lens : float array;
  mutable window_now : int array;
  (* The newton_init classifier, rebuilt by [index_instances]: the
     distinct (cell offset, mask, value) atoms of every hosted branch's
     entry, and per packet the bitset of atoms that hold, atom [a] at
     bit [a mod atoms_per_word] of word [a / atoms_per_word].  A branch
     matches when every bit of its [cb_need] is set. *)
  mutable atom_off : int array;
  mutable atom_mask : int array;
  mutable atom_value : int array;
  mutable atom_hits : int array;
  (* The first-slice branches in install order, for [process_flat]:
     branch [j] needs words [j * nwords ..] of [first_need]
     ([nwords = Array.length atom_hits]) and belongs to [first_inst.(j)],
     whose last branch is followed by [first_next.(j)]. *)
  mutable first_need : int array;
  mutable first_inst : instance array;
  mutable first_next : int array;
  (* uid -> the first-installed instance of that uid, open addressing:
     slot [i] holds uid [uid_keys.(i)] when [uid_vals.(i)] is [Some _]
     (boxed once, so a lookup allocates nothing). *)
  mutable uid_keys : int array;
  mutable uid_vals : instance option array;
  (* table entries per physical module cell (stage, kind, set); each
     cell is one hardware table of [Module_cost.rules_per_module]
     capacity — this is what bounds concurrent queries. *)
  cell_rules : (int * Newton_dataplane.Module_cost.kind * int, int) Hashtbl.t;
  (* Register arrays of removed instances by size and cell width,
     handed to the next install that needs one: like a switch's SRAM,
     register memory is reused rather than allocated per query, so churn
     leaves no major-heap allocation (and GC work) behind each install. *)
  spare_arrays : (int * Register_array.cells, Register_array.t list) Hashtbl.t;
  mutable reports : Report.t list; (* reverse order *)
  mutable report_count : int;
  mutable packets_seen : int;
  mutable next_uid : int;
}

(** Raised when a module table cannot accept another query's rule; the
    controller reacts by placing the query elsewhere. *)
exception Rules_exhausted of { stage : int; kind : string }

let create ?(sink = Stats.create ()) ~switch_id () =
  {
    switch_id;
    report_budget = None;
    budget_window = -1;
    window_reports = 0;
    window_drops = 0;
    dropped_reports = 0;
    sink;
    tally =
      { hits_k = 0; hits_h = 0; hits_s = 0; hits_r = 0; guard_stops = 0;
        emitted = 0; deduped = 0; dropped = 0; rolls = 0; seen = 0;
        cqe_hops = 0; sp_header_bytes = 0; continuations = 0 };
    instances = [];
    window_lens = [||];
    window_now = [||];
    atom_off = [||];
    atom_mask = [||];
    atom_value = [||];
    atom_hits = [| 0 |];
    first_need = [||];
    first_inst = [||];
    first_next = [||];
    uid_keys = [| 0 |];
    uid_vals = [| None |];
    cell_rules = Hashtbl.create 64;
    spare_arrays = Hashtbl.create 8;
    reports = [];
    report_count = 0;
    packets_seen = 0;
    next_uid = 1;
  }

let switch_id t = t.switch_id

(** Cap the mirror sessions: at most [n] report exports per window. *)
let set_report_budget t n = t.report_budget <- n

(** Reports dropped because the mirror budget was exhausted. *)
let dropped_reports t = t.dropped_reports
let instances t = t.instances
let reports t = List.rev t.reports
let report_count t = t.report_count
let packets_seen t = t.packets_seen

let sink t = t.sink
let set_sink t s = t.sink <- s

(** Count a packet against this engine without executing it — the CQE
    path executor counts each packet that runs a slice here once this
    way.  The sink sees it at the next [flush]. *)
let record_packet_seen t =
  t.packets_seen <- t.packets_seen + 1;
  t.tally.seen <- t.tally.seen + 1

(* Path events the executor tallies for the next [flush]. *)
let count_cqe_hop t = t.tally.cqe_hops <- t.tally.cqe_hops + 1

let count_sp_header t bytes =
  t.tally.sp_header_bytes <- t.tally.sp_header_bytes + bytes

let count_continuation t = t.tally.continuations <- t.tally.continuations + 1

(* ---------------- instance accessors ---------------- *)

let instance_uid i = i.uid
let instance_query i = i.compiled.Compose.query
let instance_rules i = i.rules
let instance_stage_lo i = i.stage_lo
let instance_window i = i.window_index
let instance_reported_keys i = Keys_tbl.length i.reported
let instance_slots i = i.slots

(* Sorted by (branch, prim, suite) so the listing order is stable
   across runs and OCaml versions (Hashtbl fold order is not). *)
let instance_arrays i =
  Hashtbl.fold (fun key arr acc -> (key, arr) :: acc) i.arrays []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let instance_array i key = Hashtbl.find_opt i.arrays key

(* ---------------- slot compilation ---------------- *)

(* [land mask] equals [mod range] on the non-negative hash values
   exactly when [range] is a power of two. *)
let range_mask range = if range > 0 && range land (range - 1) = 0 then range - 1 else -1

let hash_part ~key_buf mode range =
  match mode with
  | `Direct -> H_direct { keys = key_buf }
  | `Hash seed -> H_hash { seed; range; mask = range_mask range; keys = key_buf }

let state_part arrays (s : Ir.slot) op =
  let own_array () = Hashtbl.find arrays (s.Ir.branch, s.Ir.prim, s.Ir.suite) in
  match op with
  | Ir.S_pass -> S_pass
  | Ir.S_bf -> S_or1 { arr = own_array () }  (* [install] gives it one-bit cells *)
  | Ir.S_cm (Ir.Const k) -> S_add { arr = own_array (); k }
  | Ir.S_cm (Ir.Field_val f) -> S_add_field { arr = own_array (); off = Packet.offset f }
  | Ir.S_max (Ir.Const k) -> S_max { arr = own_array (); k }
  | Ir.S_max (Ir.Field_val f) -> S_max_field { arr = own_array (); off = Packet.offset f }
  | Ir.S_read { ar_branch; ar_prim; ar_suite } -> (
      (* Reads the sibling branch's array when hosted locally; a remote
         array (CQE slicing) reads as 0 — the state-dispersion
         limitation of §7, which NA071 warns of at admission. *)
      match Hashtbl.find_opt arrays (ar_branch, ar_prim, ar_suite) with
      | Some ({ Register_array.cells = Words; _ } as arr) -> S_read { arr }
      | Some ({ Register_array.cells = Bits; _ } as arr) -> S_read_bit { arr }
      | None -> S_read_remote)

let result_part ~key_buf ({ merge; guard; report; combine } : Ir.r_cfg) =
  { r_merge = merge; r_combine = combine; r_guard = guard; r_report = report;
    r_keys = (if report then key_buf else [||]) }

(* [key_buf] is the projection buffer of the K slot in effect at [s]'s
   chain position for its metadata set. *)
let compile_slot arrays ~key_buf (s : Ir.slot) =
  let meta = s.Ir.meta in
  match s.Ir.cfg with
  | Ir.K_cfg keys ->
      let off =
        Array.of_list (List.map (fun (k : Ast.key) -> Packet.offset k.Ast.field) keys)
      in
      let masks = Array.of_list (List.map (fun (k : Ast.key) -> k.Ast.mask) keys) in
      C_key { ck_off = off; ck_masks = masks; ck_buf = Array.make (Array.length off) 0 }
  | Ir.H_cfg { mode; range } -> C_hash { meta; h = hash_part ~key_buf mode range }
  | Ir.S_cfg { op; _ } -> C_state { meta; s = state_part arrays s op }
  | Ir.R_cfg r -> C_result { meta; r = result_part ~key_buf r }

(* [a] and [b] belong to one suite and use one metadata set. *)
let same_suite (a : Ir.slot) (b : Ir.slot) =
  a.Ir.branch = b.Ir.branch && a.Ir.prim = b.Ir.prim && a.Ir.suite = b.Ir.suite
  && a.Ir.meta = b.Ir.meta

(* A suite whose H, S and R follow each other in the hosted chain
   compiles to one [C_suite] slot; a suite a CQE cut splits keeps one
   slot per hosted module.  No slot runs between a suite's modules and
   neither H nor S can stop a packet, so both forms run the same
   updates in the same order. *)
let compile_branch arrays (entry : Ir.init_entry) slots =
  (* per metadata set, the buffer of the chain-latest K compiled so far *)
  let in_effect = [| [||]; [||] |] in
  let rec compile = function
    | [] -> []
    | ({ Ir.cfg = Ir.H_cfg { mode; range }; meta; _ } as h)
      :: ({ Ir.cfg = Ir.S_cfg { op; _ }; _ } as s)
      :: ({ Ir.cfg = Ir.R_cfg rc; _ } as r)
      :: rest
      when same_suite h s && same_suite h r ->
        let key_buf = in_effect.(meta) in
        C_suite
          { meta; h = hash_part ~key_buf mode range; s = state_part arrays s op;
            r = result_part ~key_buf rc }
        :: compile rest
    | s :: rest ->
        let c = compile_slot arrays ~key_buf:in_effect.(s.Ir.meta) s in
        (match c with C_key { ck_buf; _ } -> in_effect.(s.Ir.meta) <- ck_buf | _ -> ());
        c :: compile rest
  in
  {
    cb_atoms = List.map (fun (f, v, m) -> (Packet.offset f, m, v)) entry.Ir.ie_matches;
    cb_need = [||];
    cb_slots = Array.of_list (compile slots);
  }

(* A zeroed register array of [size] [cells]: a removed instance's if
   one is spare, a fresh one otherwise. *)
let take_array t ~cells size =
  match Hashtbl.find_opt t.spare_arrays (size, cells) with
  | Some (arr :: rest) ->
      Hashtbl.replace t.spare_arrays (size, cells) rest;
      Register_array.reset arr;
      arr
  | Some [] | None -> Register_array.create ~cells size

let window_len inst = inst.compiled.Compose.query.Ast.window

(* newton_init holds one ternary entry per first-slice branch, at most
   [init_capacity] of them, like any bounded hardware table; the match
   itself is the classifier's atoms. *)
let init_capacity = 1024

(** Entries currently in the [newton_init] classifier. *)
let init_table_size t =
  List.fold_left
    (fun n inst ->
      if inst.stage_lo = 0 then n + Array.length inst.compiled.Compose.init_entries
      else n)
    0 t.instances

(* The uid table's home slot for [uid]: high product bits, so the
   controller's [uid * 1000 + depth] uids spread. *)
let uid_slot mask uid = ((uid * 0x9E3779B1) lsr 20) land mask

(* Atoms per word of the classifier bitset: bits 0..61, so every mask
   is a non-negative int. *)
let atoms_per_word = 62

(* Rebuild the newton_init classifier from [instances]: number the
   distinct atoms in install order, set every hosted branch's need-mask,
   and lay out the first-slice branches for [process_flat].  Linear in
   the hosted branches. *)
let index_classifier t =
  let ids = Hashtbl.create 32 and atoms = ref [] and n = ref 0 in
  let atom_id a =
    match Hashtbl.find_opt ids a with
    | Some id -> id
    | None ->
        let id = !n in
        Hashtbl.add ids a id;
        atoms := a :: !atoms;
        incr n;
        id
  in
  let branch_ids =
    List.map (fun inst -> Array.map (fun cb -> List.map atom_id cb.cb_atoms) inst.branches)
      t.instances
  in
  let atoms = Array.of_list (List.rev !atoms) in
  let nwords = max 1 ((!n + atoms_per_word - 1) / atoms_per_word) in
  t.atom_off <- Array.map (fun (off, _, _) -> off) atoms;
  t.atom_mask <- Array.map (fun (_, m, _) -> m) atoms;
  t.atom_value <- Array.map (fun (_, _, v) -> v) atoms;
  t.atom_hits <- Array.make nwords 0;
  let need_of ids =
    let need = Array.make nwords 0 in
    List.iter
      (fun a ->
        let w = a / atoms_per_word in
        need.(w) <- need.(w) lor (1 lsl (a mod atoms_per_word)))
      ids;
    need
  in
  List.iter2
    (fun inst ids -> Array.iteri (fun b cb -> cb.cb_need <- need_of ids.(b)) inst.branches)
    t.instances branch_ids;
  let firsts = List.filter (fun inst -> inst.stage_lo = 0) t.instances in
  let nfirst = List.fold_left (fun n inst -> n + Array.length inst.branches) 0 firsts in
  let need = Array.make (nfirst * nwords) 0 and next = Array.make nfirst 0 in
  let j = ref 0 in
  List.iter
    (fun inst ->
      let nb = Array.length inst.branches in
      Array.iteri
        (fun b cb ->
          Array.blit cb.cb_need 0 need ((!j + b) * nwords) nwords;
          next.(!j + b) <- !j + nb)
        inst.branches;
      j := !j + nb)
    firsts;
  t.first_need <- need;
  t.first_next <- next;
  t.first_inst <-
    Array.of_list
      (List.concat_map (fun inst -> List.init (Array.length inst.branches) (fun _ -> inst)) firsts)

(* Rebuild the per-instance indexes from [instances], on every install
   and remove: the uid table (at most half full, so every probe ends at
   an empty slot; the first-installed instance of a uid wins), the
   distinct window lengths with each instance's slot among them, so
   [classify] divides once per length, and the classifier. *)
let index_instances t =
  let cap = ref 8 in
  while !cap < 2 * List.length t.instances do cap := 2 * !cap done;
  let keys = Array.make !cap 0 and vals = Array.make !cap None in
  let mask = !cap - 1 in
  List.iter
    (fun inst ->
      let rec put i =
        match vals.(i) with
        | None ->
            keys.(i) <- inst.uid;
            vals.(i) <- Some inst
        | Some _ -> if keys.(i) <> inst.uid then put ((i + 1) land mask)
      in
      put (uid_slot mask inst.uid))
    t.instances;
  t.uid_keys <- keys;
  t.uid_vals <- vals;
  let lens =
    Array.of_list (List.sort_uniq Float.compare (List.map window_len t.instances))
  in
  t.window_lens <- lens;
  t.window_now <- Array.make (Array.length lens) 0;
  List.iter
    (fun inst ->
      let rec slot k = if Float.equal lens.(k) (window_len inst) then k else slot (k + 1) in
      inst.window_slot <- slot 0)
    t.instances;
  index_classifier t

(** Install a slice [stage_lo, stage_hi] of a compiled query.  Returns
    the instance uid and the number of table entries installed (module
    rules in the slice + the newton_init entries when stage 0 is here). *)
let install t ?uid ?(stage_lo = 0) ?(stage_hi = max_int) compiled =
  let slots =
    Array.map
      (fun branch_slots ->
        let in_range s = s.Ir.stage >= stage_lo && s.Ir.stage <= stage_hi in
        if stage_lo = 0 then List.filter in_range branch_slots
        else begin
          (* Shadow replication for CQE slices: operation keys and
             per-suite hash results do not cross switches (the 12-byte SP
             header only carries one hash/state per metadata set and the
             global result), so a non-first slice re-installs the
             upstream K of each metadata set it uses and, for every
             hosted state bank whose hash module lives upstream, that
             suite's H (re-hashing locally is how a real deployment
             co-locates each register array with its index computation). *)
          let h_of = Hashtbl.create 8 in
          List.iter
            (fun s ->
              if s.Ir.kind = Newton_dataplane.Module_cost.H && s.Ir.stage < stage_lo
              then Hashtbl.replace h_of (s.Ir.branch, s.Ir.prim, s.Ir.suite) s)
            branch_slots;
          let emitted = Hashtbl.create 8 in
          let emit acc s =
            let key = (s.Ir.kind, s.Ir.branch, s.Ir.prim, s.Ir.suite, s.Ir.meta) in
            if Hashtbl.mem emitted key then acc
            else begin
              Hashtbl.add emitted key ();
              s :: acc
            end
          in
          (* Chain-latest K per metadata set, hosted or upstream: a
             slot needing keys shadows exactly the K whose selection is
             in effect at its chain position. *)
          let last_k = [| None; None |] in
          let acc =
            List.fold_left
              (fun acc s ->
                if s.Ir.kind = Newton_dataplane.Module_cost.K then
                  last_k.(s.Ir.meta) <- Some s;
                if not (in_range s) then acc
                else
                  let needs_keys =
                    match (s.Ir.kind, s.Ir.cfg) with
                    | (Newton_dataplane.Module_cost.H | Newton_dataplane.Module_cost.S), _ ->
                        true
                    | Newton_dataplane.Module_cost.R, Ir.R_cfg { report = true; _ } ->
                        (* reports carry the operation keys *)
                        true
                    | _ -> false
                  in
                  let acc =
                    if needs_keys then
                      match last_k.(s.Ir.meta) with
                      | Some k -> emit acc k
                      | None -> acc
                    else acc
                  in
                  let acc =
                    match s.Ir.kind with
                    | Newton_dataplane.Module_cost.S -> (
                        (* re-hash locally when the suite's H is upstream *)
                        match
                          Hashtbl.find_opt h_of (s.Ir.branch, s.Ir.prim, s.Ir.suite)
                        with
                        | Some h -> emit acc h
                        | None -> acc)
                    | _ -> acc
                  in
                  emit acc s)
              [] branch_slots
          in
                    List.rev acc
        end)
      compiled.Compose.branches
  in
  let ninit = if stage_lo = 0 then Array.length compiled.Compose.init_entries else 0 in
  let nrules = Array.fold_left (fun acc l -> acc + List.length l) 0 slots + ninit in
  (* Atomic rule accounting: every hosted slot is one rule in the
     physical table of its (stage, kind, set) cell, which holds at most
     [Module_cost.rules_per_module] rules, and every first-slice branch
     is one newton_init entry.  Check the whole batch before touching
     anything so a rejected install leaves no residue. *)
  if init_table_size t + ninit > init_capacity then
    raise (Rules_exhausted { stage = 0; kind = "newton_init" });
  let increments = Hashtbl.create 32 in
  Array.iter
    (List.iter (fun s ->
         let cell = (s.Ir.stage, s.Ir.kind, s.Ir.meta) in
         Hashtbl.replace increments cell
           (1 + Option.value (Hashtbl.find_opt increments cell) ~default:0)))
    slots;
  Hashtbl.iter
    (fun ((stage, kind, _) as cell) inc ->
      let used = Option.value (Hashtbl.find_opt t.cell_rules cell) ~default:0 in
      if used + inc > Newton_dataplane.Module_cost.rules_per_module then
        raise
          (Rules_exhausted
             { stage; kind = Newton_dataplane.Module_cost.kind_to_string kind }))
    increments;
  Hashtbl.iter
    (fun cell inc ->
      Hashtbl.replace t.cell_rules cell
        (inc + Option.value (Hashtbl.find_opt t.cell_rules cell) ~default:0))
    increments;
  let arrays = Hashtbl.create 16 in
  Array.iter
    (List.iter (fun s ->
         match s.Ir.cfg with
         | Ir.S_cfg { op = (Ir.S_bf | Ir.S_cm _ | Ir.S_max _) as op; registers } ->
             let cells =
               match op with Ir.S_bf -> Register_array.Bits | _ -> Register_array.Words
             in
             Hashtbl.replace arrays
               (s.Ir.branch, s.Ir.prim, s.Ir.suite)
               (take_array t ~cells registers)
         | _ -> ()))
    slots;
  (* CQE slices of one deployment share a controller-assigned uid so the
     path executor can thread one context across switches. *)
  let uid =
    match uid with
    | Some u ->
        t.next_uid <- max t.next_uid (u + 1);
        u
    | None ->
        let u = t.next_uid in
        t.next_uid <- u + 1;
        u
  in
  let inst =
    {
      uid;
      compiled;
      stage_lo;
      stage_hi;
      slots;
      arrays;
      reported = Keys_tbl.create 64;
      rules = nrules;
      window_index = 0;
      window_slot = 0;
      branches =
        Array.mapi
          (fun b -> compile_branch arrays compiled.Compose.init_entries.(b))
          slots;
      ctx0 = Ctx.create ();
      bctx = Ctx.create ();
    }
  in
  t.instances <- t.instances @ [ inst ];
  index_instances t;
  (uid, nrules)

(** Remove an instance; returns how many table entries were freed, or
    [None] if the uid is unknown. *)
let remove t uid =
  match List.find_opt (fun i -> i.uid = uid) t.instances with
  | None -> None
  | Some inst ->
      t.instances <- List.filter (fun i -> i.uid <> uid) t.instances;
      index_instances t;
      Hashtbl.iter
        (fun _ arr ->
          let key = (Register_array.size arr, arr.Register_array.cells) in
          Hashtbl.replace t.spare_arrays key
            (arr :: Option.value ~default:[] (Hashtbl.find_opt t.spare_arrays key)))
        inst.arrays;
      (* release the module-cell rules; the newton_init entries go with
         the instances *)
      Array.iter
        (List.iter (fun s ->
             let cell = (s.Ir.stage, s.Ir.kind, s.Ir.meta) in
             match Hashtbl.find_opt t.cell_rules cell with
             | Some n when n > 1 -> Hashtbl.replace t.cell_rules cell (n - 1)
             | Some _ -> Hashtbl.remove t.cell_rules cell
             | None -> ()))
        inst.slots;
      Some inst.rules

let rec probe_uid (keys : int array) vals mask (uid : int) i =
  match Array.unsafe_get vals i with
  | None -> None
  | found ->
      if Array.unsafe_get keys i = uid then found
      else probe_uid keys vals mask uid ((i + 1) land mask)

(* The first-installed instance of [uid], as [List.find_opt] over
   [instances] would find it ([remove] drops every instance of a uid). *)
let find_instance t uid =
  let keys = t.uid_keys in
  let mask = Array.length keys - 1 in
  probe_uid keys t.uid_vals mask uid (uid_slot mask uid)

let total_rules t = List.fold_left (fun acc i -> acc + i.rules) 0 t.instances

(** Rules held per physical module cell (stage, kind, set) — the
    utilization side of the [Module_cost.rules_per_module] capacity. *)
let cell_usage t =
  Hashtbl.fold (fun cell used acc -> (cell, used) :: acc) t.cell_rules []
  |> List.sort compare

(* ---------------- slot arithmetic ---------------- *)

(* Direct-mode hash: single key passes through, several keys pack with
   the same formula the compiler used for the expected constant. *)
let direct_value keys =
  match Array.length keys with
  | 0 -> 0
  | 1 -> keys.(0)
  | _ -> Array.fold_left (fun acc v -> ((acc lsl 16) lxor v) land 0x3FFFFFFF) 0 keys

(* Int-typed throughout: the polymorphic [min]/[max] would compile to
   a [compare_val] C call per merge. *)
let[@inline] merge_value op (acc : int) (v : int) =
  match op with
  | Ir.M_set -> v
  | Ir.M_min -> if acc <= v then acc else v
  | Ir.M_max -> if acc >= v then acc else v
  | Ir.M_add -> acc + v
  | Ir.M_sub ->
      let d = acc - v in
      if d >= 0 then d else 0

(* ---------------- windowing ---------------- *)

(* Move [inst] to window [w], clearing its sketch state and report
   dedup; [false] if it is already there. *)
let enter_window inst w =
  w <> inst.window_index
  && begin
       inst.window_index <- w;
       Hashtbl.iter (fun _ arr -> Register_array.clear arr) inst.arrays;
       Keys_tbl.reset inst.reported;
       true
     end

(* Each instance keeps its own window clock: concurrent queries may use
   different window lengths (Ast.window); [classify] computes the
   current packet's window under each distinct length. *)
let rec roll_windows t = function
  | [] -> ()
  | inst :: rest ->
      if enter_window inst t.window_now.(inst.window_slot) then
        Stats.bump t.sink Stats.Window_rolls 1;
      roll_windows t rest

(* A packet's row is read in place (the layout of packet.ml): the
   unsigned 32-bit cell at byte [off], and the timestamp from the row's
   first 8 bytes.  The cell read compiles inline; the timestamp crosses
   through a direct noalloc call, so it is never boxed. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let[@inline] cell rows off = Int32.to_int (get32 rows off) land 0xFFFF_FFFF
let[@inline] row_ts rows base = Int64.float_of_bits (get64 rows base)

(* newton_init, once per packet: set [atom_hits] to the atoms that the
   row at byte [base] of [rows] satisfies, and [window_now] to its
   window under every distinct window length. *)
let classify t rows base =
  let aoff = t.atom_off and mask = t.atom_mask and value = t.atom_value in
  let hits = t.atom_hits and na = Array.length t.atom_off in
  for w = 0 to Array.length hits - 1 do
    let lo = w * atoms_per_word in
    let hi = if lo + atoms_per_word < na then lo + atoms_per_word else na in
    let acc = ref 0 in
    for a = lo to hi - 1 do
      if
        cell rows (base + Array.unsafe_get aoff a) land Array.unsafe_get mask a
        = Array.unsafe_get value a
      then acc := !acc lor (1 lsl (a - lo))
    done;
    Array.unsafe_set hits w !acc
  done;
  let ts = row_ts rows base in
  let lens = t.window_lens and ws = t.window_now in
  for k = 0 to Array.length lens - 1 do
    Array.unsafe_set ws k (int_of_float (ts /. Array.unsafe_get lens k))
  done

(* Used by the path executors: classify the row's packet and roll every
   instance of the engine.  Window lengths are per-instance
   ([query.window]); there is no per-call override. *)
let begin_packet t row =
  classify t (Flat.rows row) 0;
  roll_windows t t.instances

(* ---------------- state migration ---------------- *)

(** Merge [src]'s sketch state and report-dedup memory into [dst] —
    the state-carrying half of switch-failure recovery.  Both must be
    instances of the same compiled slice (same array keys).

    Window alignment comes first: migrated state only makes sense
    inside one measurement window.  If [src] is in a later window than
    [dst] (a freshly installed replacement starts at window 0), [dst]
    is cleared and adopts [src]'s window; if [src] is in an {e earlier}
    window its state is stale — the next roll would wipe it anyway —
    so nothing is merged.  Arrays then combine under [op_of]'s per-bank
    ALU op, and [src]'s dedup entries (all of that shared window) are carried over so
    the replacement does not re-emit reports the failed switch already
    exported.  Returns (banks merged, occupied cells moved). *)
let absorb_state ~op_of ~src ~dst =
  if src.window_index > dst.window_index then
    ignore (enter_window dst src.window_index);
  if src.window_index < dst.window_index then (0, 0)
  else begin
    let banks = ref 0 and cells = ref 0 in
    Hashtbl.iter
      (fun key src_arr ->
        match Hashtbl.find_opt dst.arrays key with
        | None -> invalid_arg "Engine.absorb_state: array-key mismatch"
        | Some dst_arr -> (
            match op_of key with
            | None ->
                let b, p, s = key in
                invalid_arg
                  (Printf.sprintf
                     "Engine.absorb_state: state bank (branch %d, prim %d, \
                      suite %d) has no merge op in the slot layout"
                     b p s)
            | Some op ->
                incr banks;
                cells := !cells + Register_array.occupancy src_arr;
                Register_array.merge_into ~op ~dst:dst_arr ~src:src_arr))
      src.arrays;
    Keys_tbl.iter (fun k () -> Keys_tbl.replace dst.reported k ()) src.reported;
    (!banks, !cells)
  end

(* ---------------- packet processing ---------------- *)

(* A report slot passed: dedup on its bound [keys] within the window
   [w] the instance is in, then the mirror budget, then export.  The
   packet's row is at byte [base] of [rows]; only an export reads its
   timestamp. *)
let emit t inst (c : Ctx.t) keys w rows base =
  let tl = t.tally in
  if Keys_tbl.mem inst.reported keys then tl.deduped <- tl.deduped + 1
  else begin
    (* The projection buffer is reused across packets; the stored dedup
       key and report must own their keys. *)
    let keys = Array.copy keys in
    Keys_tbl.add inst.reported keys ();
    let over_budget =
      match t.report_budget with
      | Some budget ->
          if w <> t.budget_window then begin
            (* close the previous window's drop tally *)
            if t.budget_window >= 0 then
              Stats.observe_window_drops t.sink t.window_drops;
            t.budget_window <- w;
            t.window_reports <- 0;
            t.window_drops <- 0
          end;
          t.window_reports >= budget
      | None -> false
    in
    if over_budget then begin
      t.dropped_reports <- t.dropped_reports + 1;
      t.window_drops <- t.window_drops + 1;
      tl.dropped <- tl.dropped + 1
    end
    else begin
      t.window_reports <- t.window_reports + 1;
      let q = inst.compiled.Compose.query in
      let value2 =
        match q.Ast.combine with
        | Some { op = Ast.Pair; _ } -> Some c.Ctx.g2
        | _ -> None
      in
      t.reports <-
        Report.make ~query_id:q.Ast.id ~window:w ~keys ~value:c.Ctx.g1 ~value2 ()
        :: t.reports;
      t.report_count <- t.report_count + 1;
      tl.emitted <- tl.emitted + 1;
      Stats.observe_report_latency t.sink
        (row_ts rows base -. (float_of_int w *. q.Ast.window))
    end
  end

(* ---------------- one suite's modules ----------------

   The step runs every module in this module: under [-opaque] a call
   into another compilation unit is never inlined, and a curried one
   of three arguments goes through [caml_apply3].  The lone H, S and R
   slots and the fused suite slot share these helpers; only the hash
   chain itself ([Hash.hash_vector]) is called out. *)

let[@inline] hash_value = function
  | H_direct { keys } -> direct_value keys
  | H_hash { seed; range; mask; keys } ->
      let h = Hash.hash_vector ~seed keys in
      if mask >= 0 then h land mask else h mod range

(* Out-of-range indices raise from here, out of [step]: calling
   [Register_array] there would put a [caml_apply3] in it.  Constant
   ALUs report as "exec", field-valued ones as "add" and "max". *)
let[@inline never] index_error fn arr idx : int = Register_array.index_error fn arr idx
let[@inline never] read_error arr idx = Register_array.get arr idx

(* One ALU execution at [idx]: bounds-checked and counted in [ops] as
   [Register_array.exec] does. *)
let[@inline] count_op fn (arr : Register_array.t) idx =
  if idx < 0 || idx >= arr.Register_array.size then ignore (index_error fn arr idx);
  arr.Register_array.ops <- arr.Register_array.ops + 1

(* Word cell [idx] of [regs]: 32 bits at byte [4 * idx], in range. *)
let[@inline] load_cell regs idx =
  Int32.to_int (Register_array.load_word regs (idx lsl 2)) land Alu.cell_max

let[@inline] store_cell regs idx v = Register_array.store_word regs (idx lsl 2) (Int32.of_int v)

(* [Alu.Add v], saturating at [Alu.cell_max]: the new value. *)
let[@inline] alu_add fn (arr : Register_array.t) idx v =
  count_op fn arr idx;
  let regs = arr.Register_array.regs in
  let r = load_cell regs idx + v in
  let r = if r > Alu.cell_max then Alu.cell_max else r in
  store_cell regs idx r;
  r

(* [Alu.Max v]: the new value. *)
let[@inline] alu_max fn (arr : Register_array.t) idx v =
  count_op fn arr idx;
  let regs = arr.Register_array.regs in
  let cur = load_cell regs idx in
  let r = if v > cur then v else cur in
  store_cell regs idx r;
  r

(* The state result of bank [s] indexed by the hash result [idx]. *)
let[@inline] state_value s rows base idx =
  match s with
  | S_pass -> idx
  | S_or1 { arr } ->
      (* [Alu.Or 1] on a one-bit cell: the previous value *)
      count_op "exec" arr idx;
      let regs = arr.Register_array.regs in
      let b = idx lsr 3 and bit = idx land 7 in
      let byte = Char.code (Bytes.unsafe_get regs b) in
      Bytes.unsafe_set regs b (Char.unsafe_chr (byte lor (1 lsl bit)));
      (byte lsr bit) land 1
  | S_add { arr; k } -> alu_add "exec" arr idx k
  | S_max { arr; k } -> alu_max "exec" arr idx k
  | S_add_field { arr; off } -> alu_add "add" arr idx (cell rows (base + off))
  | S_max_field { arr; off } -> alu_max "max" arr idx (cell rows (base + off))
  | S_read { arr } ->
      if idx < 0 || idx >= arr.Register_array.size then read_error arr idx
      else load_cell arr.Register_array.regs idx
  | S_read_bit { arr } ->
      if idx < 0 || idx >= arr.Register_array.size then read_error arr idx
      else (Char.code (Bytes.unsafe_get arr.Register_array.regs (idx lsr 3)) lsr (idx land 7)) land 1
  | S_read_remote -> 0

(* [Ast.cmp_holds], in-module. *)
let[@inline] cmp_holds op (a : int) (b : int) =
  match op with
  | Ast.Eq -> a = b
  | Ast.Neq -> a <> b
  | Ast.Gt -> a > b
  | Ast.Ge -> a >= b
  | Ast.Lt -> a < b
  | Ast.Le -> a <= b

(* R: merge the state result into an accumulator, combine, then guard
   (a failed guard stops the packet) or report. *)
let[@inline] run_result t inst (c : Ctx.t) meta r w rows base =
  (match r.r_merge with
  | Some (Ir.G1, op) -> c.Ctx.g1 <- merge_value op c.Ctx.g1 c.Ctx.state.(meta)
  | Some (Ir.G2, op) -> c.Ctx.g2 <- merge_value op c.Ctx.g2 c.Ctx.state.(meta)
  | None -> ());
  (match r.r_combine with
  | Some op -> c.Ctx.g1 <- merge_value op c.Ctx.g1 c.Ctx.g2
  | None -> ());
  let passes =
    match r.r_guard with
    | None -> true
    | Some (target, op, value) ->
        let v =
          match target with
          | Ir.On_state -> c.Ctx.state.(meta)
          | Ir.On_g1 -> c.Ctx.g1
          | Ir.On_g2 -> c.Ctx.g2
        in
        cmp_holds op v value
  in
  if not passes then begin
    c.Ctx.stopped <- true;
    t.tally.guard_stops <- t.tally.guard_stops + 1
  end
  else if r.r_report then emit t inst c r.r_keys w rows base

(* [Ctx.reset], in-module. *)
let[@inline] reset_ctx (c : Ctx.t) =
  c.Ctx.hash.(0) <- 0;
  c.Ctx.hash.(1) <- 0;
  c.Ctx.state.(0) <- 0;
  c.Ctx.state.(1) <- 0;
  c.Ctx.g1 <- 0;
  c.Ctx.g2 <- 0;
  c.Ctx.stopped <- false

(* Every bit of the [nwords]-word need-mask at [off] in [need] is set
   in [hits]: one [land] unless more than [atoms_per_word] atoms are
   hosted. *)
let[@inline] needs_met (hits : int array) (need : int array) off nwords =
  let k = ref 0 in
  while
    !k < nwords
    && (let m = Array.unsafe_get need (off + !k) in
        Array.unsafe_get hits !k land m = m)
  do
    incr k
  done;
  !k = nwords

(* The one slot executor: run the packet whose row starts at byte [base]
   of [rows] through [inst]'s compiled branches, reading the row in
   place and writing nothing to it; [classify] has run on the packet.
   The first matching branch rolls the instance's window.
   Branch 0 runs on [ctx0] — scratch reset on first use when [fresh],
   otherwise the caller's context used as is (CQE may have restored it
   from an SP header); a guard stop there ends the packet for this
   instance.  Other branches process disjoint traffic and start fresh.
   Counter events accumulate in [t.tally]. *)
let step t inst ~fresh ctx0 rows base =
  let tl = t.tally in
  let hits = t.atom_hits in
  let nwords = Array.length hits in
  let branches = inst.branches in
  let nb = Array.length branches in
  let window = ref (-1) in (* -1 until the first matching branch *)
  let stopped0 = ref ((not fresh) && ctx0.Ctx.stopped) in
  let b = ref 0 in
  while !b < nb && not !stopped0 do
    let cb = Array.unsafe_get branches !b in
    if needs_met hits cb.cb_need 0 nwords then begin
      if !window < 0 then begin
        let w = Array.unsafe_get t.window_now inst.window_slot in
        window := w;
        if enter_window inst w then tl.rolls <- tl.rolls + 1
      end;
      let nslots = Array.length cb.cb_slots in
      if nslots > 0 then begin
        let c = if !b = 0 then ctx0 else inst.bctx in
        if fresh || !b > 0 then reset_ctx c;
        let si = ref 0 in
        while (not c.Ctx.stopped) && !si < nslots do
          (match Array.unsafe_get cb.cb_slots !si with
          | C_key { ck_off; ck_masks; ck_buf } ->
              tl.hits_k <- tl.hits_k + 1;
              for j = 0 to Array.length ck_off - 1 do
                Array.unsafe_set ck_buf j
                  (cell rows (base + Array.unsafe_get ck_off j)
                  land Array.unsafe_get ck_masks j)
              done
          | C_suite { meta; h; s; r } ->
              tl.hits_h <- tl.hits_h + 1;
              tl.hits_s <- tl.hits_s + 1;
              tl.hits_r <- tl.hits_r + 1;
              let hv = hash_value h in
              c.Ctx.hash.(meta) <- hv;
              c.Ctx.state.(meta) <- state_value s rows base hv;
              run_result t inst c meta r !window rows base
          | C_hash { meta; h } ->
              tl.hits_h <- tl.hits_h + 1;
              c.Ctx.hash.(meta) <- hash_value h
          | C_state { meta; s } ->
              tl.hits_s <- tl.hits_s + 1;
              c.Ctx.state.(meta) <- state_value s rows base c.Ctx.hash.(meta)
          | C_result { meta; r } ->
              tl.hits_r <- tl.hits_r + 1;
              run_result t inst c meta r !window rows base);
          incr si
        done;
        if !b = 0 then stopped0 := c.Ctx.stopped
      end
    end;
    incr b
  done

let[@inline] bump_nonzero sink key n = if n > 0 then Stats.bump sink key n

(* Fold the tallied counter events into the sink: once per driver call,
   or once per packet for the path executors. *)
let flush t =
  let tl = t.tally and sink = t.sink in
  bump_nonzero sink Stats.Module_hits_k tl.hits_k;
  bump_nonzero sink Stats.Module_hits_h tl.hits_h;
  bump_nonzero sink Stats.Module_hits_s tl.hits_s;
  bump_nonzero sink Stats.Module_hits_r tl.hits_r;
  bump_nonzero sink Stats.Guard_stops tl.guard_stops;
  bump_nonzero sink Stats.Reports_emitted tl.emitted;
  bump_nonzero sink Stats.Reports_deduped tl.deduped;
  bump_nonzero sink Stats.Reports_dropped tl.dropped;
  bump_nonzero sink Stats.Window_rolls tl.rolls;
  bump_nonzero sink Stats.Packets_processed tl.seen;
  bump_nonzero sink Stats.Cqe_hops tl.cqe_hops;
  bump_nonzero sink Stats.Sp_header_bytes tl.sp_header_bytes;
  bump_nonzero sink Stats.Software_continuations tl.continuations;
  tl.hits_k <- 0;
  tl.hits_h <- 0;
  tl.hits_s <- 0;
  tl.hits_r <- 0;
  tl.guard_stops <- 0;
  tl.emitted <- 0;
  tl.deduped <- 0;
  tl.dropped <- 0;
  tl.rolls <- 0;
  tl.seen <- 0;
  tl.cqe_hops <- 0;
  tl.sp_header_bytes <- 0;
  tl.continuations <- 0

(** Replay a flat arena through every device-level instance: classify
    each packet once, then step, in install order, each first-slice
    instance with a matching branch.  Non-first CQE slices install no
    newton_init entries, so classification never dispatches to them
    here. *)
let process_flat t flat =
  let n = Flat.length flat in
  if n > 0 then begin
    let rows = Flat.rows flat in
    let hits = t.atom_hits in
    let nwords = Array.length hits in
    let need = t.first_need and insts = t.first_inst and next = t.first_next in
    let nfirst = Array.length insts in
    for i = 0 to n - 1 do
      let base = i * Packet.size in
      classify t rows base;
      let j = ref 0 in
      while !j < nfirst do
        if needs_met hits need (!j * nwords) nwords then begin
          let inst = Array.unsafe_get insts !j in
          step t inst ~fresh:true inst.ctx0 rows base;
          j := Array.unsafe_get next !j
        end
        else incr j
      done
    done;
    t.packets_seen <- t.packets_seen + n;
    t.tally.seen <- t.tally.seen + n;
    flush t
  end

(** Process one packet through every device-level instance, where it
    lies: the packet is a one-row arena. *)
let process_packet t pkt = process_flat t (Flat.of_packet pkt)

(** Run the first packet of [row] through one instance, resuming from
    [ctx] (fresh or SP-restored); [ctx.stopped] is set if a guard
    stopped the packet.  [begin_packet] has classified the row.  Counter
    events stay in the tally until [flush]. *)
let process_slice t inst ~ctx row = step t inst ~fresh:false ctx (Flat.rows row) 0

(** Drain collected reports (e.g. per measurement interval). *)
let drain_reports t =
  let r = List.rev t.reports in
  t.reports <- [];
  r


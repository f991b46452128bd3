(** Per-switch query execution engine.

    Holds the query instances installed on one switch — each a slice of a
    compiled query's module chain (the whole chain for sole-switch
    execution, a stage range for CQE) — together with the register arrays
    their state banks own.  Packets are run through [newton_init]
    classification and then through each matching instance's slots in
    chain order; windowed state resets every [query.window] seconds as in
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

(* uid -> the instance [find_instance] answers, boxed once at install
   so a lookup returns it without allocating. *)
module Uid_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash u = u land max_int
end)

(* ---------------- compiled slots ----------------

   [install] compiles each hosted IR slot once: key fields become dense
   indices into a packet's field words with a reusable projection
   buffer, register arrays become direct references, constant ALUs are
   prebuilt, and each branch's newton_init entry becomes (index, value,
   mask) triples.  Every driver below runs this one program.

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
  | S_or1 of { arr : Register_array.t }                  (* Bloom bit: Alu.Or 1 *)
  | S_add of { arr : Register_array.t; k : int }         (* Alu.Add k *)
  | S_max of { arr : Register_array.t; k : int }         (* Alu.Max k *)
  | S_add_field of { arr : Register_array.t; fidx : int }
  | S_max_field of { arr : Register_array.t; fidx : int }
  | S_read of { arr : Register_array.t }
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
      ck_fidx : int array;   (* dense field indices *)
      ck_masks : int array;
      ck_buf : int array;    (* reused projection buffer *)
    }
  | C_hash of { meta : int; h : hpart }
  | C_state of { meta : int; s : spart }
  | C_result of { meta : int; r : rpart }
  | C_suite of { meta : int; h : hpart; s : spart; r : rpart }

type cbranch = {
  (* newton_init entry as parallel arrays (no per-check pointer chase) *)
  cbm_fidx : int array;
  cbm_value : int array;
  cbm_mask : int array;
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
  branches : cbranch array;        (** [slots], compiled *)
  ctx0 : Ctx.t;                    (** branch-0 scratch (device-level) *)
  bctx : Ctx.t;                    (** scratch for branches > 0 *)
}

(* Counter events of one driver call, folded into the sink at its end. *)
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
  by_uid : instance option Uid_tbl.t; (* first-installed instance per uid *)
  (* newton_init: ternary match over the 5-tuple + TCP flags (§4.1
     "Concurrency"), dispatching packets to instance/branch chains.
     Bounded like any hardware table: it models the classifier's
     capacity and size, while each instance's compiled branches carry
     the match itself. *)
  init_table : (int * int) Newton_dataplane.Table.t; (* (uid, branch) *)
  (* table entries per physical module cell (stage, kind, set); each
     cell is one hardware table of [Module_cost.rules_per_module]
     capacity — this is what bounds concurrent queries. *)
  cell_rules : (int * Newton_dataplane.Module_cost.kind * int, int) Hashtbl.t;
  (* Register arrays of removed instances by size, handed to the next
     install that needs one: like a switch's SRAM, register memory is
     reused rather than allocated per query, so churn leaves no major-
     heap allocation (and GC work) behind each install. *)
  spare_arrays : (int, Register_array.t list) Hashtbl.t;
  mutable reports : Report.t list; (* reverse order *)
  mutable report_count : int;
  mutable packets_seen : int;
  mutable next_uid : int;
  one : Flat.t; (* 1-slot arena the per-packet drivers run from *)
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
        emitted = 0; deduped = 0; dropped = 0; rolls = 0 };
    instances = [];
    by_uid = Uid_tbl.create 16;
    init_table =
      Newton_dataplane.Table.create ~capacity:1024 ~name:"newton_init"
        ~key_width:(List.length Ir.init_fields) ();
    cell_rules = Hashtbl.create 64;
    spare_arrays = Hashtbl.create 8;
    reports = [];
    report_count = 0;
    packets_seen = 0;
    next_uid = 1;
    one = Flat.create 1;
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
    path executor and the controller count each packet that runs a
    slice here once this way. *)
let record_packet_seen t =
  t.packets_seen <- t.packets_seen + 1;
  Stats.bump t.sink Stats.Packets_processed 1

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
  | Ir.S_bf -> S_or1 { arr = own_array () }
  | Ir.S_cm (Ir.Const k) -> S_add { arr = own_array (); k }
  | Ir.S_cm (Ir.Field_val f) -> S_add_field { arr = own_array (); fidx = Field.index f }
  | Ir.S_max (Ir.Const k) -> S_max { arr = own_array (); k }
  | Ir.S_max (Ir.Field_val f) -> S_max_field { arr = own_array (); fidx = Field.index f }
  | Ir.S_read { ar_branch; ar_prim; ar_suite } -> (
      (* Reads the sibling branch's array when hosted locally; a remote
         array (CQE slicing) reads as 0 — the state-dispersion
         limitation of §7, which NA071 warns of at admission. *)
      match Hashtbl.find_opt arrays (ar_branch, ar_prim, ar_suite) with
      | Some arr -> S_read { arr }
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
      let fidx =
        Array.of_list (List.map (fun (k : Ast.key) -> Field.index k.Ast.field) keys)
      in
      let masks = Array.of_list (List.map (fun (k : Ast.key) -> k.Ast.mask) keys) in
      C_key { ck_fidx = fidx; ck_masks = masks; ck_buf = Array.make (Array.length fidx) 0 }
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
  let ms = Array.of_list entry.Ir.ie_matches in
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
    cbm_fidx = Array.map (fun (f, _, _) -> Field.index f) ms;
    cbm_value = Array.map (fun (_, v, _) -> v) ms;
    cbm_mask = Array.map (fun (_, _, m) -> m) ms;
    cb_slots = Array.of_list (compile slots);
  }

(* A zeroed register array of [size]: a removed instance's if one is
   spare, a fresh one otherwise. *)
let take_array t size =
  match Hashtbl.find_opt t.spare_arrays size with
  | Some (arr :: rest) ->
      Hashtbl.replace t.spare_arrays size rest;
      Register_array.reset arr;
      arr
  | Some [] | None -> Register_array.create size

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
  let arrays = Hashtbl.create 16 in
  Array.iter
    (List.iter (fun s ->
         match s.Ir.cfg with
         | Ir.S_cfg { op = Ir.S_bf | Ir.S_cm _ | Ir.S_max _; registers } ->
             Hashtbl.replace arrays
               (s.Ir.branch, s.Ir.prim, s.Ir.suite)
               (take_array t registers)
         | _ -> ()))
    slots;
  let nrules =
    Array.fold_left (fun acc l -> acc + List.length l) 0 slots
    + if stage_lo = 0 then Array.length compiled.Compose.init_entries else 0
  in
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
  (* Atomic per-cell rule accounting: every hosted slot is one rule in
     the physical table of its (stage, kind, set) cell, which holds at
     most [Module_cost.rules_per_module] rules.  Check the whole batch
     before committing so a rejected install leaves no residue. *)
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
  (* newton_init entries: ternary over (5-tuple, TCP flags). *)
  if stage_lo = 0 then
    Array.iteri
      (fun b entry ->
        let matches =
          Array.of_list
            (List.map
               (fun field ->
                 match
                   List.find_opt
                     (fun (f, _, _) -> Field.equal f field)
                     entry.Ir.ie_matches
                 with
                 | Some (_, value, mask) -> Newton_dataplane.Table.Ternary { value; mask }
                 | None -> Newton_dataplane.Table.Any)
               Ir.init_fields)
        in
        ignore
          (Newton_dataplane.Table.add t.init_table ~priority:uid ~matches (uid, b)))
      compiled.Compose.init_entries;
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
      branches =
        Array.mapi
          (fun b -> compile_branch arrays compiled.Compose.init_entries.(b))
          slots;
      ctx0 = Ctx.create ();
      bctx = Ctx.create ();
    }
  in
  t.instances <- t.instances @ [ inst ];
  if not (Uid_tbl.mem t.by_uid uid) then Uid_tbl.add t.by_uid uid (Some inst);
  (uid, nrules)

(** Remove an instance; returns how many table entries were freed, or
    [None] if the uid is unknown. *)
let remove t uid =
  match List.find_opt (fun i -> i.uid = uid) t.instances with
  | None -> None
  | Some inst ->
      t.instances <- List.filter (fun i -> i.uid <> uid) t.instances;
      Uid_tbl.remove t.by_uid uid;
      Hashtbl.iter
        (fun _ arr ->
          let size = Register_array.size arr in
          Hashtbl.replace t.spare_arrays size
            (arr :: Option.value ~default:[] (Hashtbl.find_opt t.spare_arrays size)))
        inst.arrays;
      (* release the module-cell rules and the newton_init entries *)
      Array.iter
        (List.iter (fun s ->
             let cell = (s.Ir.stage, s.Ir.kind, s.Ir.meta) in
             match Hashtbl.find_opt t.cell_rules cell with
             | Some n when n > 1 -> Hashtbl.replace t.cell_rules cell (n - 1)
             | Some _ -> Hashtbl.remove t.cell_rules cell
             | None -> ()))
        inst.slots;
      List.iter
        (fun id -> ignore (Newton_dataplane.Table.remove t.init_table id))
        (Newton_dataplane.Table.find_ids t.init_table (fun (u, _) -> u = uid));
      Some inst.rules

(* The first-installed instance of [uid], as [List.find_opt] over
   [instances] would find it ([remove] drops every instance of a uid). *)
let find_instance t uid =
  match Uid_tbl.find t.by_uid uid with found -> found | exception Not_found -> None

let total_rules t = List.fold_left (fun acc i -> acc + i.rules) 0 t.instances

(** Entries currently in the [newton_init] classifier. *)
let init_table_size t = Newton_dataplane.Table.size t.init_table

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

(* Each instance keeps its own window clock: concurrent queries may use
   different window lengths (Ast.window). *)
let[@inline] window_of inst now = int_of_float (now /. inst.compiled.Compose.query.Ast.window)

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

let roll_instance_window t inst now =
  if enter_window inst (window_of inst now) then
    Stats.bump t.sink Stats.Window_rolls 1

(* Wrapper used by the path executor and the controller: rolls every
   instance of the engine.  Window lengths are per-instance
   ([query.window]); there is no per-call override. *)
let rec roll_windows t now = function
  | [] -> ()
  | inst :: rest ->
      roll_instance_window t inst now;
      roll_windows t now rest

let maybe_roll_window t now = roll_windows t now t.instances

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
   [w] the instance is in, then the mirror budget, then export. *)
let emit t inst (c : Ctx.t) keys w ts =
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
      Stats.observe_report_latency t.sink (ts -. (float_of_int w *. q.Ast.window))
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

(* [Alu.Add v]: the new value. *)
let[@inline] alu_add fn (arr : Register_array.t) idx v =
  count_op fn arr idx;
  let regs = arr.Register_array.regs in
  let r = Array.unsafe_get regs idx + v in
  Array.unsafe_set regs idx r;
  r

(* [Alu.Max v]: the new value. *)
let[@inline] alu_max fn (arr : Register_array.t) idx v =
  count_op fn arr idx;
  let regs = arr.Register_array.regs in
  let cur = Array.unsafe_get regs idx in
  let r = if v > cur then v else cur in
  Array.unsafe_set regs idx r;
  r

(* The state result of bank [s] indexed by the hash result [idx]. *)
let[@inline] state_value s (words : Packet.words) base idx =
  match s with
  | S_pass -> idx
  | S_or1 { arr } ->
      (* [Alu.Or 1]: the previous value *)
      count_op "exec" arr idx;
      let regs = arr.Register_array.regs in
      let prev = Array.unsafe_get regs idx in
      Array.unsafe_set regs idx (prev lor 1);
      prev
  | S_add { arr; k } -> alu_add "exec" arr idx k
  | S_max { arr; k } -> alu_max "exec" arr idx k
  | S_add_field { arr; fidx } ->
      alu_add "add" arr idx (Bigarray.Array1.unsafe_get words (base + fidx))
  | S_max_field { arr; fidx } ->
      alu_max "max" arr idx (Bigarray.Array1.unsafe_get words (base + fidx))
  | S_read { arr } ->
      if idx < 0 || idx >= arr.Register_array.size then read_error arr idx
      else Array.unsafe_get arr.Register_array.regs idx
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
let[@inline] run_result t inst (c : Ctx.t) meta r w ts =
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
  else if r.r_report then emit t inst c r.r_keys w ts

(* [Ctx.reset], in-module. *)
let[@inline] reset_ctx (c : Ctx.t) =
  c.Ctx.hash.(0) <- 0;
  c.Ctx.hash.(1) <- 0;
  c.Ctx.state.(0) <- 0;
  c.Ctx.state.(1) <- 0;
  c.Ctx.g1 <- 0;
  c.Ctx.g2 <- 0;
  c.Ctx.stopped <- false

(* The one slot executor: run the packet whose field words start at
   [base] in [words], with timestamp [tss.(i)], through [inst]'s compiled
   branches.  The first matching branch rolls the instance's window.
   Branch 0 runs on [ctx0] — scratch reset on first use when [fresh],
   otherwise the caller's context used as is (CQE may have restored it
   from an SP header); a guard stop there ends the packet for this
   instance.  Other branches process disjoint traffic and start fresh.
   Counter events accumulate in [t.tally].  [words] keeps its type
   annotation: a polymorphic Bigarray read would compile to a C call
   instead of a load.  The timestamp is read from the arena's float
   array here rather than passed in, so it is never boxed. *)
let step t inst ~fresh ctx0 (words : Packet.words) base (tss : float array) i =
  let ts = Array.unsafe_get tss i in
  let tl = t.tally in
  let branches = inst.branches in
  let nb = Array.length branches in
  let window = ref (-1) in (* -1 until the first matching branch *)
  let stopped0 = ref ((not fresh) && ctx0.Ctx.stopped) in
  let b = ref 0 in
  while !b < nb && not !stopped0 do
    let cb = Array.unsafe_get branches !b in
    (* newton_init entry check over the raw words *)
    let nm = Array.length cb.cbm_fidx in
    let j = ref 0 in
    while
      !j < nm
      && Bigarray.Array1.unsafe_get words (base + Array.unsafe_get cb.cbm_fidx !j)
         land Array.unsafe_get cb.cbm_mask !j
         = Array.unsafe_get cb.cbm_value !j
    do
      incr j
    done;
    if !j = nm then begin
      if !window < 0 then begin
        let w = window_of inst ts in
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
          | C_key { ck_fidx; ck_masks; ck_buf } ->
              tl.hits_k <- tl.hits_k + 1;
              for j = 0 to Array.length ck_fidx - 1 do
                Array.unsafe_set ck_buf j
                  (Bigarray.Array1.unsafe_get words (base + Array.unsafe_get ck_fidx j)
                  land Array.unsafe_get ck_masks j)
              done
          | C_suite { meta; h; s; r } ->
              tl.hits_h <- tl.hits_h + 1;
              tl.hits_s <- tl.hits_s + 1;
              tl.hits_r <- tl.hits_r + 1;
              let hv = hash_value h in
              c.Ctx.hash.(meta) <- hv;
              c.Ctx.state.(meta) <- state_value s words base hv;
              run_result t inst c meta r !window ts
          | C_hash { meta; h } ->
              tl.hits_h <- tl.hits_h + 1;
              c.Ctx.hash.(meta) <- hash_value h
          | C_state { meta; s } ->
              tl.hits_s <- tl.hits_s + 1;
              c.Ctx.state.(meta) <- state_value s words base c.Ctx.hash.(meta)
          | C_result { meta; r } ->
              tl.hits_r <- tl.hits_r + 1;
              run_result t inst c meta r !window ts);
          incr si
        done;
        if !b = 0 then stopped0 := c.Ctx.stopped
      end
    end;
    incr b
  done

let bump_nonzero sink key n = if n > 0 then Stats.bump sink key n

(* Fold the tallied counter events into the sink, once per driver call. *)
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
  tl.hits_k <- 0;
  tl.hits_h <- 0;
  tl.hits_s <- 0;
  tl.hits_r <- 0;
  tl.guard_stops <- 0;
  tl.emitted <- 0;
  tl.deduped <- 0;
  tl.dropped <- 0;
  tl.rolls <- 0

(* Packet [i] of an arena through every first-slice instance, in
   install order. *)
let rec step_first_slices t words base tss i = function
  | [] -> ()
  | inst :: rest ->
      if inst.stage_lo = 0 then step t inst ~fresh:true inst.ctx0 words base tss i;
      step_first_slices t words base tss i rest

(** Replay a flat arena through every device-level instance.  Non-first
    CQE slices install no newton_init entries, so classification never
    dispatches to them here. *)
let process_flat t flat =
  let n = Flat.length flat in
  if n > 0 then begin
    let words = Flat.field_words flat in
    let tss = Flat.timestamps flat in
    let stride = Flat.stride flat in
    for i = 0 to n - 1 do
      step_first_slices t words (i * stride) tss i t.instances
    done;
    t.packets_seen <- t.packets_seen + n;
    Stats.bump t.sink Stats.Packets_processed n;
    flush t
  end

(** Process one packet through every device-level instance. *)
let process_packet t pkt =
  Flat.set_packet t.one 0 pkt;
  process_flat t t.one

(** Process a packet through one instance, resuming from [ctx] (fresh or
    SP-restored).  Returns the context after the slice (for [newton_fin]);
    [ctx.stopped] is set if a guard stopped the packet. *)
let process_instance t inst ~ctx pkt =
  Flat.set_packet t.one 0 pkt;
  step t inst ~fresh:false ctx (Flat.field_words t.one) 0 (Flat.timestamps t.one) 0;
  flush t;
  ctx

(** Drain collected reports (e.g. per measurement interval). *)
let drain_reports t =
  let r = List.rev t.reports in
  t.reports <- [];
  r


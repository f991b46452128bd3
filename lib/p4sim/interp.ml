(** Interpreter for the emitted v1model subset.

    Executes a parsed {!P4ast.program} the way a v1model target would:
    parse the byte string into headers, run the ingress control's apply
    block (tables consult runtime-installed entries; register externs
    hit a word-addressed state file; [digest] collects report records),
    and loop on [recirculate_preserving_field_list] with user metadata
    cleared except the preserved field list.

    The extern semantics mirror the simulator's on purpose — the
    differential harness ({!Diff}) is only meaningful if
    [HashAlgorithm.crc32_custom] is the same seeded vector hash and
    [HashAlgorithm.identity] the same 30-bit packing fold the engine
    uses.  Both delegate to {!Newton_sketch.Hash} / the engine's
    direct-fold definition rather than re-implementing them. *)

open P4ast

exception Runtime_error of string
exception Install_error of string

let rt_fail fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt
let ins_fail fmt = Printf.ksprintf (fun m -> raise (Install_error m)) fmt

(** Passes a single packet may take through the pipeline; a pending
    bitmap that never drains past this is a rule-generation bug. *)
let max_passes = 32

let mask_of_width w = if w >= 62 then max_int else (1 lsl w) - 1
let m32 = 0xFFFFFFFF

(* ---------------- installed entries ---------------- *)

type emtch =
  | Exact_v of int
  | Tern_v of int * int  (* value, mask *)
  | Range_v of int * int  (* lo, hi inclusive *)

type installed = {
  im : emtch array;  (* aligned with the table's declared keys *)
  iaction : string;
  iparams : (string * int) list;
  iprio : int;
  iseq : int;  (* install order; earlier wins a priority tie *)
}

(* ---------------- the instance ---------------- *)

type t = {
  ingress : control;
  header_insts : (string, string) Hashtbl.t;  (* instance -> header type *)
  header_types : (string, header_type) Hashtbl.t;
  widths : (string, int) Hashtbl.t;  (* dotted path -> declared bit width *)
  preserved : string list;  (* metadata paths in @field_list(1) *)
  registers : (string, int array) Hashtbl.t;
  actions : (string, action) Hashtbl.t;
  tables : (string, table) Hashtbl.t;
  entries : (string, installed list ref) Hashtbl.t;
  mutable seq : int;
  mutable last_passes : int;  (* pipeline passes of the last run packet *)
  states : (string, pstate) Hashtbl.t;
}

let create prog =
  let ingress =
    match List.find_opt (fun c -> c.c_tables <> []) prog.controls with
    | Some c -> c
    | None -> rt_fail "program has no control with tables"
  in
  let header_types = Hashtbl.create 32 in
  List.iter (fun h -> Hashtbl.replace header_types h.h_name h) prog.header_types;
  let header_insts = Hashtbl.create 32 in
  let widths = Hashtbl.create 256 in
  let preserved = ref [] in
  List.iter
    (fun s ->
      (* emission convention: [headers_t] is bound as [hdr], the
         metadata struct as [meta] *)
      let prefix = if s.s_name = "headers_t" then "hdr" else "meta" in
      List.iter
        (fun f ->
          match f.sf_type with
          | `Bit w ->
              let path = prefix ^ "." ^ f.sf_name in
              Hashtbl.replace widths path w;
              if List.mem 1 f.sf_field_lists then preserved := path :: !preserved
          | `Named ty ->
              Hashtbl.replace header_insts f.sf_name ty;
              (match Hashtbl.find_opt header_types ty with
              | Some h ->
                  List.iter
                    (fun (fname, w) ->
                      Hashtbl.replace widths
                        (Printf.sprintf "%s.%s.%s" prefix f.sf_name fname)
                        w)
                    h.h_fields
              | None -> ()))
        s.s_fields)
    prog.structs;
  let registers = Hashtbl.create 4 in
  List.iter
    (fun (name, n) -> Hashtbl.replace registers name (Array.make n 0))
    ingress.c_registers;
  let actions = Hashtbl.create 1024 in
  List.iter (fun a -> Hashtbl.replace actions a.a_name a) ingress.c_actions;
  let tables = Hashtbl.create 256 in
  let entries = Hashtbl.create 256 in
  List.iter
    (fun tbl ->
      Hashtbl.replace tables tbl.t_name tbl;
      Hashtbl.replace entries tbl.t_name (ref []))
    ingress.c_tables;
  let states = Hashtbl.create 32 in
  List.iter (fun st -> Hashtbl.replace states st.ps_name st) prog.parser_states;
  {
    ingress;
    header_insts;
    header_types;
    widths;
    preserved = !preserved;
    registers;
    actions;
    tables;
    entries;
    seq = 0;
    last_passes = 0;
    states;
  }

(* ---------------- rule installation ---------------- *)

let key_name = function
  | Ref path -> path_to_string path
  | e ->
      ins_fail "table key is not a field reference (%s)"
        (match e with Int v -> string_of_int v | _ -> "<expr>")

let param_int table (name, s) =
  match int_of_string_opt s with
  | Some v -> (name, v)
  | None -> ins_fail "table %s: parameter %s=%S is not an integer" table name s

let align_match table key kind (matches : Newton_p4gen.Rules.mtch list) =
  let found =
    List.find_opt
      (function
        | Newton_p4gen.Rules.M_exact (f, _)
        | M_ternary (f, _, _)
        | M_range (f, _, _) -> f = key)
      matches
  in
  match kind, found with
  | Exact, Some (M_exact (_, v)) -> Exact_v v
  | Exact, Some _ -> ins_fail "table %s: key %s needs an exact match" table key
  | Exact, None -> ins_fail "table %s: no match given for exact key %s" table key
  | Ternary, Some (M_ternary (_, v, m)) -> Tern_v (v, m)
  | Ternary, Some (M_exact (_, v)) -> Tern_v (v, m32)
  | Ternary, Some _ -> ins_fail "table %s: key %s needs a ternary match" table key
  | Ternary, None -> Tern_v (0, 0)  (* unconstrained *)
  | Range, Some (M_range (_, lo, hi)) -> Range_v (lo, hi)
  | Range, Some (M_exact (_, v)) -> Range_v (v, v)
  | Range, Some _ -> ins_fail "table %s: key %s needs a range match" table key
  | Range, None -> Range_v (0, max_int)  (* unconstrained *)

let install t (rules : Newton_p4gen.Rules.entry list) =
  List.iter
    (fun (e : Newton_p4gen.Rules.entry) ->
      match Hashtbl.find_opt t.tables e.table with
      | None -> ins_fail "no such table: %s" e.table
      | Some tbl ->
          if not (List.mem e.action tbl.t_actions) then
            ins_fail "table %s has no action %s" e.table e.action;
          let cell = Hashtbl.find t.entries e.table in
          (match tbl.t_size with
          | Some size when List.compare_length_with !cell size >= 0 ->
              ins_fail "table %s holds more entries than its size %d" e.table size
          | _ -> ());
          let im =
            Array.of_list
              (List.map
                 (fun (kexpr, kind) ->
                   align_match e.table (key_name kexpr) kind e.matches)
                 tbl.t_keys)
          in
          let inst =
            {
              im;
              iaction = e.action;
              iparams = List.map (param_int e.table) e.params;
              iprio = e.priority;
              iseq = t.seq;
            }
          in
          t.seq <- t.seq + 1;
          cell := inst :: !cell)
    rules

let clear_state t =
  Hashtbl.iter (fun _ arr -> Array.fill arr 0 (Array.length arr) 0) t.registers

(* ---------------- per-pass environment ---------------- *)

type env = {
  vals : (string, int) Hashtbl.t;
  valid : (string, bool) Hashtbl.t;
  mutable locals : (string, int ref * int) Hashtbl.t;
  mutable digests : int array list;  (* reversed *)
  mutable recirc : bool;
}

let fresh_env () =
  {
    vals = Hashtbl.create 512;
    valid = Hashtbl.create 32;
    locals = Hashtbl.create 8;
    digests = [];
    recirc = false;
  }

let get_val env path =
  Option.value (Hashtbl.find_opt env.vals path) ~default:0

let set_path t env path v =
  match path with
  | [ name ] when Hashtbl.mem env.locals name ->
      let cell, w = Hashtbl.find env.locals name in
      cell := v land mask_of_width w
  | _ ->
      let key = path_to_string path in
      let w =
        Option.value (Hashtbl.find_opt t.widths key) ~default:62
      in
      Hashtbl.replace env.vals key (v land mask_of_width w)

(* ---------------- expression evaluation ---------------- *)

let bool_int b = if b then 1 else 0

let rec eval t env = function
  | Int v -> v
  | Ref [ name ] when Hashtbl.mem env.locals name ->
      !(fst (Hashtbl.find env.locals name))
  | Ref path -> get_val env (path_to_string path)
  | Cast (w, e) -> eval t env e land mask_of_width w
  | Is_valid path -> (
      match path with
      | _ :: inst :: _ ->
          bool_int (Option.value (Hashtbl.find_opt env.valid inst) ~default:false)
      | _ -> 0)
  | Cond (c, a, b) -> if eval t env c <> 0 then eval t env a else eval t env b
  | Tuple _ -> rt_fail "tuple outside an extern argument position"
  | Binop (op, a, b) ->
      let x = eval t env a in
      let y = eval t env b in
      (* all emitted arithmetic is bit<32>: wrap there, or saturate *)
      (match op with
      | Add -> (x + y) land m32
      | Sat_add -> if x + y > m32 then m32 else x + y
      | Sub -> (x - y) land m32
      | Shl -> (x lsl y) land m32
      | Shr -> x lsr y
      | Band -> x land y
      | Bor -> x lor y
      | Bxor -> x lxor y
      | Eq -> bool_int (x = y)
      | Ne -> bool_int (x <> y)
      | Lt -> bool_int (x < y)
      | Gt -> bool_int (x > y)
      | Le -> bool_int (x <= y)
      | Ge -> bool_int (x >= y)
      | Land -> bool_int (x <> 0 && y <> 0)
      | Lor -> bool_int (x <> 0 || y <> 0))

(* ---------------- hash externs ---------------- *)

(* Decode the key-descriptor convention: 12 x 5-bit codes, code 0
   terminates, code c selects tuple element c (= field index c-1's key
   copy, which rides at tuple position 1 + (c-1)). *)
let described_keys desc (tuple : int array) =
  let rec go pos acc =
    if pos >= Newton_p4gen.Emit.desc_positions then List.rev acc
    else
      let code = (desc lsr (5 * pos)) land 0x1F in
      if code = 0 then List.rev acc
      else if code >= Array.length tuple then
        rt_fail "hash descriptor code %d outside tuple" code
      else go (pos + 1) (tuple.(code) :: acc)
  in
  Array.of_list (go 0 [])

(* The engine's direct (packing) mode, bit for bit. *)
let direct_value keys =
  match Array.length keys with
  | 0 -> 0
  | 1 -> keys.(0)
  | _ ->
      Array.fold_left
        (fun acc v -> ((acc lsl 16) lxor v) land 0x3FFFFFFF)
        0 keys

let exec_hash t env args =
  match args with
  | [ Ref dst; Ref algo; seed_e; Tuple input; range_e ] ->
      let tuple = Array.of_list (List.map (eval t env) input) in
      if Array.length tuple = 0 then rt_fail "empty hash input tuple";
      let keys = described_keys tuple.(0) tuple in
      let value =
        match List.rev algo with
        | "crc32_custom" :: _ ->
            let seed = eval t env seed_e in
            let range = eval t env range_e in
            let h = Newton_sketch.Hash.hash_vector ~seed keys in
            if range > 0 then h mod range else h
        | "identity" :: _ -> direct_value keys
        | a :: _ -> rt_fail "unknown hash algorithm %s" a
        | [] -> rt_fail "hash call without an algorithm"
      in
      set_path t env dst value
  | _ -> rt_fail "malformed hash() call"

(* ---------------- statements / actions / tables ---------------- *)

let match_hits keys im =
  let n = Array.length keys in
  Array.length im = n
  && (let ok = ref true in
      for i = 0 to n - 1 do
        (match im.(i) with
        | Exact_v v -> if keys.(i) <> v then ok := false
        | Tern_v (v, m) -> if keys.(i) land m <> v then ok := false
        | Range_v (lo, hi) -> if keys.(i) < lo || keys.(i) > hi then ok := false)
      done;
      !ok)

let lookup t env tbl =
  let keys = Array.of_list (List.map (fun (e, _) -> eval t env e) tbl.t_keys) in
  let candidates =
    List.filter (fun e -> match_hits keys e.im)
      !(Hashtbl.find t.entries tbl.t_name)
  in
  List.fold_left
    (fun best e ->
      match best with
      | None -> Some e
      | Some b ->
          if e.iprio > b.iprio || (e.iprio = b.iprio && e.iseq < b.iseq) then
            Some e
          else best)
    None candidates

let rec exec_stmt t env = function
  | Decl { width; name; init } ->
      let v = match init with Some e -> eval t env e | None -> 0 in
      Hashtbl.replace env.locals name (ref (v land mask_of_width width), width)
  | Assign (path, e) -> set_path t env path (eval t env e)
  | If (c, then_, else_) ->
      exec_stmts t env (if eval t env c <> 0 then then_ else else_)
  | Call { path; generic; args } -> (
      match path, generic with
      | [ "hash" ], _ -> exec_hash t env args
      | [ "digest" ], Some _ -> (
          match args with
          | [ _receiver; Tuple fields ] ->
              env.digests <-
                Array.of_list (List.map (eval t env) fields) :: env.digests
          | _ -> rt_fail "malformed digest() call")
      | [ "recirculate_preserving_field_list" ], _ -> env.recirc <- true
      | [ "NoAction" ], _ | [ "mark_to_drop" ], _ -> ()
      | [ reg; "read" ], _ when Hashtbl.mem t.registers reg -> (
          match args with
          | [ Ref dst; idx_e ] ->
              let arr = Hashtbl.find t.registers reg in
              let idx = eval t env idx_e in
              if idx < 0 || idx >= Array.length arr then
                rt_fail "%s.read: index %d outside %d words" reg idx
                  (Array.length arr);
              set_path t env dst arr.(idx)
          | _ -> rt_fail "malformed %s.read call" reg)
      | [ reg; "write" ], _ when Hashtbl.mem t.registers reg -> (
          match args with
          | [ idx_e; val_e ] ->
              let arr = Hashtbl.find t.registers reg in
              let idx = eval t env idx_e in
              if idx < 0 || idx >= Array.length arr then
                rt_fail "%s.write: index %d outside %d words" reg idx
                  (Array.length arr);
              arr.(idx) <- eval t env val_e land m32
          | _ -> rt_fail "malformed %s.write call" reg)
      | [ tname; "apply" ], _ when Hashtbl.mem t.tables tname ->
          apply_table t env (Hashtbl.find t.tables tname)
      | _ :: rest, _ when List.mem "setValid" rest || List.mem "setInvalid" rest
        -> (
          match path with
          | _ :: inst :: _ ->
              Hashtbl.replace env.valid inst (List.mem "setValid" rest)
          | _ -> ())
      | _ -> rt_fail "unknown call %s" (path_to_string path))

and exec_stmts t env stmts = List.iter (exec_stmt t env) stmts

and run_action t env name params =
  if name = "NoAction" then ()
  else
    match Hashtbl.find_opt t.actions name with
    | None -> rt_fail "unknown action %s" name
    | Some a ->
        let saved = env.locals in
        env.locals <- Hashtbl.create 8;
        List.iter
          (fun (pname, w) ->
            let v =
              match List.assoc_opt pname params with
              | Some v -> v
              | None -> rt_fail "action %s: missing parameter %s" name pname
            in
            Hashtbl.replace env.locals pname (ref (v land mask_of_width w), w))
          a.a_params;
        exec_stmts t env a.a_body;
        env.locals <- saved

and apply_table t env tbl =
  match lookup t env tbl with
  | Some e -> run_action t env e.iaction e.iparams
  | None -> run_action t env tbl.t_default []

(* ---------------- parser execution ---------------- *)

(* MSB-first bit cursor over the frame bytes. *)
let read_bits bytes pos n =
  let v = ref 0 in
  for _ = 1 to n do
    let byte = Char.code bytes.[!pos lsr 3] in
    let bit = (byte lsr (7 - (!pos land 7))) land 1 in
    v := (!v lsl 1) lor bit;
    incr pos
  done;
  !v

let pat_matches pats keys =
  List.for_all2
    (fun p k -> match p with P_any -> true | P_int v -> v = k)
    pats keys

let parse_packet t env bytes =
  let bitlen = 8 * String.length bytes in
  let pos = ref 0 in
  let rec go name =
    match Hashtbl.find_opt t.states name with
    | None -> ()  (* accept *)
    | Some st ->
        let short = ref false in
        List.iter
          (fun hdr_path ->
            if not !short then
              match hdr_path with
              | [ _; inst ] -> (
                  match
                    Option.bind
                      (Hashtbl.find_opt t.header_insts inst)
                      (Hashtbl.find_opt t.header_types)
                  with
                  | None -> rt_fail "extract of unknown header %s" inst
                  | Some ht ->
                      let total =
                        List.fold_left (fun a (_, w) -> a + w) 0 ht.h_fields
                      in
                      if !pos + total > bitlen then
                        (* truncated packet: stop parsing, leave invalid *)
                        short := true
                      else begin
                        List.iter
                          (fun (fname, w) ->
                            Hashtbl.replace env.vals
                              (Printf.sprintf "hdr.%s.%s" inst fname)
                              (read_bits bytes pos w))
                          ht.h_fields;
                        Hashtbl.replace env.valid inst true
                      end)
              | p -> rt_fail "unsupported extract target %s" (path_to_string p))
          st.ps_extracts;
        if not !short then
          match st.ps_transition with
          | T_accept -> ()
          | T_direct next -> go next
          | T_select (keys, cases) -> (
              let kv = List.map (eval t env) keys in
              match
                List.find_opt (fun (pats, _) -> pat_matches pats kv) cases
              with
              | Some (_, target) -> if target <> "accept" then go target
              | None -> ())
  in
  go "start"

(* ---------------- packet execution ---------------- *)

(** Run one packet (as Ethernet frame bytes) through the pipeline,
    following recirculations; returns the digest records emitted, in
    order.  Each digest is the evaluated field tuple of the emitted
    [newton_report_t]. *)
let run t ?(ingress_port = 0) bytes =
  let digests = ref [] in
  let preserved = ref [] in
  let passes = ref 0 in
  let continue = ref true in
  while !continue do
    if !passes >= max_passes then
      rt_fail "recirculation did not converge after %d passes" max_passes;
    let env = fresh_env () in
    Hashtbl.replace env.vals "std_meta.ingress_port" ingress_port;
    (* v1model: 0 = normal, 4 = recirculated instance *)
    Hashtbl.replace env.vals "std_meta.instance_type"
      (if !passes = 0 then 0 else 4);
    List.iter (fun (p, v) -> Hashtbl.replace env.vals p v) !preserved;
    parse_packet t env bytes;
    exec_stmts t env t.ingress.c_apply;
    digests := List.rev_append env.digests !digests;
    if env.recirc then
      preserved := List.map (fun p -> (p, get_val env p)) t.preserved
    else continue := false;
    incr passes
  done;
  t.last_passes <- !passes;
  List.rev !digests

(** Pipeline passes (1 + recirculations) the most recent {!run} packet
    took; 0 before any run. *)
let last_passes t = t.last_passes

(** Field-width and mask validity (NA010–NA015).

    Every key and field predicate carries a mask; the data plane
    silently truncates values to the field width and packs multi-field
    equality filters into a 30-bit word ({!Decompose.pack_values}).
    This pass rejects masks/values that cannot mean what was written,
    warns when the packed comparison loses bits, and warns when a
    protocol-dependent field (ICMP type/code) is used without pinning
    the protocol — the decoder leaves such fields zero on other
    traffic, so the match silently includes non-ICMP packets. *)

open Newton_query
open Newton_packet

let name = "width"
let doc =
  "field widths, masks, comparison values, packed-filter width, \
   protocol-dependent fields"
let codes = [ "NA010"; "NA011"; "NA012"; "NA013"; "NA014"; "NA015" ]

(* Bits needed to represent [mask] (position of its highest set bit + 1). *)
let mask_bits mask =
  let rec go n v = if v = 0 then n else go (n + 1) (v lsr 1) in
  go 0 mask

let check_key ~query ~span { Ast.field; mask } =
  let fm = Field.full_mask field in
  if mask land lnot fm <> 0 then
    [
      Diag.make ~code:"NA010" ~severity:Diag.Error ~span ~query
        ~hint:(Printf.sprintf "%s is %d bits wide (mask <= 0x%x)"
                 (Field.to_string field) (Field.width field) fm)
        (Printf.sprintf "mask 0x%x wider than field %s" mask
           (Field.to_string field));
    ]
  else if mask = 0 then
    [
      Diag.make ~code:"NA011" ~severity:Diag.Error ~span ~query
        ~hint:"a zero mask matches every packet and keys every flow together"
        (Printf.sprintf "zero mask on field %s" (Field.to_string field));
    ]
  else []

let check_pred ~query ~span = function
  | Ast.Result_cmp _ -> []
  | Ast.Cmp { field; mask; op; value } ->
      let fm = Field.full_mask field in
      let key_diags = check_key ~query ~span { Ast.field; mask } in
      let value_diags =
        if value land lnot fm <> 0 then
          [
            Diag.make ~code:"NA012" ~severity:Diag.Error ~span ~query
              ~hint:(Printf.sprintf "%s holds values up to %d"
                       (Field.to_string field) fm)
              (Printf.sprintf "comparison value %d exceeds the %d-bit width of %s"
                 value (Field.width field) (Field.to_string field));
          ]
        else if
          op = Ast.Eq && mask <> 0 && mask land lnot fm = 0
          && value land mask <> value
        then
          [
            Diag.make ~code:"NA013" ~severity:Diag.Error ~span ~query
              ~hint:(Printf.sprintf "the hardware compares (pkt & 0x%x); write %d"
                       mask (value land mask))
              (Printf.sprintf
                 "equality value %d has bits outside mask 0x%x — the match \
                  silently tests %d"
                 value mask (value land mask));
          ]
        else []
      in
      key_diags @ value_diags

let check_packed ~query ~span preds =
  let eqs =
    List.filter_map
      (function
        | Ast.Cmp { mask; op = Ast.Eq; _ } -> Some (mask_bits mask)
        | _ -> None)
      preds
  in
  let total = List.fold_left ( + ) 0 eqs in
  if List.length eqs >= 2 && total > 30 then
    [
      Diag.make ~code:"NA014" ~severity:Diag.Warning ~span ~query
        ~hint:"split the filter or mask fields down to 30 significant bits"
        (Printf.sprintf
           "multi-field equality filter packs %d significant bits into a \
            30-bit comparison — matches may collide"
           total);
    ]
  else []

(* NA015: ICMP type/code is only populated when the packet is ICMP or
   ICMPv6; a branch using those fields without an equality predicate
   pinning [Proto] to one of the ICMP protocols silently matches the
   zero type/code the decoder leaves on every other packet. *)
let icmp_protos = [ Field.Protocol.icmp; Field.Protocol.icmpv6 ]

let branch_pins_icmp prims =
  List.exists
    (function
      | Ast.Filter preds ->
          List.exists
            (function
              | Ast.Cmp { field = Field.Proto; op = Ast.Eq; mask; value } ->
                  List.mem (value land mask) icmp_protos
              | _ -> false)
            preds
      | _ -> false)
    prims

let check_icmp_fields ~query b prims =
  if branch_pins_icmp prims then []
  else
    List.concat
      (List.mapi
         (fun p prim ->
           let span = Diag.Prim { branch = b; prim = p } in
           let used_fields =
             match prim with
             | Ast.Filter preds ->
                 List.filter_map
                   (function
                     | Ast.Cmp { field; _ } -> Some field
                     | Ast.Result_cmp _ -> None)
                   preds
             | Ast.Map keys | Ast.Distinct keys ->
                 List.map (fun { Ast.field; _ } -> field) keys
             | Ast.Reduce { keys; _ } ->
                 List.map (fun { Ast.field; _ } -> field) keys
           in
           List.filter_map
             (function
               | (Field.Icmp_type | Field.Icmp_code) as f ->
                   Some
                     (Diag.make ~code:"NA015" ~severity:Diag.Warning ~span
                        ~query
                        ~hint:
                          (Printf.sprintf
                             "add a filter like pkt.proto == %d (icmp) or \
                              pkt.proto == %d (icmpv6)"
                             Field.Protocol.icmp Field.Protocol.icmpv6)
                        (Printf.sprintf
                           "%s used without restricting pkt.proto to \
                            ICMP/ICMPv6 — the field is zero on other traffic"
                           (Field.to_string f)))
               | _ -> None)
             used_fields)
         prims)

let run (ctx : Pass.ctx) =
  let query = ctx.Pass.query in
  let icmp_diags =
    List.concat
      (List.mapi (fun b prims -> check_icmp_fields ~query b prims)
         query.Ast.branches)
  in
  icmp_diags
  @ List.concat
    (List.mapi
       (fun b prims ->
         List.concat
           (List.mapi
              (fun p prim ->
                let span = Diag.Prim { branch = b; prim = p } in
                match prim with
                | Ast.Filter preds ->
                    let per_pred =
                      List.concat_map (check_pred ~query ~span) preds
                    in
                    (* Absorbed front filters never reach the packed
                       comparison path — newton_init matches ternary. *)
                    let packed =
                      if p = 0 && Pass.absorbed ctx b then []
                      else check_packed ~query ~span preds
                    in
                    per_pred @ packed
                | Ast.Map keys | Ast.Distinct keys ->
                    List.concat_map (check_key ~query ~span) keys
                | Ast.Reduce { keys; _ } ->
                    List.concat_map (check_key ~query ~span) keys)
              prims))
       query.Ast.branches)

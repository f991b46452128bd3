(** Aligned plain-text table rendering for the benchmark harness.

    Every figure/table reproduction prints its rows through this module so
    the bench output reads like the paper's tables. *)

type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reverse order *)
}

let create ?aligns headers =
  let aligns =
    match aligns with
    | Some a ->
        if List.length a <> List.length headers then
          invalid_arg "Tablefmt.create: aligns/headers length mismatch";
        a
    | None -> List.map (fun _ -> Right) headers
  in
  { headers; aligns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Tablefmt.add_row: cell count mismatch";
  t.rows <- cells :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row)
    all;
  let pad align width s =
    let n = width - String.length s in
    if n <= 0 then s
    else match align with Left -> s ^ String.make n ' ' | Right -> String.make n ' ' ^ s
  in
  let render_row row =
    List.mapi (fun i c -> pad (List.nth t.aligns i) widths.(i) c) row
    |> String.concat "  "
  in
  let sep =
    Array.to_list widths |> List.map (fun w -> String.make w '-') |> String.concat "  "
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row t.headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print t = print_string (render t)

(** Write the table as a gnuplot-friendly .dat file: a commented header
    line, then tab-separated rows. *)
let write_dat t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc ("# " ^ String.concat "\t" t.headers ^ "\n");
      List.iter
        (fun row -> output_string oc (String.concat "\t" row ^ "\n"))
        (List.rev t.rows))

(** Section banner used between experiments in bench output. *)
let banner title =
  let line = String.make (String.length title + 8) '=' in
  Printf.printf "\n%s\n==  %s  ==\n%s\n" line title line

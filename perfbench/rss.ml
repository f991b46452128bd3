(** Peak resident set size of the current process. *)

(** The [VmHWM] line of a [/proc/<pid>/status] text, in kB. *)
let parse_vmhwm text =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = "VmHWM" -> (
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          match String.split_on_char ' ' (String.trim rest) with
          | n :: _ -> int_of_string_opt n
          | [] -> None)
      | _ -> None)
    (String.split_on_char '\n' text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(** Peak RSS in MB (2^20 bytes), from [/proc/self/status]. *)
let peak_mb () =
  match parse_vmhwm (read_file "/proc/self/status") with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "VmHWM missing from /proc/self/status"

(** Per-packet, per-query execution context.

    Mirrors the PHV metadata of the compact module layout (§4.2): two
    metadata sets — hash result, state result — plus the global result
    that R modules merge into.  [g2] is the second accumulator combine
    read-backs use within a single R rule.  A set's operation keys are
    not here: the engine binds each H and R slot to its K slot's key
    buffer at install, as a switch fixes their PHV place at compile
    time.

    Cross-switch execution serialises the context into the 12-byte SP
    header ({!Newton_packet.Sp_header}) and restores it at the next
    Newton-enabled switch; operation keys are not carried — the next
    switch's K modules re-select them from the packet itself. *)

open Newton_packet

type t = {
  mutable hash : int array;          (* [2] *)
  mutable state : int array;         (* [2] *)
  mutable g1 : int;
  mutable g2 : int;
  mutable stopped : bool;
}

let create () =
  {
    hash = [| 0; 0 |];
    state = [| 0; 0 |];
    g1 = 0;
    g2 = 0;
    stopped = false;
  }

(* In place: the engine resets a scratch context per packet. *)
let reset t =
  t.hash.(0) <- 0;
  t.hash.(1) <- 0;
  t.state.(0) <- 0;
  t.state.(1) <- 0;
  t.g1 <- 0;
  t.g2 <- 0;
  t.stopped <- false

(** Snapshot the context into an SP header (the [newton_fin] action). *)
let to_sp t =
  Sp_header.make ~hash1:t.hash.(0) ~state1:t.state.(0) ~hash2:t.hash.(1)
    ~state2:t.state.(1) ~global:t.g1

(** The context the next switch's parser restores, in place: the result
    sets saturated to the SP header's field widths, [g2] dropped (it
    does not cross switches), [stopped] kept.  Equal to
    [of_sp (Sp_header.decode (Sp_header.encode (to_sp t)))] with
    [stopped] carried over, without building the header. *)
let apply_sp_widths t =
  t.hash.(0) <- Sp_header.sat16 t.hash.(0);
  t.hash.(1) <- Sp_header.sat16 t.hash.(1);
  t.state.(0) <- Sp_header.sat24 t.state.(0);
  t.state.(1) <- Sp_header.sat24 t.state.(1);
  t.g1 <- Sp_header.sat16 t.g1;
  t.g2 <- 0

(** Restore result sets from a decoded SP header (the parser path). *)
let of_sp sp =
  let t = create () in
  t.hash.(0) <- sp.Sp_header.hash1;
  t.state.(0) <- sp.Sp_header.state1;
  t.hash.(1) <- sp.Sp_header.hash2;
  t.state.(1) <- sp.Sp_header.state2;
  t.g1 <- sp.Sp_header.global;
  t

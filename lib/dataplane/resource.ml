(** Data-plane resource vectors.

    An RMT-style switch stage offers seven resource types (the columns of
    the paper's Table 3): match crossbar input bits, SRAM blocks, TCAM
    blocks, VLIW action slots, hash bits, stateful ALUs and gateways
    (predication units for if/else in the control flow).  Tables, register
    arrays and control-flow logic each consume a vector of these; a stage
    can host a set of components only if their summed vector fits the
    stage budget. *)

type t = {
  crossbar : float;  (** match-input crossbar bits *)
  sram : float;      (** SRAM blocks *)
  tcam : float;      (** TCAM blocks *)
  vliw : float;      (** VLIW action-instruction slots *)
  hash_bits : float; (** hash-distribution-unit bits *)
  salu : float;      (** stateful ALUs *)
  gateway : float;   (** gateway (predication) units *)
}

let zero =
  { crossbar = 0.; sram = 0.; tcam = 0.; vliw = 0.; hash_bits = 0.; salu = 0.; gateway = 0. }

let make ?(crossbar = 0.) ?(sram = 0.) ?(tcam = 0.) ?(vliw = 0.) ?(hash_bits = 0.)
    ?(salu = 0.) ?(gateway = 0.) () =
  { crossbar; sram; tcam; vliw; hash_bits; salu; gateway }

let add a b =
  {
    crossbar = a.crossbar +. b.crossbar;
    sram = a.sram +. b.sram;
    tcam = a.tcam +. b.tcam;
    vliw = a.vliw +. b.vliw;
    hash_bits = a.hash_bits +. b.hash_bits;
    salu = a.salu +. b.salu;
    gateway = a.gateway +. b.gateway;
  }

let sub a b =
  {
    crossbar = a.crossbar -. b.crossbar;
    sram = a.sram -. b.sram;
    tcam = a.tcam -. b.tcam;
    vliw = a.vliw -. b.vliw;
    hash_bits = a.hash_bits -. b.hash_bits;
    salu = a.salu -. b.salu;
    gateway = a.gateway -. b.gateway;
  }

let scale a k =
  {
    crossbar = a.crossbar *. k;
    sram = a.sram *. k;
    tcam = a.tcam *. k;
    vliw = a.vliw *. k;
    hash_bits = a.hash_bits *. k;
    salu = a.salu *. k;
    gateway = a.gateway *. k;
  }

let sum = List.fold_left add zero

(** [fits used budget] — componentwise [used <= budget] (with epsilon). *)
let fits used budget =
  let eps = 1e-9 in
  used.crossbar <= budget.crossbar +. eps
  && used.sram <= budget.sram +. eps
  && used.tcam <= budget.tcam +. eps
  && used.vliw <= budget.vliw +. eps
  && used.hash_bits <= budget.hash_bits +. eps
  && used.salu <= budget.salu +. eps
  && used.gateway <= budget.gateway +. eps

(** Componentwise utilisation ratios (used / budget). *)
let utilization used budget =
  let r u b = if b = 0.0 then 0.0 else u /. b in
  {
    crossbar = r used.crossbar budget.crossbar;
    sram = r used.sram budget.sram;
    tcam = r used.tcam budget.tcam;
    vliw = r used.vliw budget.vliw;
    hash_bits = r used.hash_bits budget.hash_bits;
    salu = r used.salu budget.salu;
    gateway = r used.gateway budget.gateway;
  }

(** Per-stage budget of our modelled switch, Tofino-like proportions:
    1280 crossbar bits, 80 SRAM blocks, 24 TCAM blocks, 224 VLIW slots
    (one ALU per PHV container), 416 hash bits, 4 stateful ALUs, 16
    gateways. *)
let stage_budget =
  {
    crossbar = 1280.;
    sram = 80.;
    tcam = 24.;
    vliw = 224.;
    hash_bits = 416.;
    salu = 4.;
    gateway = 16.;
  }

let names = [ "Crossbar"; "SRAM"; "TCAM"; "VLIW"; "Hash Bits"; "SALU"; "Gateway" ]

let pp fmt t =
  Format.fprintf fmt
    "{xbar=%.2f sram=%.2f tcam=%.2f vliw=%.2f hash=%.2f salu=%.2f gw=%.2f}"
    t.crossbar t.sram t.tcam t.vliw t.hash_bits t.salu t.gateway

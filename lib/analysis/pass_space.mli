(** Exact packet-space analysis (NA021, NA022, NA090–NA094):
    tautological and implied predicates, branch satisfiability with
    near-miss witnesses, branch and cross-intent subsumption,
    exact recirculation overlap, deployment coverage gaps.  Every
    finding from NA090 on carries a concrete witness packet when one
    exists. *)

include Pass.S

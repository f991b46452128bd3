(** Monitoring reports — what queries export to the analyzer; produced
    by both the data-plane runtime and the exact reference evaluator so
    results are directly comparable. *)

type t = {
  query_id : int;
  window : int;        (** floor(ts / window length) *)
  keys : int array;    (** projected (masked) operation-key values *)
  value : int;         (** the (combined) aggregate behind the report *)
  value2 : int option; (** second aggregate of [Pair]-combined queries *)
}

val make :
  ?value2:int option -> query_id:int -> window:int -> keys:int array ->
  value:int -> unit -> t

val compare : t -> t -> int

(** Deduplicate by identity, keeping first occurrences. *)
val dedup : t list -> t list

(** Distinct key vectors across all given reports. *)
val reported_keys : t list -> int array list

(** How a measured report multiset differs from a reference one.  A
    report's identity is its (query, window, keys); duplicates count. *)
type diff = {
  missing : t list;  (** identities only the reference has (reference order) *)
  extra : t list;  (** identities only the measured side has (measured order) *)
  changed : (t * t) list;
      (** (reference, measured) pairs of one identity whose [value] or
          [value2] differ *)
}

val diff : reference:t list -> measured:t list -> diff

val to_string : t -> string
val pp : Format.formatter -> t -> unit

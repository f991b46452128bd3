(** Metric model for Newton's self-monitoring: named, typed families of
    labelled samples (the Prometheus data model), rendered by {!Export}. *)

type kind = Counter | Gauge | Histogram

val kind_to_string : kind -> string

(** Histogram samples carry non-cumulative bucket counts; [bounds.(i)]
    is the inclusive upper edge of bucket [i] and an implicit [+Inf]
    bucket closes the layout ([Array.length counts = Array.length
    bounds + 1]). *)
type value =
  | V of float
  | Buckets of {
      bounds : float array;
      counts : int array;
      sum : float;
      count : int;
    }

type sample = { labels : (string * string) list; value : value }

type t = {
  name : string;
  help : string;
  kind : kind;
  samples : sample list;
}

val sample : ?labels:(string * string) list -> value -> sample

(** Float / int convenience samples. *)
val v : ?labels:(string * string) list -> float -> sample
val vi : ?labels:(string * string) list -> int -> sample

val make : name:string -> help:string -> kind:kind -> sample list -> t
val counter : name:string -> help:string -> sample list -> t
val gauge : name:string -> help:string -> sample list -> t
val histogram : name:string -> help:string -> sample list -> t

(** Deterministic float rendering shared by both exporters. *)
val string_of_value : float -> string

(** [{k="v",...}] or [""] when empty. *)
val labels_to_string : (string * string) list -> string

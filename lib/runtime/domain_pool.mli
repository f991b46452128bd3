(** A minimal domain pool for sharded trace replay: tasks run on freshly
    spawned domains, at most [max_domains] at a time (waves), and
    results are joined in task order. *)

(** Whether tasks run on parallel domains: always [true] (the build
    needs OCaml 5's multicore runtime). *)
val parallel : bool

(** A sensible shard count for this machine:
    [Domain.recommended_domain_count]. *)
val recommended_jobs : unit -> int

(** Run every task and return their results in task order.  At most
    [max_domains] tasks run concurrently (default: the task count).
    Tasks must not share mutable state unless independently
    synchronised.  An exception raised by any task is re-raised after
    the wave it ran in completes.
    @raise Invalid_argument if [max_domains < 1]. *)
val run : ?max_domains:int -> (unit -> 'a) array -> 'a array

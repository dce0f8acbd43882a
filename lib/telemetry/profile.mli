(** Phase-scoped GC and allocation probes.

    A profile is a list of [Event.Phase] measurements, one per {!run}
    bracket: the deltas of [Gc.quick_stat] / [Gc.allocated_bytes] readings
    taken around the bracket (bytes allocated, minor/major collections), the
    top-of-heap at its end, and its wall time. Per-phase totals are a fold
    over those events ({!totals}) — the same fold that reads the Phase
    events back out of a saved trace, so a profile and its trace agree by
    construction. The bench harness surfaces the totals as the per-phase
    [gc_phases] columns of its [--json] output; {!emit} writes them into a
    sink for offline analysis (tracecat's "top allocating phases").

    GC counters are domain-local in OCaml 5, so a profile is a single-domain
    object: under [Pool]-style parallelism give each task its own profile
    and fold the results back with {!merge} — the same discipline as
    [Metrics] registries. *)

type entry = {
  name : string;
  count : int;  (** number of {!run} brackets folded into this phase *)
  alloc_bytes : int;
  minor : int;
  major : int;
  top_heap_words : int;  (** max observed at any bracket's end *)
  wall_s : float;
}

type t

val create : clock:(unit -> float) -> t
(** A fresh profile. [clock] supplies wall time in seconds (the library
    takes no ambient time; inject [Unix.gettimeofday] from the binary
    layer). *)

val clock : t -> unit -> float
(** The profile's clock, for creating per-task profiles that time alike. *)

val run : t -> name:string -> (unit -> 'a) -> 'a
(** [run t ~name f] measures [f ()] and records one Phase event for it.
    Brackets nest; measurement happens even if [f] raises. *)

val events : t -> Event.t list
(** One [Event.Phase] (count 1, time 0, no causal context) per {!run}
    bracket, in the order the brackets opened. *)

val totals : Event.t list -> entry list
(** The per-name totals of the [Event.Phase] events in a list, in
    first-appearance order: counts, allocation, collections and wall add,
    peak heap takes the max. Other events are ignored. *)

val entries : t -> entry list
(** [totals (events t)]. *)

val merge : into:t -> t -> unit
(** Append another profile's brackets after [into]'s, so
    [events into] becomes the concatenation in input order. *)

val to_json : t -> Json.t
(** An object keyed by phase name; each value carries the {!entry} fields
    except [name]. *)

val emit : t -> Sink.t -> time:int -> unit
(** Record one [Event.Phase] total per phase (the {!entries}) into a sink,
    at the given simulated time. *)

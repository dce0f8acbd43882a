(** Offline causal-chain reconstruction and analysis over a trace.

    Input is always an [Event.t] list in file order (what
    {!Sink.read_jsonl} returns). The unit of causality is the {e span}: one
    send→deliver hop of one message, minted by [Net] at send time (see
    {!Event.ctx}). This module is the shared engine behind the [tracecat]
    analyzer and the causality-invariant tests. *)

type span = {
  id : int;
  trace : int;
  parent : int;  (** parent span id, -1 for a chain root *)
  tag : string;
  src : int;
  bits : int;
  send_time : int;
  mutable dst : int;  (** -1 until delivered *)
  mutable deliver_time : int;  (** -1 until delivered *)
  mutable forwarded : bool;
  mutable reordered : bool;
}

val delivered : span -> bool

val spans : Event.t list -> span list * (int, span) Hashtbl.t
(** Rebuild spans from Send/Deliver events that carry causal context, in
    send order, plus an id-keyed index of the same spans. Duplicate sends of
    one span id keep the first; delivers without a matching send are
    dropped (both are reported by {!check}). *)

val check : Event.t list -> (unit, string list) result
(** The causality invariants the instrumentation promises:
    every send carries a context and mints a distinct span; every deliver
    carries a context, links to exactly one send, agrees with that send's
    context, and happens once; every sent span is eventually delivered;
    span parentage is acyclic and stays within one trace; and a trace with
    sends carries context at all. Errors are deduplicated and sorted. *)

type critical_path = {
  hops : int;  (** longest chain of spans linked by parentage *)
  cp_trace : int;  (** trace the longest chain belongs to, -1 when empty *)
  cp_span : int;  (** the chain's deepest span, -1 when empty *)
  start_time : int;  (** send time of the chain's root span *)
  end_time : int;  (** deliver (or send) time of the deepest span *)
}

val critical_path : Event.t list -> critical_path

type dist = {
  count : int;
  min_v : int;
  p50 : int;
  p90 : int;
  p99 : int;
  max_v : int;
  mean : float;
}

val latency_by_tag : Event.t list -> (string * dist) list
(** Per-tag send→deliver latency in simulated time, over delivered spans,
    sorted by tag. *)

type queue_stats = {
  max_depth : int;
  max_at : int;  (** simulated time at which the max was first reached *)
  time_weighted_mean : float;
  final_depth : int;  (** in-flight messages when the trace ends *)
}

val queue_depth : Event.t list -> queue_stats
(** In-flight message depth over the trace: +1 at each send, -1 at each
    deliver, integrated over simulated time. *)

val discipline : Event.t list -> string option
(** The delivery discipline recorded by the run's [Sched] event, if any. *)

val trace_count : Event.t list -> int
(** Number of distinct causal chains (trace ids) in the trace. *)

(** Typed trace events, timestamped with the simulated clock.

    One constructor per instrumented behaviour of the stack: network sends
    and deliveries, permit-request spans (submit → grant/reject latency in
    simulated time), package life-cycle by level, domain-tracker changes,
    controller epoch rotations, and estimator updates. [Custom] carries
    anything else without extending the type.

    Events serialize to single-line JSON through one renderer, {!add_line},
    and round-trip exactly; JSONL traces written by {!Sink.write_jsonl} or a
    {!Sink.to_channel} sink are re-readable with {!of_line}. *)

type addr = Exact of int | Parent_of of int
(** Mirror of [Net.addr] (the network library sits above this one). *)

type ctx = { trace : int; span : int; parent : int }
(** Causal context. A {e span} is one send→deliver hop of one message; the
    {e trace} names the whole causal chain the hop belongs to (the id of the
    chain's root span); [parent] is the span whose delivery continuation (or
    scheduled action) issued this send. Ids are minted per sink by
    {!Sink.fresh_id}, dense from the sink's id base. All three fields are
    [-1] when the event was recorded without causal context ({!no_ctx});
    [parent = -1] with [trace >= 0] marks a root span. *)

val no_ctx : ctx
(** The shared no-causality context (all fields [-1]). Physically one
    constant, so storing it costs no allocation. *)

val has_ctx : ctx -> bool
(** [trace >= 0]. *)

type kind =
  | Sched of { discipline : string }
      (** emitted once at network creation: which delivery discipline the
          run's scheduler enforces, so a trace proves which model ran *)
  | Send of { src : int; addr : addr; tag : string; bits : int }
  | Deliver of {
      src : int;
      dst : int;
      tag : string;
      seq : int;  (** global send sequence number of the delivered message *)
      forwarded : bool;
      reordered : bool;
    }
      (** [forwarded]: the addressed node was deleted in flight and the
          deletion-forwarding chain redirected the message. [reordered]: the
          delivery overtook an earlier send on the same link (never true
          under the FIFO-per-link scheduler). *)
  | Permit_span of {
      ctrl : string;
      node : int;
      aid : int;  (** request/agent id; -1 when the controller has none *)
      outcome : string;  (** "granted" | "rejected" | "exhausted" *)
      submitted : int;  (** simulated submission time *)
      latency : int;  (** grant/reject time minus [submitted] *)
      moves : int;
          (** package moves the request cost; 0 (and absent from the JSON)
              for the distributed controllers, whose cost is messages *)
    }
  | Package_created of { ctrl : string; level : int; size : int }
  | Package_split of { ctrl : string; level : int }
      (** a level-[level] package split into two level-[level-1] halves *)
  | Package_static of { ctrl : string; node : int; size : int }
  | Package_join of { ctrl : string; from_ : int; to_ : int }
      (** a deleted node's store absorbed by its parent *)
  | Domain_assign of { level : int; size : int }
  | Domain_resize of { level : int; size : int }
      (** after an internal insertion spliced a node into a domain path *)
  | Domain_cancel of { level : int }
  | Reject_wave of { ctrl : string; node : int }
  | Epoch of { ctrl : string; epoch : int; n : int }
  | Estimate of { ctrl : string; node : int; value : int; truth : int }
      (** an estimate update: [value] vs the true quantity [truth] (network
          size for size estimation, name-range ceiling for names) *)
  | Phase of {
      name : string;
      count : int;  (** how many {!Profile} measurements were folded in *)
      alloc_bytes : int;
      minor : int;  (** minor collections during the phase *)
      major : int;  (** major collections during the phase *)
      top_heap_words : int;  (** max top-of-heap observed during the phase *)
      wall_ns : int;  (** wall time, 0 when the profile had no clock *)
    }
      (** one {!Profile} phase total: GC/alloc deltas attributed to a named
          stretch of work (see {!Profile.run}) *)
  | Custom of { name : string; value : int }

type t = { time : int; ctx : ctx; kind : kind }

val add_line : Buffer.t -> t -> unit
(** Append the event as one line of JSON (no trailing newline) to the
    buffer, field by field: ["time"], then the causality fields, then
    ["ev"] and the kind's fields in declaration order. Causality fields
    ([trace]/[span]/[parent]) are emitted only when present (>= 0), so
    context-free events serialize exactly as before the causality layer
    existed; a [Permit_span]'s [moves] only when non-zero. Allocates
    nothing beyond the buffer's own growth, which is what lets a
    {!Sink.to_channel} sink record [Net]'s events without allocating. *)

val to_line : t -> string
(** {!add_line} into a fresh string. *)

val to_json : t -> Json.t
(** The {!to_line} rendering parsed back into a tree, for readers that
    want fields by name (the Perfetto export, tests). *)

val of_json : Json.t -> t
(** @raise Failure on a JSON value that no [kind] produces. Absent causality
    fields parse as [-1] (i.e. {!no_ctx}). *)

val of_line : string -> t
(** Inverse of {!to_line}. @raise Failure on malformed input. *)

val pp : Format.formatter -> t -> unit

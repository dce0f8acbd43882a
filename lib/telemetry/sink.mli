(** The telemetry sink: an event trace plus the metrics registry derived
    from it.

    A sink is what the instrumented layers ([Net], the controllers, the
    estimators) accept: when absent they skip all telemetry work (the no-sink
    path stays allocation-free); when present every instrumented behaviour
    appends one typed event. The registry is a fold over the events the sink
    accepts: {!event} and {!record} both map each event to its series
    (DESIGN.md "Metrics" has the event → metric table), and no other code
    writes a metric. Replaying a trace into a fresh sink with {!record}
    therefore rebuilds the same registry. The series a [Send] touches are
    resolved once per sink, by its first [Send], and per-tag counters are
    found by the tag string, so folding [Net]'s [Send] and [Deliver] events
    looks nothing up in the registry and allocates nothing.

    Three trace modes:
    - {e in-memory} (the {!create} default): events accumulate in a reversed
      list, O(1) append, read back with {!events} / {!to_jsonl};
    - {e callback} ([?on_event]): events are handed to the callback
      {e instead} of being retained;
    - {e channel} ({!to_channel}): events are rendered by {!Event.add_line}
      straight into a small write-through buffer (4 KiB between flushes;
      the channel does its own buffering), so a trace of any length keeps O(1) heap and recording a
      prebuilt [Send] or [Deliver] allocates nothing — the mode for long
      runs and for one sink per parallel task.

    The registry is kept in every mode. Sinks are single-domain objects:
    under [Pool]-style parallelism give each task its own sink and merge the
    registries afterwards with {!Metrics.merge}. *)

type t

val create : ?next_id:int -> ?on_event:(Event.t -> unit) -> unit -> t
(** A fresh in-memory sink with an empty registry. With [on_event], events
    are handed to the callback and not retained. [next_id] (default 0) is
    the base from which {!fresh_id} mints span and trace ids — give sinks
    that will be merged disjoint id blocks (see {!reserve_ids}) so spans
    never collide. *)

val to_channel : ?next_id:int -> ?flush_bytes:int -> out_channel -> t
(** A streaming sink: events are written to the channel as JSONL (one line
    per event, as {!write_jsonl} would), buffered and flushed to the channel
    every [flush_bytes] (default 4 KiB, the value is clamped to at least
    1). Call {!flush} before reading the file or closing the channel; the
    channel itself stays owned by the caller. *)

val flush : t -> unit
(** Push any buffered output of a {!to_channel} sink through to its channel
    (including [Stdlib.flush] on the channel). A no-op on the other modes. *)

val metrics : t -> Metrics.t
(** The registry folded from every event accepted so far. *)

val event : ?ctx:Event.ctx -> t -> time:int -> Event.kind -> unit
(** Record one event. Without [?ctx] the event is stamped with the ambient
    causal context (trace and span of the delivery or scheduled action
    currently executing; {!Event.no_ctx} when none is installed) — this is
    how protocol layers inherit causality without naming it. [Net] passes an
    explicit [?ctx] for [Send]/[Deliver], whose context is the message's own
    span rather than the ambient one. *)

val record : t -> Event.t -> unit
(** Append an already-built event verbatim (no ambient stamping), folding it
    into the registry exactly as {!event} does. For merging per-task sink
    traces back into a parent sink (pair with {!reserve_ids} so the merged
    ids stay disjoint) and for rebuilding a registry from a saved trace. *)

(** {2 Causality: span ids and the ambient context}

    [Net] is the only intended writer of this state: it mints a span per
    send, and installs the span's (trace, span) pair as the ambient context
    around the delivery continuation — restoring the previous value after —
    so any event recorded downstream is stamped with it. Readers other than
    [Net] only need {!current_trace}/{!current_span}. *)

val fresh_id : t -> int
(** Mint the next span/trace id (dense from the sink's [next_id] base). *)

val reserve_ids : t -> int -> int
(** [reserve_ids t n] advances the id counter past a block of [n] ids and
    returns the block's base — use the base as [next_id] of a per-task
    sub-sink whose events will later be {!record}ed back into [t]. *)

val current_trace : t -> int
(** Ambient trace id, [-1] when no context is installed. *)

val current_span : t -> int
(** Ambient span id, [-1] when no context is installed. *)

val ambient : t -> int * int
(** [(current_trace, current_span)] — for save/restore around a nested
    context install. *)

val set_ambient : t -> trace:int -> span:int -> unit
val clear_ambient : t -> unit

val events : t -> Event.t list
(** The retained trace in chronological (append) order. Empty when streaming
    through [on_event] or a channel. *)

val event_count : t -> int
(** Number of events recorded (retained or streamed). *)

val to_jsonl : t -> string
(** The retained trace as JSONL (one event per line, trailing newline),
    rendered by {!Event.add_line} into one buffer. *)

val write_jsonl : t -> string -> unit
(** Write the bytes of {!to_jsonl} to a file, one line at a time, without
    building the whole trace as one string. *)

val read_jsonl : string -> Event.t list
(** Parse a JSONL trace file back into events (blank lines skipped).
    @raise Failure on a malformed line. *)

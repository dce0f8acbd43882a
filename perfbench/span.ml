(* Outside-in span tracer for the benchmark.

   A span is opened around every public library call the benchmark makes
   (tree build, protocol creation, [next_op], [request]/[submit], [Net.step])
   and around the benchmark's own request continuations. Spans nest on a
   stack; closing one charges its duration and its minor-heap allocation to
   its boundary, and subtracts both from the enclosing span, so every
   boundary ends up with a self time and a self allocation.

   Per boundary the tracer keeps a count, total and self nanoseconds, self
   allocated words and a log2 histogram of durations. Raw spans (id, parent,
   boundary, start, duration, allocation) are sampled one in [sample_every]
   into a fixed buffer, so tracing millions of steps keeps O(1) memory. A
   boundary can also keep its exact durations for percentiles.

   The hot path ([enter]/[leave]) allocates nothing: the clock is read
   through an unboxed no-alloc external and every table is a flat array.
   A disabled tracer costs one branch per call. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

(* Boundaries. The name's prefix up to the first '.' is the layer. *)
let names =
  [|
    "dtree.build";
    "central.create";
    "net.create";
    "dist.create";
    "estimator.create";
    "workload.next_op";
    "central.request";
    "dist.submit";
    "estimator.submit";
    "net.step";
    "bench.k";
    "dtree.apply";
    "telemetry.flush";
  |]

let dtree_build = 0
let central_create = 1
let net_create = 2
let dist_create = 3
let estimator_create = 4
let next_op = 5
let central_request = 6
let dist_submit = 7
let estimator_submit = 8
let net_step = 9
let bench_k = 10
let dtree_apply = 11
let telemetry_flush = 12
let boundaries = Array.length names

let layer b =
  let s = names.(b) in
  String.sub s 0 (String.index s '.')

(* Boundaries crossed inside the timed part of an episode; their self times
   partition the traced wall time of that part (up to the loop glue). *)
let timed = [ next_op; central_request; dist_submit; estimator_submit; net_step; bench_k ]

let max_depth = 64
let hist_buckets = 64
let raw_fields = 5
let sample_every = 4096
let raw_capacity = 4096

type t = {
  on : bool;
  (* open-span stack *)
  stk_b : int array;
  stk_id : int array;
  stk_t0 : int array;
  stk_w0 : float array;
  stk_child_ns : int array;
  stk_child_w : float array;
  mutable depth : int;
  mutable next_id : int;
  (* per-boundary aggregates *)
  count : int array;
  total_ns : int array;
  self_ns : int array;
  self_words : float array;
  hist : int array;  (** [boundaries * hist_buckets] *)
  (* sampled raw spans: id, parent id, boundary, start, duration *)
  raw : int array;
  raw_words : float array;
  mutable raw_n : int;
  (* exact durations of selected boundaries *)
  durs : int array array;
  dur_n : int array;
}

(* [keep]: boundaries whose first durations (up to a capacity each) are
   kept for exact percentiles. *)
let create ?(keep = []) ~on () =
  let durs = Array.make boundaries [||] in
  if on then List.iter (fun (b, cap) -> durs.(b) <- Array.make cap 0) keep;
  {
    on;
    stk_b = Array.make max_depth 0;
    stk_id = Array.make max_depth 0;
    stk_t0 = Array.make max_depth 0;
    stk_w0 = Array.make max_depth 0.0;
    stk_child_ns = Array.make max_depth 0;
    stk_child_w = Array.make max_depth 0.0;
    depth = 0;
    next_id = 0;
    count = Array.make boundaries 0;
    total_ns = Array.make boundaries 0;
    self_ns = Array.make boundaries 0;
    self_words = Array.make boundaries 0.0;
    hist = Array.make (boundaries * hist_buckets) 0;
    raw = Array.make (if on then raw_capacity * raw_fields else 0) 0;
    raw_words = Array.make (if on then raw_capacity else 0) 0.0;
    raw_n = 0;
    durs;
    dur_n = Array.make boundaries 0;
  }

let off = create ~on:false ()
let on t = t.on

let enter t b =
  if t.on then begin
    let d = t.depth in
    t.stk_b.(d) <- b;
    t.stk_id.(d) <- t.next_id;
    t.next_id <- t.next_id + 1;
    t.stk_child_ns.(d) <- 0;
    t.stk_child_w.(d) <- 0.0;
    t.depth <- d + 1;
    t.stk_w0.(d) <- Gc.minor_words ();
    t.stk_t0.(d) <- now_ns ()
  end

let rec log2_bucket n acc = if n <= 1 then acc else log2_bucket (n lsr 1) (acc + 1)

let leave t =
  if t.on then begin
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    let d = t.depth - 1 in
    t.depth <- d;
    let b = t.stk_b.(d) in
    let dur = t1 - t.stk_t0.(d) in
    let words = w1 -. t.stk_w0.(d) in
    t.count.(b) <- t.count.(b) + 1;
    t.total_ns.(b) <- t.total_ns.(b) + dur;
    t.self_ns.(b) <- t.self_ns.(b) + dur - t.stk_child_ns.(d);
    t.self_words.(b) <- t.self_words.(b) +. words -. t.stk_child_w.(d);
    let h = (b * hist_buckets) + min (hist_buckets - 1) (log2_bucket dur 0) in
    t.hist.(h) <- t.hist.(h) + 1;
    if d > 0 then begin
      t.stk_child_ns.(d - 1) <- t.stk_child_ns.(d - 1) + dur;
      t.stk_child_w.(d - 1) <- t.stk_child_w.(d - 1) +. words
    end;
    let id = t.stk_id.(d) in
    if id mod sample_every = 0 && t.raw_n < raw_capacity then begin
      let o = t.raw_n * raw_fields in
      t.raw.(o) <- id;
      t.raw.(o + 1) <- (if d > 0 then t.stk_id.(d - 1) else -1);
      t.raw.(o + 2) <- b;
      t.raw.(o + 3) <- t.stk_t0.(d);
      t.raw.(o + 4) <- dur;
      t.raw_words.(t.raw_n) <- words;
      t.raw_n <- t.raw_n + 1
    end;
    let n = t.dur_n.(b) in
    if n < Array.length t.durs.(b) then begin
      t.durs.(b).(n) <- dur;
      t.dur_n.(b) <- n + 1
    end
  end

(* [span t b f]: for set-up calls only; the closure allocates. *)
let span t b f =
  enter t b;
  let r = f () in
  leave t;
  r

let total_ns t b = t.total_ns.(b)
let self_ns t b = t.self_ns.(b)

let self_bytes t b = t.self_words.(b) *. float_of_int (Sys.word_size / 8)

(* Mean self nanoseconds per call; 0 for a boundary never crossed. *)
let self_ns_per_call t b =
  if t.count.(b) = 0 then 0.0 else float_of_int t.self_ns.(b) /. float_of_int t.count.(b)

let self_bytes_per_call t b =
  if t.count.(b) = 0 then 0.0 else self_bytes t b /. float_of_int t.count.(b)

(* The [q]-quantile (0 < q < 1, nearest rank) of [a]; 0 when empty. *)
let quantile a q =
  let a = Array.copy a in
  Array.sort Int.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else float_of_int a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The [q]-quantile of the kept durations of [b]. *)
let duration_quantile t b q = quantile (Array.sub t.durs.(b) 0 t.dur_n.(b)) q

let timed_self_ns t = List.fold_left (fun acc b -> acc + t.self_ns.(b)) 0 timed

(* One JSON object per boundary crossed, then one per sampled raw span. *)
let write_jsonl t oc =
  for b = 0 to boundaries - 1 do
    if t.count.(b) > 0 then begin
      let hist =
        List.init hist_buckets (fun i -> t.hist.((b * hist_buckets) + i))
        |> List.map string_of_int |> String.concat ","
      in
      Printf.fprintf oc
        "{\"boundary\":%S,\"layer\":%S,\"count\":%d,\"total_ns\":%d,\"self_ns\":%d,\"self_bytes\":%.0f,\"log2_hist\":[%s]}\n"
        names.(b) (layer b) t.count.(b) t.total_ns.(b) t.self_ns.(b) (self_bytes t b) hist
    end
  done;
  for i = 0 to t.raw_n - 1 do
    let o = i * raw_fields in
    Printf.fprintf oc
      "{\"span\":%d,\"parent\":%d,\"boundary\":%S,\"start_ns\":%d,\"dur_ns\":%d,\"minor_words\":%.0f}\n"
      t.raw.(o) t.raw.(o + 1) names.(t.raw.(o + 2)) t.raw.(o + 3) t.raw.(o + 4) t.raw_words.(i)
  done

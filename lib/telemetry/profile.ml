(* Phase-scoped GC/allocation probes. A profile is the list of its [run]
   brackets, each one [Event.Phase] measurement (count 1); the per-phase
   totals are a fold over that list, the same fold tracecat applies to the
   Phase events of a saved trace. All counters are read on the calling
   domain, so under [Pool]-style parallelism each task profiles into its own
   instance and the instances are {!merge}d afterwards — the same contract
   as [Metrics]. Wall time comes from the clock injected at creation (the
   library takes no ambient time). *)

type entry = {
  name : string;
  count : int;
  alloc_bytes : int;
  minor : int;
  major : int;
  top_heap_words : int;
  wall_s : float;
}

(* A bracket's slot is pushed when it opens, so phases keep first-opened
   order (an enclosing phase precedes the phases nested in it), and filled
   with its measurement when it closes. *)
type t = { clock : unit -> float; mutable rev_brackets : Event.kind ref list }

let create ~clock = { clock; rev_brackets = [] }
let clock t = t.clock

let ns seconds = int_of_float (Float.round (seconds *. 1e9))

let run t ~name f =
  let slot =
    ref
      (Event.Phase
         {
           name;
           count = 0;
           alloc_bytes = 0;
           minor = 0;
           major = 0;
           top_heap_words = 0;
           wall_ns = 0;
         })
  in
  t.rev_brackets <- slot :: t.rev_brackets;
  let w0 = t.clock () in
  let s0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  Fun.protect
    ~finally:(fun () ->
      let a1 = Gc.allocated_bytes () in
      let s1 = Gc.quick_stat () in
      slot :=
        Event.Phase
          {
            name;
            count = 1;
            alloc_bytes = int_of_float (a1 -. a0);
            minor = s1.Gc.minor_collections - s0.Gc.minor_collections;
            major = s1.Gc.major_collections - s0.Gc.major_collections;
            top_heap_words = s1.Gc.top_heap_words;
            wall_ns = ns (t.clock () -. w0);
          })
    f

let events t =
  List.rev_map
    (fun slot -> { Event.time = 0; ctx = Event.no_ctx; kind = !slot })
    t.rev_brackets

let totals events =
  let tbl = Hashtbl.create 8 and rev_names = ref [] in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Phase { name; count; alloc_bytes; minor; major; top_heap_words; wall_ns }
        ->
          let cur =
            match Hashtbl.find_opt tbl name with
            | Some p -> p
            | None ->
                rev_names := name :: !rev_names;
                {
                  name;
                  count = 0;
                  alloc_bytes = 0;
                  minor = 0;
                  major = 0;
                  top_heap_words = 0;
                  wall_s = 0.0;
                }
          in
          Hashtbl.replace tbl name
            {
              cur with
              count = cur.count + count;
              alloc_bytes = cur.alloc_bytes + alloc_bytes;
              minor = cur.minor + minor;
              major = cur.major + major;
              top_heap_words = max cur.top_heap_words top_heap_words;
              wall_s = cur.wall_s +. (float_of_int wall_ns /. 1e9);
            }
      | _ -> ())
    events;
  List.rev_map (Hashtbl.find tbl) !rev_names

let entries t = totals (events t)
let merge ~into t = into.rev_brackets <- t.rev_brackets @ into.rev_brackets

let entry_json e =
  Json.Obj
    [
      ("count", Json.Int e.count);
      ("alloc_bytes", Json.Int e.alloc_bytes);
      ("minor", Json.Int e.minor);
      ("major", Json.Int e.major);
      ("top_heap_words", Json.Int e.top_heap_words);
      ("wall_s", Json.Float e.wall_s);
    ]

let to_json t = Json.Obj (List.map (fun e -> (e.name, entry_json e)) (entries t))

let emit t sink ~time =
  List.iter
    (fun e ->
      Sink.event sink ~time
        (Event.Phase
           {
             name = e.name;
             count = e.count;
             alloc_bytes = e.alloc_bytes;
             minor = e.minor;
             major = e.major;
             top_heap_words = e.top_heap_words;
             wall_ns = ns e.wall_s;
           }))
    (entries t)

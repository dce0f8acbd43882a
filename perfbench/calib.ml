(* Host-speed reference for the end-to-end timings.

   The hosts this benchmark runs on drift: over minutes the same episode
   runs up to 1.5x faster or slower, and the drift is shared by code that
   allocates and chases pointers. This kernel churns a standard-library
   [Map] of about 2^15 keys (allocation and pointer chasing over a few MB)
   under pinned GC parameters; it uses none of the repository's code, so no
   change to the repository can move it. Over a run, its median time tracks
   the drift (correlation about -0.9 with the workloads' median throughput
   across runs), and the end-to-end timings are scaled by it (see
   [Suite.run]). *)

module M = Map.Make (Int)

(* The kernel's time on a quiet host; only the scale of the reported
   timings depends on it. *)
let nominal_s = 0.09

let kept = ref 0

(* Seconds taken by one pass of the kernel. *)
let seconds () =
  let saved = Gc.get () in
  Gc.set { saved with minor_heap_size = 262_144; space_overhead = 120 };
  let st = Random.State.make [| 11 |] in
  let t0 = Span.now_ns () in
  let m = ref M.empty in
  for i = 1 to 1 lsl 15 do
    m := M.add (Random.State.bits st land 0xfffff) i !m
  done;
  for _ = 1 to 1 lsl 16 do
    let k = Random.State.bits st land 0xfffff in
    m := if M.mem k !m then M.remove k !m else M.add k k !m
  done;
  let t1 = Span.now_ns () in
  kept := M.cardinal !m;
  Gc.set saved;
  float_of_int (t1 - t0) /. 1e9

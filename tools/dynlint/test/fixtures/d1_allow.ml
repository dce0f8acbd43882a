(* fixture: D1 global-state — same shapes, every site allow-annotated *)

let table = Hashtbl.create 16 (* dynlint: allow global-state -- fixture *)

(* dynlint: allow global-state -- annotation on the preceding line *)
let total = ref 0

module Nested = struct
  let buf = Buffer.create 64 (* dynlint: allow global-state -- fixture *)
end

let lazy_queue = lazy (Queue.create ()) (* dynlint: allow global-state -- fixture *)
let ambient = Rng.create ~seed:42 (* dynlint: allow global-state -- fixture *)

type bundle = { gen : Rng.t; label : string }

(* dynlint: allow global-state -- a generator inside a record field *)
let hidden = { gen = Rng.create ~seed:7; label = "smuggled" }
let use () = (table, total, Nested.buf, lazy_queue, ambient, hidden)

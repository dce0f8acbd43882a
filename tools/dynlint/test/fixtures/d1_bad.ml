(* fixture: D1 global-state — six top-level mutable allocations, two of
   them random generators, and legal local ones *)

let table = Hashtbl.create 16
let total = ref 0

module Nested = struct
  let buf = Buffer.create 64
end

let lazy_queue = lazy (Queue.create ())

(* a module-level generator: drawn from in whatever order domains run, and
   no caller can reseed it *)
let ambient = Rng.create ~seed:42

type bundle = { gen : Rng.t; label : string }

(* the binding's own type says nothing about Rng; only a field does *)
let hidden = { gen = Rng.create ~seed:7; label = "smuggled" }

(* allocation inside a function body is per-call state, not module state *)
let make () =
  let h = Hashtbl.create 4 in
  Hashtbl.replace h "k" total;
  (h, table, Nested.buf, lazy_queue, ambient, hidden)

let fork seed = Rng.split (Rng.create ~seed)

(* Leftovers of the retired pool-discipline (D12) and message-flow (D13)
   passes: their inline allows and attributes now name nothing. *)
let acquire () = ref 0 [@@dynlint.pool_acquire]
let release (_ : int ref) = () [@@dynlint.pool_release]

(* dynlint: allow pool-discipline *)
let leak () = acquire ()

let send msg = print_string msg (* dynlint: allow message-flow *)
let tags = [ "a"; "b" ] [@@dynlint.tag_universe]

(* Leftovers of the retired mli (D5), parallel-race (D7) and rng-taint (D9)
   rules: their allows hide nothing, so D1 still reports these lines. *)
(* dynlint: allow mli *)
let shared = ref 0 (* dynlint: allow parallel-race *)
let gen = Rng.create ~seed:1 (* dynlint: allow rng-taint *)

(* Correctness checks over a workload's outputs. Each check records a
   one-line failure instead of raising, so one run reports every broken
   property; the number of failures feeds the result line's [failed]. *)

type t = { mutable failures : string list }

let create () = { failures = [] }
let failures t = List.rev t.failures
let count t = List.length t.failures
let fail t fmt = Printf.ksprintf (fun s -> t.failures <- s :: t.failures) fmt

(* [answers.(i)] is how many times request [i] was answered. Returns the
   number of requests not answered exactly once. *)
let answered_once t ~what answers =
  let unanswered = ref 0 and repeated = ref 0 in
  Array.iter (fun n -> if n = 0 then incr unanswered else if n > 1 then incr repeated) answers;
  if !unanswered > 0 || !repeated > 0 then
    fail t "%s: %d requests unanswered, %d answered more than once" what !unanswered !repeated;
  !unanswered + !repeated

let equal_int t ~what ~expected got =
  if expected <> got then fail t "%s: expected %d, got %d" what expected got

let pool t net =
  match Net.pool_check net with Ok () -> () | Error e -> fail t "Net.pool_check: %s" e

let locks t d =
  (match Controller.Dist.check_locks d with
  | Ok () -> ()
  | Error e -> fail t "Dist.check_locks: %s" e);
  equal_int t ~what:"Dist.locked_count after drain" ~expected:0 (Controller.Dist.locked_count d);
  equal_int t ~what:"Dist.outstanding after drain" ~expected:0 (Controller.Dist.outstanding d)

(* The (M,W)-controller contract: never more than M grants, and a reject
   only once at least M - W permits were granted. *)
let budget t ~granted ~rejected ~m ~w =
  if granted > m then fail t "safety: %d granted > M = %d" granted m;
  if rejected > 0 && granted < m - w then
    fail t "liveness: %d rejected with only %d granted < M - W = %d" rejected granted (m - w)

let tree t tr =
  (match Dtree.check tr with () -> () | exception Failure e -> fail t "Dtree.check: %s" e);
  let n = Dtree.size tr in
  equal_int t ~what:"DFS node count vs Dtree.size" ~expected:n
    (Dtree.fold_dfs tr ~init:0 ~f:(fun acc _ -> acc + 1));
  equal_int t ~what:"root subtree size vs Dtree.size" ~expected:n
    (Dtree.subtree_size tr (Dtree.root tr))

let ratio_within t ~what ~worst ~bound =
  if not (worst <= bound) then fail t "%s: worst ratio %.4f exceeds %.4f" what worst bound

(* A deterministic counter that differs between two episodes of one seed is
   a determinism bug, not noise. *)
let deterministic t ~what a b =
  if List.length a <> List.length b then
    fail t "determinism: %s reports %d counters then %d" what (List.length a) (List.length b)
  else
    List.iter2
      (fun (k, x) (k', y) ->
        if k <> k' || x <> y then fail t "determinism: %s %s = %.17g then %s = %.17g" what k x k' y)
      a b

let id x = x (* dynlint: allow stdout -- deliberately stale: nothing on this line prints *)

let debug msg = print_string msg (* dynlint: allow stdout *)

(* dynlint: allow pool-discipline -- a retired rule's name is no rule *)
let keep x = x

let typo x = x [@@dynlint.zero_aloc]
let leftover x = x [@@dynlint.pool_acquire]

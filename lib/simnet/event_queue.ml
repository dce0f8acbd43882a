(* Struct-of-arrays heap: slot [i] of the four parallel arrays is one
   entry. Sifts swap slots element-wise; nothing is boxed per entry, so a
   steady-state add/pop cycle allocates nothing. Popped payload slots are
   overwritten with [dummy] so delivered payloads are dropped as soon as
   they leave the heap. *)
type 'a t = {
  mutable times : int array;
  mutable prios : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  dummy : 'a;
  mutable size : int;
  mutable next_seq : int;
}

let create ~dummy =
  {
    times = [||];
    prios = [||];
    seqs = [||];
    payloads = [||];
    dummy;
    size = 0;
    next_seq = 0;
  }

let before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj
  || ti = tj
     &&
     let pi = t.prios.(i) and pj = t.prios.(j) in
     pi < pj || (pi = pj && t.seqs.(i) < t.seqs.(j))
  [@@dynlint.zero_alloc]

let swap t i j =
  let x = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- x;
  let x = t.prios.(i) in
  t.prios.(i) <- t.prios.(j);
  t.prios.(j) <- x;
  let x = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- x;
  let x = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- x
  [@@dynlint.zero_alloc]

let grow t =
  let cap = max 16 (2 * Array.length t.times) in
  let grow_int a =
    let bigger = Array.make cap 0 in
    Array.blit a 0 bigger 0 t.size;
    bigger
  in
  t.times <- grow_int t.times;
  t.prios <- grow_int t.prios;
  t.seqs <- grow_int t.seqs;
  let bigger = Array.make cap t.dummy in
  Array.blit t.payloads 0 bigger 0 t.size;
  t.payloads <- bigger

(* [priority] is a required label here: a cross-module call supplying an
   *optional* argument boxes it in [Some] at the call site, which would put
   two words back on every prioritized send. [add] wraps this for callers
   that don't care. *)
let add_prio t ~time ~priority payload =
  (* dynlint: allow zero-alloc — amortized growth, doubling *)
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  t.times.(i) <- time;
  t.prios.(i) <- priority;
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  (* sift up *)
  let i = ref i in
  while !i > 0 && before t !i ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    swap t !i p;
    i := p
  done
  [@@dynlint.zero_alloc]

let add t ~time ?(priority = 0) payload = add_prio t ~time ~priority payload
  [@@dynlint.zero_alloc]

let next_time t =
  if t.size = 0 then invalid_arg "Event_queue.next_time: empty";
  t.times.(0)
  [@@dynlint.zero_alloc]

let pop_exn t =
  if t.size = 0 then invalid_arg "Event_queue.pop_exn: empty";
  let top = t.payloads.(0) in
  t.size <- t.size - 1;
  let last = t.size in
  t.times.(0) <- t.times.(last);
  t.prios.(0) <- t.prios.(last);
  t.seqs.(0) <- t.seqs.(last);
  t.payloads.(0) <- t.payloads.(last);
  t.payloads.(last) <- t.dummy;
  if last > 0 then begin
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && before t l !smallest then smallest := l;
      if r < t.size && before t r !smallest then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap t !smallest !i;
        i := !smallest
      end
    done
  end;
  top
  [@@dynlint.zero_alloc]

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    Some (time, pop_exn t)

let peek_time t = if t.size = 0 then None else Some t.times.(0)
let is_empty t = t.size = 0 [@@dynlint.zero_alloc]
let size t = t.size [@@dynlint.zero_alloc]

(* Indexed binary min-heap in unboxed parallel arrays, with lazy
   cancellation.

   Layout: heap order lives in three scalar arrays indexed by heap
   position — [hkey] (a flat float array), [hseq] (FIFO tie-break) and
   [hslot] (the entry's slot id). Payloads and handles live in stable
   per-slot arrays ([value], [handle], plus [pos], the slot's current
   heap position, and the [dead] tombstone flags) and never move. So a
   sift step is a handful of unboxed int/float stores: no allocation,
   no pointer chasing, and no GC write barrier — the boxed-slot layout
   this replaces paid one allocation per inserted cell and a barriered
   store per sift level.

   Cancellation is lazy: [remove] invalidates the handle and sets the
   slot's tombstone in O(1); dead entries keep their heap position
   (their key/seq still participate in sift comparisons) but are
   skipped at [pop]/[min_key]/[peek] and swept out in one O(n)
   [compact] when tombstones outnumber the living. This matches the
   calendar's dominant pattern — most soft-state timers are cancelled
   before they fire. *)

type handle = { mutable index : int } (* slot id; -1 once out *)

type 'a t = {
  (* heap order, indexed by heap position *)
  mutable hkey : float array;
  mutable hseq : int array;
  mutable hslot : int array;
  (* stable state, indexed by slot id *)
  mutable value : 'a array; (* allocated on first insert: no dummy 'a *)
  mutable handle : handle array;
  mutable pos : int array;
  mutable dead : bool array;
  (* free-slot stack: every heap entry owns exactly one slot *)
  mutable free : int array;
  mutable free_top : int;
  mutable size : int; (* heap entries, tombstones included *)
  mutable ndead : int;
  mutable next_seq : int;
}

let nil = { index = -1 }
let min_capacity = 64
let shrink_threshold = 256

let full_free_stack cap = Array.init cap (fun i -> cap - 1 - i)

let create ?(initial_capacity = min_capacity) () =
  let cap = max 1 initial_capacity in
  { hkey = Array.make cap 0.0;
    hseq = Array.make cap 0;
    hslot = Array.make cap 0;
    value = [||];
    handle = Array.make cap nil;
    pos = Array.make cap 0;
    dead = Array.make cap false;
    free = full_free_stack cap;
    free_top = cap;
    size = 0; ndead = 0; next_seq = 0 }

let length t = t.size - t.ndead
let capacity t = Array.length t.hkey
let tombstones t = t.ndead

(* Swap-based sifts, tail-recursive on int positions only. The
   previous hole-based version kept loop state in two ref cells — four
   heap words per sift call on the per-event path (A002); carrying the
   lifted key as a float parameter instead would box it at every
   recursive call. Comparing and swapping directly in the flat arrays
   keeps every float in a register and the entire sift allocation-free
   at the cost of a few extra unboxed stores per level. The resulting
   array layout is identical to the hole version's, so heap order and
   golden determinism pins are unchanged. *)
let[@hot] swap t i j =
  let ki = t.hkey.(i) and si = t.hseq.(i) and li = t.hslot.(i) in
  t.hkey.(i) <- t.hkey.(j);
  t.hseq.(i) <- t.hseq.(j);
  t.hslot.(i) <- t.hslot.(j);
  t.hkey.(j) <- ki;
  t.hseq.(j) <- si;
  t.hslot.(j) <- li;
  t.pos.(t.hslot.(i)) <- i;
  t.pos.(li) <- j

let[@hot] rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if
      t.hkey.(i) < t.hkey.(p)
      || (t.hkey.(i) = t.hkey.(p) && t.hseq.(i) < t.hseq.(p))
    then begin
      swap t i p;
      sift_up t p
    end
  end

let[@hot] rec sift_down t i =
  let left = (2 * i) + 1 in
  if left < t.size then begin
    let right = left + 1 in
    let c =
      if
        right < t.size
        && (t.hkey.(right) < t.hkey.(left)
           || (t.hkey.(right) = t.hkey.(left)
              && t.hseq.(right) < t.hseq.(left)))
      then right
      else left
    in
    if
      t.hkey.(c) < t.hkey.(i)
      || (t.hkey.(c) = t.hkey.(i) && t.hseq.(c) < t.hseq.(i))
    then begin
      swap t i c;
      sift_down t c
    end
  end

let grow t =
  let cap = Array.length t.hkey in
  let ncap = 2 * cap in
  let copy_int a = let n = Array.make ncap 0 in Array.blit a 0 n 0 cap; n in
  let nk = Array.make ncap 0.0 in
  Array.blit t.hkey 0 nk 0 cap;
  t.hkey <- nk;
  t.hseq <- copy_int t.hseq;
  t.hslot <- copy_int t.hslot;
  t.pos <- copy_int t.pos;
  let nh = Array.make ncap nil in
  Array.blit t.handle 0 nh 0 cap;
  t.handle <- nh;
  let nd = Array.make ncap false in
  Array.blit t.dead 0 nd 0 cap;
  t.dead <- nd;
  let nf = Array.make ncap 0 in
  Array.blit t.free 0 nf 0 t.free_top;
  (* mint the new slot ids *)
  for id = cap to ncap - 1 do
    nf.(t.free_top + id - cap) <- id
  done;
  t.free <- nf;
  t.free_top <- t.free_top + cap

(* [value] lags the other arrays because a polymorphic array needs a
   seed element; the first inserted value becomes the filler. Freed
   slots keep their last payload until reused — bounded by capacity,
   and [clear] drops the whole array. *)
let ensure_capacity t v =
  if t.size = Array.length t.hkey then grow t;
  if Array.length t.value < Array.length t.hkey then begin
    let nv = Array.make (Array.length t.hkey) v in
    Array.blit t.value 0 nv 0 (Array.length t.value);
    t.value <- nv
  end

let insert t ~key v =
  ensure_capacity t v;
  t.free_top <- t.free_top - 1;
  let slot = t.free.(t.free_top) in
  let h = { index = slot } in
  t.value.(slot) <- v;
  t.handle.(slot) <- h;
  t.dead.(slot) <- false;
  let i = t.size in
  t.size <- i + 1;
  t.hkey.(i) <- key;
  t.hseq.(i) <- t.next_seq;
  t.hslot.(i) <- slot;
  t.pos.(slot) <- i;
  t.next_seq <- t.next_seq + 1;
  sift_up t i;
  h

let free_slot t slot =
  t.dead.(slot) <- false;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

(* Physically extract the root entry and release its slot. *)
let drop_root t =
  free_slot t t.hslot.(0);
  t.size <- t.size - 1;
  if t.size > 0 then begin
    let last = t.size in
    t.hkey.(0) <- t.hkey.(last);
    t.hseq.(0) <- t.hseq.(last);
    let ls = t.hslot.(last) in
    t.hslot.(0) <- ls;
    t.pos.(ls) <- 0;
    sift_down t 0
  end

(* Pop dead roots so the root, when present, is live. *)
let settle t =
  while t.size > 0 && t.dead.(t.hslot.(0)) do
    t.ndead <- t.ndead - 1;
    drop_root t
  done

let min_key t =
  settle t;
  if t.size = 0 then None else Some t.hkey.(0)

(* Zero-alloc variants of min_key/peek/pop for per-event callers: the
   option/tuple results above cost two blocks per engine step. The
   protocol is top (settle, slot id or -1), then top_key / slot_value
   to read the entry, then drop_top to extract it. A freed slot keeps
   its payload until the slot is reused by an insert, so reading
   slot_value immediately after drop_top is sound. *)
let[@hot] min_key_or t ~default =
  settle t;
  if t.size = 0 then default else t.hkey.(0)

let[@hot] top t =
  settle t;
  if t.size = 0 then -1 else t.hslot.(0)

let[@hot] top_key t = t.hkey.(0)
let[@hot] slot_value t slot = t.value.(slot)

let[@hot] drop_top t =
  t.handle.(t.hslot.(0)).index <- -1;
  drop_root t

let peek t =
  settle t;
  if t.size = 0 then None else Some (t.hkey.(0), t.value.(t.hslot.(0)))

let pop t =
  settle t;
  if t.size = 0 then None
  else begin
    let slot = t.hslot.(0) in
    let key = t.hkey.(0) and v = t.value.(slot) in
    t.handle.(slot).index <- -1;
    drop_root t;
    Some (key, v)
  end

let mem _t h = h.index >= 0

(* Drop tombstoned entries and re-heapify in O(n). *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let slot = t.hslot.(i) in
    if t.dead.(slot) then free_slot t slot
    else begin
      let d = !j in
      t.hkey.(d) <- t.hkey.(i);
      t.hseq.(d) <- t.hseq.(i);
      t.hslot.(d) <- slot;
      t.pos.(slot) <- d;
      incr j
    end
  done;
  t.size <- !j;
  t.ndead <- 0;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let remove t h =
  if h.index < 0 then false
  else begin
    let slot = h.index in
    h.index <- -1;
    t.dead.(slot) <- true;
    t.ndead <- t.ndead + 1;
    if t.ndead > t.size - t.ndead && t.size > min_capacity then compact t;
    true
  end

let clear t =
  for i = 0 to t.size - 1 do
    let slot = t.hslot.(i) in
    if not t.dead.(slot) then t.handle.(slot).index <- -1
  done;
  t.size <- 0;
  t.ndead <- 0;
  t.next_seq <- 0;
  let cap = Array.length t.hkey in
  if cap > shrink_threshold then begin
    let cap = min_capacity in
    t.hkey <- Array.make cap 0.0;
    t.hseq <- Array.make cap 0;
    t.hslot <- Array.make cap 0;
    t.handle <- Array.make cap nil;
    t.pos <- Array.make cap 0;
    t.dead <- Array.make cap false;
    t.free <- full_free_stack cap;
    t.free_top <- cap
  end
  else begin
    Array.fill t.dead 0 cap false;
    t.free <- full_free_stack cap;
    t.free_top <- cap
  end;
  (* always drop payload references so cleared calendars leak nothing *)
  t.value <- [||]

(* The host's pace, for scaling measured host times.

   The benchmark shares a host whose caches and memory other tenants
   load at will: the same multicast_tree slice took from 45 to 115 ms
   within minutes, and the median over a 30 s run moved by a quarter
   from one run to the next. [probe] times a fixed piece of work with
   no code from the repository in it: random lookups and in-place
   updates in a table of 2^17 entries laid out as the stdlib's hash
   table is (a bucket array pointing at cells scattered over about
   5 MiB, past the L2 cache), so each lookup is two dependent loads.
   Before each probe a walk over a 16 MiB buffer brings the caches to
   the same state whatever ran before, so the probe's time follows the
   host's pace and little of what the program left in the caches. All
   of it lives off the OCaml heap, so it changes neither the heap
   figures nor the GC's pacing (a stdlib table of this size, live on
   the heap, let the multicast_tree heap peak twice as high). The
   harness probes after every slice, untimed, and scales each block's
   slice times by [reference_ns] over the block's mean probe time: a
   scaled time is the time the slice would have taken at the pace at
   which the probe takes [reference_ns].

   Choices measured on a 2-vCPU Xeon VM (2.0 GHz) against the
   block-to-block spread of multicast_tree and fuzz_battery:
   arithmetic probes (an integer hash chain, MD5) and a warm hash
   table did not slow down when the simulation did; a chase through
   32 MiB of memory did not either; the table probed without the walk
   tracked the host but ran 1.6 times faster after a fuzz_battery
   scenario than after a multicast_tree slice, so a change that shrank
   the program's footprint would have read as a slower host. With the
   walk that gap is about 15%. *)

let entries = 1 lsl 17
let rounds = 8000
let walk_words = 1 lsl 21

(* A round figure near the probe's time on that VM. *)
let reference_ns = 600_000.0

module A = Bigarray.Array1

let ints n = A.create Bigarray.int Bigarray.c_layout n

(* [buckets.{k}] is the offset in [cells] of key [k]'s cell, a cell
   being (key, value, two words of padding). The cells sit in a
   shuffled order, as a heap fills with cells allocated at different
   times. *)
let buckets, cells =
  let order = Array.init entries (fun i -> i) in
  let rng = Random.State.make [| 20261017 |] in
  for i = entries - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let buckets = ints entries and cells = ints (4 * entries) in
  A.fill cells 0;
  Array.iteri
    (fun i pos ->
      cells.{4 * pos} <- i;
      buckets.{i} <- 4 * pos)
    order;
  (buckets, cells)

let walk_buf =
  let b = ints walk_words in
  A.fill b 1;
  b

(* One read per 64-byte line. *)
let walk () =
  let acc = ref 0 in
  let i = ref 0 in
  while !i < walk_words do
    acc := !acc + A.unsafe_get walk_buf !i;
    i := !i + 8
  done;
  ignore (Sys.opaque_identity !acc)

let state = ref 0x2545F4914F6CDD1D

let xorshift x =
  let x = x lxor ((x lsl 13) land max_int) in
  let x = x lxor (x lsr 7) in
  x lxor ((x lsl 17) land max_int)

(* Host nanoseconds for one round of lookups, each probe on fresh
   keys. *)
let probe () =
  walk ();
  let t0 = Span.now_ns () in
  let x = ref !state and sum = ref 0 in
  for _ = 1 to rounds do
    x := xorshift !x;
    let key = !x land (entries - 1) in
    let c = A.unsafe_get buckets key in
    if A.unsafe_get cells c = key then begin
      let v = A.unsafe_get cells (c + 1) in
      sum := !sum + v;
      A.unsafe_set cells (c + 1) (v + 1)
    end
  done;
  state := !x;
  ignore (Sys.opaque_identity !sum);
  float_of_int (Span.now_ns () - t0)

(* [reference_ns] over the mean of [k] probes. *)
let factor k =
  let sum = ref 0.0 in
  for _ = 1 to k do
    sum := !sum +. probe ()
  done;
  reference_ns /. (!sum /. float_of_int k)

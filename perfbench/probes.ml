(* Calendar probes: the public Heap and Engine.every
   APIs in a steady pop-and-reschedule loop at the load a workload
   reported, so a calendar change can be costed at the load the
   workload actually puts on it. The workload reports, per calendar,
   the number of live entries and how far ahead an entry is scheduled
   again (read from its own configuration or measured over its
   measured phase). Each probe fills the calendar to that many
   entries, then repeatedly extracts the earliest entry and schedules
   it again that interval later, for a fixed op budget or time budget,
   whichever ends first; it reports ns and GC minor words per
   pop-plus-reschedule. A calendar the workload does not use is not
   probed and reads 0. *)

module Heap = Softstate_util.Heap
module Rng = Softstate_util.Rng
module Dist = Softstate_util.Dist
module Engine = Softstate_sim.Engine

(* How far ahead of the popped entry's time it is scheduled again. *)
type interval =
  | Fixed of float  (* a fixed lifetime *)
  | Exponential of float  (* with this mean *)

type load = { entries : int; interval : interval }

type calendar = {
  heap : load;  (* one-shot events *)
  periodic : (int * float) list;  (* (timers, period) of each class *)
}

let timers periodic = List.fold_left (fun acc (n, _) -> acc + n) 0 periodic
let unused = { entries = 0; interval = Fixed 0.0 }
let no_calendar = { heap = unused; periodic = [] }

let interval_to_string = function
  | Fixed x -> Printf.sprintf "fixed %.4g s" x
  | Exponential m -> Printf.sprintf "exponential mean %.4g s" m

let load_to_string l =
  if l.entries = 0 then "unused"
  else Printf.sprintf "%d entries, %s" l.entries (interval_to_string l.interval)

let describe c =
  Printf.sprintf "heap %s; periodic %s" (load_to_string c.heap)
    (match c.periodic with
    | [] -> "none"
    | l ->
        String.concat " + "
          (List.map (fun (n, p) -> Printf.sprintf "%d every %g s" n p) l))

let draw rng = function
  | Fixed x -> x
  | Exponential m -> Dist.exponential rng ~rate:(1.0 /. m)

(* The first entries are spread over one interval, as a calendar in
   steady state holds them. *)
let first rng i = Dist.uniform rng ~lo:0.0 ~hi:1.0 *. draw rng i

let budget_ns = 150_000_000
let max_ops = 1_000_000

let timed_loop step =
  let w0 = Gc.minor_words () in
  let t0 = Span.now_ns () in
  let ops = ref 0 in
  while
    !ops < max_ops
    && (!ops land 1023 <> 0 || Span.now_ns () - t0 < budget_ns)
  do
    step ();
    incr ops
  done;
  let dt = Span.now_ns () - t0 in
  let dw = Gc.minor_words () -. w0 in
  (float_of_int dt /. float_of_int !ops, dw /. float_of_int !ops)

let heap ~rng { entries; interval } =
  let h = Heap.create () in
  for _ = 1 to entries do
    ignore (Heap.insert h ~key:(first rng interval) ())
  done;
  timed_loop (fun () ->
      let slot = Heap.top h in
      if slot >= 0 then begin
        let key = Heap.top_key h in
        Heap.drop_top h;
        ignore (Heap.insert h ~key:(key +. draw rng interval) ())
      end)

(* Periodic timers rearm themselves: one engine step is one pop plus
   one reschedule on the periodic calendar. *)
let periodic classes =
  let e = Engine.create () in
  List.iter
    (fun (n, period) ->
      for _ = 1 to n do
        let (_ : unit -> bool) = Engine.every e ~period (fun _ -> ()) in
        ()
      done)
    classes;
  timed_loop (fun () -> ignore (Engine.step e))

let run ~seed c =
  let rng = Rng.create seed in
  let heap_rng = Rng.split rng in
  let probe entries f = if entries = 0 then (0.0, 0.0) else f () in
  let hn, hw = probe c.heap.entries (fun () -> heap ~rng:heap_rng c.heap) in
  let periodic_n = timers c.periodic in
  let pn, pw = probe periodic_n (fun () -> periodic c.periodic) in
  [ ("sim.heap_occupancy", float_of_int c.heap.entries);
    ("sim.heap_ns_per_op", hn); ("sim.heap_words_per_op", hw);
    ("sim.periodic_occupancy", float_of_int periodic_n);
    ("sim.periodic_ns_per_op", pn); ("sim.periodic_words_per_op", pw) ]

(* In-memory span recorder for the traced run.

   A span is one timed call into a layer's public function, opened by
   [enter] and closed by [exit]. Each span is numbered when it opens
   and records the number of the span that was open around it (its
   cause, -1 for a root). Spans nest: a span's self time is its
   duration minus the durations of the spans opened inside it, so the
   self times of one root span partition its wall time exactly. Every
   span carries the id of the engine event (or fuzz scenario) it ran
   under, so the spans of one event can be grouped.

   Aggregates (calls, total and self nanoseconds per span name) are
   kept for every span. The raw spans are kept in a preallocated
   in-memory buffer (the first [capacity] closed spans; later ones are
   aggregated and counted as overflow), allocated by [reset], and
   written out at the end of the run by [write]. Nothing here allocates on the enter/exit path:
   the clock is read unboxed and all state lives in int arrays. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type name = int

let max_names = 64
let names = Array.make max_names ""
let name_count = ref 0

let name s =
  let rec find i =
    if i >= !name_count then begin
      if !name_count >= max_names then invalid_arg "Span.name: too many names";
      names.(i) <- s;
      incr name_count;
      i
    end
    else if String.equal names.(i) s then i
    else find (i + 1)
  in
  find 0

(* per-name aggregates *)
let calls = Array.make max_names 0
let total_ns = Array.make max_names 0
let self_ns = Array.make max_names 0

(* open-span stack *)
let max_depth = 64
let stack_name = Array.make max_depth 0
let stack_start = Array.make max_depth 0
let stack_child = Array.make max_depth 0
let stack_seq = Array.make max_depth 0
let depth = ref 0
let next_seq = ref 0

(* raw span buffer: allocated by the first [reset], so a run that
   never traces carries none of it *)
let capacity = 1 lsl 17

type buffer = {
  r_name : int array;
  r_id : int array;
  r_start : int array;
  r_dur : int array;
  r_self : int array;
  r_seq : int array;
  r_parent : int array;
}

let no_buffer =
  { r_name = [||]; r_id = [||]; r_start = [||]; r_dur = [||]; r_self = [||];
    r_seq = [||]; r_parent = [||] }

let buffer = ref no_buffer
let recorded = ref 0
let overflow = ref 0

let current_id = ref 0
let origin = ref 0

let set_id id = current_id := id

let reset () =
  if !buffer == no_buffer then begin
    let a () = Array.make capacity 0 in
    buffer :=
      { r_name = a (); r_id = a (); r_start = a (); r_dur = a ();
        r_self = a (); r_seq = a (); r_parent = a () }
  end;
  Array.fill calls 0 max_names 0;
  Array.fill total_ns 0 max_names 0;
  Array.fill self_ns 0 max_names 0;
  depth := 0;
  next_seq := 0;
  recorded := 0;
  overflow := 0;
  current_id := 0;
  origin := now_ns ()

let enter n =
  let d = !depth in
  stack_name.(d) <- n;
  stack_child.(d) <- 0;
  stack_seq.(d) <- !next_seq;
  incr next_seq;
  depth := d + 1;
  stack_start.(d) <- now_ns ()

let exit () =
  let t = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let n = stack_name.(d) in
  let start = stack_start.(d) in
  let dur = t - start in
  let self = dur - stack_child.(d) in
  calls.(n) <- calls.(n) + 1;
  total_ns.(n) <- total_ns.(n) + dur;
  self_ns.(n) <- self_ns.(n) + self;
  if d > 0 then stack_child.(d - 1) <- stack_child.(d - 1) + dur;
  let i = !recorded in
  let b = !buffer in
  if i < Array.length b.r_name then begin
    b.r_name.(i) <- n;
    b.r_id.(i) <- !current_id;
    b.r_start.(i) <- start - !origin;
    b.r_dur.(i) <- dur;
    b.r_self.(i) <- self;
    b.r_seq.(i) <- stack_seq.(d);
    b.r_parent.(i) <- (if d > 0 then stack_seq.(d - 1) else -1);
    recorded := i + 1
  end
  else incr overflow

let calls_of n = calls.(n)
let total_of n = total_ns.(n)
let self_of n = self_ns.(n)

(* Sum of self times over every span name: the traced wall time the
   spans account for. *)
let self_sum () =
  let s = ref 0 in
  for n = 0 to !name_count - 1 do
    s := !s + self_ns.(n)
  done;
  !s

(* Mean self nanoseconds per call, 0 when never called. *)
let self_per_call n =
  if calls.(n) = 0 then 0.0
  else float_of_int self_ns.(n) /. float_of_int calls.(n)

let total_per_call n =
  if calls.(n) = 0 then 0.0
  else float_of_int total_ns.(n) /. float_of_int calls.(n)

let write path =
  let oc = open_out path in
  output_string oc "span\tparent\tid\tname\tstart_ns\tdur_ns\tself_ns\n";
  let b = !buffer in
  for i = 0 to !recorded - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\n" b.r_seq.(i) b.r_parent.(i)
      b.r_id.(i) names.(b.r_name.(i)) b.r_start.(i) b.r_dur.(i) b.r_self.(i)
  done;
  close_out oc

let recorded_count () = !recorded
let overflow_count () = !overflow

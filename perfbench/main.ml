(* The repository benchmark: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--spans-out FILE]

   --trace 0 sets the workload up several times (reporting the median
   set-up time), measures it untraced for whole blocks of slices
   ending nearest S seconds, checks its outputs and prints every
   end-to-end metric. --trace 1 measures an untraced reference for
   whole blocks ending nearest a third of S, then sets the workload up
   again with spans on and runs exactly as many slices traced; it
   prints every per-layer metric, checks that the traced simulation's
   fingerprint equals the untraced one's, and writes the raw spans to
   FILE. The last line of standard output is the JSON result.

   The end-to-end host times are scaled to a reference pace of the
   host (see pace.ml); the as-measured figures are printed beside
   them. *)

type workload = {
  name : string;
  start : seed:int -> traced:bool -> Run_state.t;
}

let workloads =
  [ { name = "multicast_tree";
      start =
        (fun ~seed ~traced ->
          Announce.start (Announce.multicast_tree seed) ~traced) };
    { name = "sstp_group";
      start = (fun ~seed ~traced -> Group.start seed ~traced) };
    { name = "fuzz_battery";
      start = (fun ~seed:_ ~traced -> Battery.start ~traced) } ]

(* end-to-end metrics, with units, in report order *)
let end_to_end =
  [ ("setup_s", "s"); ("sim_s_per_wall_s", "ratio");
    ("events_per_s", "events/s"); ("slices_per_s", "1/s");
    ("slice_ms_p50", "ms"); ("slice_ms_tail", "ms");
    ("minor_words_per_event", "words"); ("minor_words_per_slice", "words");
    ("live_words", "words"); ("peak_heap_words", "words");
    ("consistency", "fraction") ]

let per_layer =
  [ ("sim.events", "count"); ("sim.step_ns", "ns"); ("sim.residual_ns", "ns");
    ("sim.pending_mean", "count"); ("sim.high_water", "count");
    ("sim.minor_words_per_step", "words");
    ("sim.heap_occupancy", "count"); ("sim.heap_ns_per_op", "ns");
    ("sim.heap_words_per_op", "words");
    ("sim.periodic_occupancy", "count"); ("sim.periodic_ns_per_op", "ns");
    ("sim.periodic_words_per_op", "words");
    ("net.kick_calls", "count"); ("net.kick_ns", "ns"); ("net.served", "count");
    ("net.delivered", "count"); ("net.dropped", "count");
    ("net.deliveries_per_served", "ratio");
    ("core.fetch_calls", "count"); ("core.fetch_ns", "ns");
    ("core.deliver_calls", "count"); ("core.deliver_ns", "ns");
    ("core.live_keys", "count"); ("core.redundant_fraction", "fraction");
    ("core.nacks_sent", "count"); ("core.nacks_suppressed", "count");
    ("core.nack_yield", "ratio"); ("core.false_expiries", "count");
    ("core.stale_purged", "count");
    ("sstp.publish_calls", "count"); ("sstp.publish_ns", "ns");
    ("sstp.fetch_ns", "ns"); ("sstp.deliver_ns", "ns");
    ("sstp.feedback_offered", "count"); ("sstp.feedback_sent", "count");
    ("sstp.suppressed_ratio", "fraction"); ("sstp.data_packets", "count");
    ("sstp.min_consistency", "fraction");
    ("trace.ops", "count");
    ("check.generate_ns", "ns"); ("check.run_ns", "ns");
    ("check.rerun_ns", "ns");
    ("check.violations", "count") ]
  @ List.map
      (fun n -> ("check.oracle_ns." ^ n, "ns"))
      Softstate_check.Oracle.names
  @ [ ("obs.trace_events", "count"); ("obs.events_dropped", "count");
      ("harness.span_coverage", "fraction");
      ("harness.trace_overhead", "ratio") ]

(* Spans whose call count and mean self time are reported as
   [<span>_calls] / [<span>_ns] (the catalogue keeps the ones it
   names). *)
let call_spans =
  [ "net.kick"; "core.fetch"; "core.deliver"; "sstp.fetch"; "sstp.deliver";
    "sstp.publish" ]

(* The traced run's spans must account for this share of its wall
   time; the rest is loop and clock overhead outside any span. *)
let coverage_tolerance = 0.9

let setup_reps = 3

(* A set-up is scaled by the mean pace of this many probes before it
   and as many after it. *)
let setup_probes = 8

(* The tail is read over blocks of this many slices or more (whole
   granules): 10 slices beyond its rank puts it at p80 or higher. *)
let min_block = 50

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---- measurement ---------------------------------------------------- *)

type measured = {
  slices : int;
  slice_ns : float array;  (* the same, scaled to the reference pace *)
  raw_s : float;  (* summed raw slice time *)
  wall_s : float;  (* summed scaled slice time *)
  pace : float;  (* mean scale factor over the slices *)
  events : int;
  sim_s : float;
  minor_words : float;
  window_events : int;  (* over the fixed window *)
  window_words : float;
}

(* The tail block: the fewest whole granules holding [min_block]
   slices. Its length depends on the workload only. *)
let block (r : Run_state.t) =
  let g = r.Run_state.granule in
  g * ((min_block + g - 1) / g)

(* Run whole tail blocks, at least covering the window, and stop at
   the block boundary nearest the end of the budget; or, given
   [exact], run exactly that many slices.
   [at_window] runs (untimed) right after the window's last slice. *)
let measure ?(at_window = ignore) ?exact (r : Run_state.t) ~budget_ns =
  r.Run_state.mark ();
  let e0 = r.Run_state.events () and s0 = r.Run_state.sim_time () in
  let times = ref (Array.make 1024 0.0) and n = ref 0 in
  let probes = ref (Array.make 1024 0.0) in
  let words = ref 0.0 in
  let window_events = ref 0 and window_words = ref 0.0 in
  let t_start = Span.now_ns () in
  let block = block r in
  let stop () =
    match exact with
    | Some k -> !n >= k
    | None ->
        !n >= max block r.Run_state.window
        && !n mod block = 0
        &&
        let elapsed = Span.now_ns () - t_start in
        elapsed + (elapsed / (!n / block) / 2) >= budget_ns
  in
  while not (stop ()) do
    let w0 = Gc.minor_words () in
    let a = Span.now_ns () in
    r.Run_state.slice ();
    let b = Span.now_ns () in
    words := !words +. (Gc.minor_words () -. w0);
    let grow a =
      if !n = Array.length !a then begin
        let bigger = Array.make (2 * !n) 0.0 in
        Array.blit !a 0 bigger 0 !n;
        a := bigger
      end
    in
    grow times;
    grow probes;
    !times.(!n) <- float_of_int (b - a);
    r.Run_state.sample ();
    !probes.(!n) <- Pace.probe ();
    incr n;
    if !n = r.Run_state.window then begin
      window_events := r.Run_state.events () - e0;
      window_words := !words;
      at_window ()
    end
  done;
  let raw = Array.sub !times 0 !n in
  (* each block's slices scaled by the block's own pace *)
  let scaled = Array.copy raw in
  let k = ref 0 in
  while !k < !n do
    let len = min block (!n - !k) in
    let sum = ref 0.0 in
    for i = !k to !k + len - 1 do
      sum := !sum +. !probes.(i)
    done;
    let f = Pace.reference_ns /. (!sum /. float_of_int len) in
    for i = !k to !k + len - 1 do
      scaled.(i) <- raw.(i) *. f
    done;
    k := !k + len
  done;
  let total a = Array.fold_left ( +. ) 0.0 a /. 1e9 in
  { slices = !n; slice_ns = scaled;
    raw_s = total raw; wall_s = total scaled;
    pace = total scaled /. total raw;
    events = r.Run_state.events () - e0;
    sim_s = r.Run_state.sim_time () -. s0;
    minor_words = !words; window_events = !window_events;
    window_words = !window_words }

(* Slice times are read per block and averaged over the blocks. The
   host's speed drifts over seconds, so one block's slices ran at much
   the same speed: the mean over blocks weighs each stretch of the run
   alike, where a reading over all slices would jump between the
   host's speeds. [per_block r m f] is the mean over blocks of [f]
   applied to each block's slice times, in slice order. *)
let per_block (r : Run_state.t) m f =
  let b = block r in
  let blocks = Array.length m.slice_ns / b in
  let sum = ref 0.0 in
  for k = 0 to blocks - 1 do
    sum := !sum +. f (Array.sub m.slice_ns (k * b) b)
  done;
  !sum /. float_of_int blocks

(* The median over slice classes of each class's median, a slice's
   class being its position in the workload's cycle (the granule; a
   block is whole granules). The group's 5 s report timers fire in
   every other 2.5 s slice, so its slices fall into two classes about
   a third apart: a median over all of a block's slices sits in the
   gap between them and jumps across it from seed to seed. *)
let p50 (r : Run_state.t) m =
  let g = r.Run_state.granule in
  per_block r m (fun a ->
      median
        (Array.init g (fun c ->
             median (Array.init (Array.length a / g) (fun j -> a.((j * g) + c))))))

(* Each block's highest percentile with at least 10 samples beyond it.
   The block length and the rank are fixed per workload, so the rank
   always lands on the same class of slice, however many blocks the
   budget allowed. Returns the value, the 1-based rank, the block
   length and the number of blocks. *)
let tail r m =
  let b = block r in
  let rank = b - 11 in
  let at_rank a =
    Array.sort Float.compare a;
    a.(rank)
  in
  (per_block r m at_rank, rank + 1, b, Array.length m.slice_ns / b)

(* ---- output --------------------------------------------------------- *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics units =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit) ->
           let v = try List.assoc name metrics with Not_found -> 0.0 in
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_number v) unit)
         units)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let print_checks checks =
  List.iter
    (fun c ->
      Printf.printf "check %-52s %s (%s)\n" c.Run_state.what
        (if c.Run_state.failed = 0 then "ok" else "FAILED")
        c.Run_state.detail)
    checks

let tally checks =
  List.fold_left
    (fun (a, f) c -> (a + c.Run_state.attempted, f + c.Run_state.failed))
    (0, 0) checks

(* ---- the two modes -------------------------------------------------- *)

let untraced w ~seed ~seconds =
  (* the harness's own heap, compacted, before anything is set up: the
     heap figures are the workload's growth over it *)
  Gc.compact ();
  let base = Gc.stat () in
  let setups = Array.make setup_reps 0.0 in
  let raw_setups = Array.make setup_reps 0.0 in
  let set_up i =
    Gc.compact ();
    let before = Pace.factor setup_probes in
    let t0 = Span.now_ns () in
    let r = w.start ~seed ~traced:false in
    let dt = float_of_int (Span.now_ns () - t0) /. 1e9 in
    raw_setups.(i) <- dt;
    setups.(i) <- dt *. (before +. Pace.factor setup_probes) /. 2.0;
    r
  in
  (* The measured simulation is the first set-up; the others come after
     the measured phase and its checks, so the heap figures see one
     set-up only, as a single run would. *)
  let r = set_up 0 in
  Gc.compact ();
  (* heap figures at the end of the window, the simulation live *)
  let live_words = ref 0 and peak = ref 0 in
  let at_window () =
    Gc.compact ();
    live_words := (Gc.stat ()).Gc.live_words - base.Gc.live_words;
    peak := (Gc.quick_stat ()).Gc.top_heap_words - base.Gc.heap_words
  in
  let m = measure r ~at_window ~budget_ns:(int_of_float (seconds *. 1e9)) in
  let consistency = r.Run_state.consistency () in
  let tail_v, tail_rank, tail_block, tail_blocks = tail r m in
  let window_fp = r.Run_state.window_fingerprint () in
  let run_checks = r.Run_state.checks () in
  let p50 = p50 r m and window = r.Run_state.window in
  ignore (Sys.opaque_identity r);
  for i = 1 to setup_reps - 1 do
    ignore (Sys.opaque_identity (set_up i))
  done;
  let per x = x /. m.wall_s in
  let ratio a b = if b = 0 then nan else a /. float_of_int b in
  let metrics =
    [ ("setup_s", median setups);
      ("sim_s_per_wall_s", per m.sim_s);
      ("events_per_s", per (float_of_int m.events));
      ("slices_per_s", per (float_of_int m.slices));
      ("slice_ms_p50", p50 /. 1e6);
      ("slice_ms_tail", tail_v /. 1e6);
      ("minor_words_per_event", ratio m.window_words m.window_events);
      ("minor_words_per_slice", ratio m.window_words window);
      ("live_words", float_of_int !live_words);
      ("peak_heap_words", float_of_int !peak);
      ("consistency", consistency) ]
  in
  let checks =
    run_checks
    @ [ Run_state.check "every end-to-end metric is finite and non-zero"
          (List.for_all (fun (_, v) -> Float.is_finite v && v <> 0.0) metrics)
          (String.concat " "
             (List.filter_map
                (fun (n, v) ->
                  if Float.is_finite v && v <> 0.0 then None else Some n)
                metrics)) ]
  in
  let attempted, failed = tally checks in
  Printf.printf
    "workload %s seed %d trace 0: %d slices, %.3f s measured, %.3f s at the \
     reference pace (mean scale %.4f); host times below are scaled\n"
    w.name seed m.slices m.raw_s m.wall_s m.pace;
  List.iter
    (fun (name, unit) ->
      let v = List.assoc name metrics in
      match name with
      | "setup_s" ->
          let show a =
            String.concat " "
              (Array.to_list (Array.map (Printf.sprintf "%.4f") a))
          in
          Printf.printf "%-24s %.6g %s (median of %s; as measured %s)\n" name
            v unit (show setups) (show raw_setups)
      | "slice_ms_tail" ->
          Printf.printf
            "%-24s %.6g %s (p%.1f: rank %d of each block of %d slices, %d \
             beyond; mean over %d blocks)\n"
            name v unit
            (100.0 *. float_of_int tail_rank /. float_of_int tail_block)
            tail_rank tail_block (tail_block - tail_rank) tail_blocks
      | _ -> Printf.printf "%-24s %.6g %s\n" name v unit)
    end_to_end;
  if w.name = "fuzz_battery" then begin
    Printf.printf
      "%-24s %.6g scenarios/s (slices_per_s: one slice is one scenario)\n"
      "scenarios_per_s" (List.assoc "slices_per_s" metrics);
    Printf.printf "%-24s %.6g words (minor_words_per_slice)\n"
      "minor_words_per_scenario" (List.assoc "minor_words_per_slice" metrics)
  end;
  Printf.printf "%-24s %.6g fraction (%d of %d failed)\n" "fail_ratio"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  Printf.printf "fingerprint %s (window)\n" window_fp;
  print_checks checks;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics end_to_end

let traced w ~seed ~seconds ~spans_out =
  (* untraced reference over a third of the budget *)
  let reference = w.start ~seed ~traced:false in
  Gc.compact ();
  let m_ref =
    measure reference ~budget_ns:(int_of_float (seconds /. 3.0 *. 1e9))
  in
  let n = m_ref.slices in
  let fp_ref = reference.Run_state.fingerprint () in
  let window_ref = reference.Run_state.window_fingerprint () in
  ignore (Sys.opaque_identity reference);
  Gc.compact ();
  let r = w.start ~seed ~traced:true in
  Gc.compact ();
  Span.reset ();
  (* the same slices as the reference *)
  let m = measure r ~exact:n ~budget_ns:0 in
  let fp = r.Run_state.fingerprint () in
  let window_fp = r.Run_state.window_fingerprint () in
  let spans_self = float_of_int (Span.self_sum ()) /. 1e9 in
  let coverage = spans_self /. m.raw_s in
  let overhead = m.wall_s /. m_ref.wall_s in
  let call_metrics =
    List.concat_map
      (fun s ->
        let id = Span.name s in
        [ (s ^ "_calls", float_of_int (Span.calls_of id));
          (s ^ "_ns", Span.self_per_call id) ])
      call_spans
  in
  let layers = r.Run_state.layers () in
  let calendar = r.Run_state.calendar () in
  let probes = Probes.run ~seed calendar in
  let metrics =
    layers @ call_metrics @ probes
    @ [ ( "sim.minor_words_per_step",
          let steps = Span.calls_of Advance.step_name in
          if steps = 0 then 0.0 else m.minor_words /. float_of_int steps );
        ("harness.span_coverage", coverage);
        ("harness.trace_overhead", overhead) ]
  in
  (match spans_out with Some path -> Span.write path | None -> ());
  let recorded = Span.recorded_count () and overflow = Span.overflow_count () in
  let checks =
    r.Run_state.checks ()
    @ [ Run_state.check "traced fingerprint = untraced fingerprint"
          (String.equal fp fp_ref && String.equal window_fp window_ref)
          (Printf.sprintf "traced %s untraced %s after %d slices" fp fp_ref n);
        Run_state.check
          (Printf.sprintf "span coverage within [%.2f, 1]" coverage_tolerance)
          (coverage >= coverage_tolerance && coverage <= 1.0)
          (Printf.sprintf "%.4f of %.3f s traced wall time" coverage m.raw_s) ]
  in
  let attempted, failed = tally checks in
  Printf.printf
    "workload %s seed %d trace 1: %d slices, %.3f s traced vs %.3f s \
     untraced (as measured; %.3f vs %.3f s at the reference pace), %d \
     spans kept (%d beyond the buffer)\n"
    w.name seed n m.raw_s m_ref.raw_s m.wall_s m_ref.wall_s recorded overflow;
  List.iter
    (fun (name, unit) ->
      let v = try List.assoc name metrics with Not_found -> 0.0 in
      Printf.printf "%-34s %.6g %s\n" name v unit)
    per_layer;
  Printf.printf "calendar probes at %s\n" (Probes.describe calendar);
  Printf.printf "fingerprint %s (window %s)\n" fp window_fp;
  print_checks checks;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics per_layer

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--spans-out FILE]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and spans_out = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--spans-out" :: v :: rest -> spans_out := Some v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None -> usage ()
  | Some w ->
      if !trace = 0 then untraced w ~seed:!seed ~seconds:!seconds
      else traced w ~seed:!seed ~seconds:!seconds ~spans_out:!spans_out

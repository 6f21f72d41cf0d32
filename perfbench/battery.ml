(* fuzz_battery: a pinned stretch of the fuzzer's seed chain, each
   scenario run and then judged by the full oracle battery (replay and
   jobs included) — the work [Fuzz.check_scenario] does per scenario.
   One slice is one scenario. The untraced slice is [Oracle.check] over
   [Scenario.run]'s outcome with the battery [Fuzz.check_scenario]
   builds; the traced slice makes the same calls one oracle at a time
   so each gets a span.

   Scenario costs span four orders of magnitude (a gossip run takes
   0.1 ms, a large core run over a topology seconds), so a stretch
   drawn afresh per seed would make every figure depend on which
   scenarios the seed happened to draw. The pool is therefore pinned:
   the first [pool] scenarios of the chain at the fuzz-smoke CI seed,
   which cover all three scenario kinds, visited in chain order; the
   benchmark seed does not change it. The measured phase runs whole
   passes over the pool. *)

module Rng = Softstate_util.Rng
module Check = Softstate_check
module Scenario = Check.Scenario
module Oracle = Check.Oracle
module Fuzz = Check.Fuzz

let chain_seed = 20260807
let pool = 19

let consistency_of (o : Scenario.outcome) =
  match o.Scenario.payload with
  | Scenario.Core_result r -> r.Softstate_core.Experiment.avg_consistency
  | Scenario.Sstp_result r -> r.Scenario.avg_consistency
  | Scenario.Gossip_result r ->
      float_of_int r.Softstate_core.Gossip.infected
      /. float_of_int (max 1 r.Softstate_core.Gossip.nodes)

let start ~traced =
  let seeds = Fuzz.scenario_seeds ~seed:chain_seed ~count:pool in
  let gen_t0 = Span.now_ns () in
  let scenarios = Array.map (fun s -> Scenario.generate (Rng.create s)) seeds in
  let generate_ns =
    float_of_int (Span.now_ns () - gen_t0) /. float_of_int pool
  in
  let run_name = Span.name "check.run" in
  let rerun_name = Span.name "check.rerun" in
  let oracle_names =
    List.map (fun n -> (n, Span.name ("check.oracle." ^ n))) Oracle.names
  in
  let rerun =
    if traced then (fun s ->
      Span.enter rerun_name;
      let o = Scenario.run s in
      Span.exit ();
      o)
    else Scenario.run
  in
  let battery = Oracle.all ~rerun () in
  let battery_named =
    List.map
      (fun (o : Oracle.t) -> (o, List.assoc o.Oracle.name oracle_names))
      battery
  in
  let index = ref 0 in
  let last_outcome = ref None and last_violations = ref [] in
  let slice () =
    let s = scenarios.(!index mod pool) in
    incr index;
    if traced then begin
      Span.set_id !index;
      Span.enter run_name;
      let outcome = Scenario.run s in
      Span.exit ();
      let v =
        List.concat_map
          (fun ((o : Oracle.t), name) ->
            Span.enter name;
            let v = o.Oracle.check outcome in
            Span.exit ();
            v)
          battery_named
      in
      last_outcome := Some outcome;
      last_violations := v
    end
    else begin
      let outcome = Scenario.run s in
      last_violations := Oracle.check battery outcome;
      last_outcome := Some outcome
    end
  in
  let events = ref 0 and sim = ref 0.0 in
  let violations = ref 0 and failed = ref 0 in
  let trace_events = ref 0 and dropped = ref 0 in
  let c_sum = ref 0.0 and c_lo = ref 1.0 and c_hi = ref 0.0 in
  let slack_bad = ref 0 and first_violations = ref 0 in
  let pass_violations = ref 0 in
  let window_c = ref nan and window_fp = ref "" in
  let digest = ref (Digest.string "") in
  let sample () =
    match !last_outcome with
    | None -> ()
    | Some o ->
        let n = List.length o.Scenario.events + o.Scenario.events_dropped in
        events := !events + n;
        sim := !sim +. o.Scenario.horizon;
        trace_events := !trace_events + List.length o.Scenario.events;
        dropped := !dropped + o.Scenario.events_dropped;
        let nv = List.length !last_violations in
        if !index = 1 then first_violations := nv;
        if !index <= pool then pass_violations := !pass_violations + nv;
        violations := !violations + nv;
        if nv > 0 then incr failed;
        let c = consistency_of o in
        if c < !c_lo then c_lo := c;
        if c > !c_hi then c_hi := c;
        (match o.Scenario.payload with
        | Scenario.Core_result r ->
            let open Softstate_core.Experiment in
            if r.packets_sent - r.packets_delivered - r.packets_dropped < 0 then
              incr slack_bad
        | _ -> ());
        digest :=
          Digest.string
            (Printf.sprintf "%s %d %h %h %d" (Digest.to_hex !digest) nv c
               o.Scenario.horizon n);
        if !index <= pool then c_sum := !c_sum +. c;
        if !index = pool then begin
          window_c := !c_sum /. float_of_int pool;
          window_fp := Digest.to_hex !digest
        end;
        last_outcome := None;
        (* each scenario starts from a compacted heap, outside the timed
           slice: otherwise the heap peak depends on how far the major
           GC got with the previous scenarios' garbage while the jobs
           oracle's second domain ran, and moved by a quarter between
           runs of the same pool *)
        Gc.compact ()
  in
  (* warm-up: one check of the pool's first scenario *)
  ignore (Oracle.check battery (Scenario.run scenarios.(0)));
  let mark () = () in
  let layers () =
    let n = max 1 !index in
    let per name = float_of_int (Span.total_of name) /. float_of_int n in
    let self_per name = float_of_int (Span.self_of name) /. float_of_int n in
    [ ("check.generate_ns", generate_ns);
      ("check.run_ns", per run_name);
      ("check.rerun_ns", per rerun_name);
      ("check.violations", float_of_int !violations);
      ("obs.trace_events", float_of_int !trace_events /. float_of_int n);
      ("obs.events_dropped", float_of_int !dropped /. float_of_int n) ]
    @ List.map
        (fun (o, name) -> ("check.oracle_ns." ^ o, self_per name))
        oracle_names
  in
  let checks () =
    let count = !index in
    (* the public fuzz loop over the pool: one pass of the benchmark
       visits the same scenarios *)
    let stats = Fuzz.run ~seed:chain_seed ~count:pool () in
    let fuzz_violations =
      List.fold_left
        (fun acc f -> acc + List.length f.Fuzz.violations)
        0 stats.Fuzz.failures
    in
    let direct = List.length (Fuzz.check_scenario scenarios.(0)) in
    [ Run_state.check_units "scenarios pass the oracle battery" ~attempted:count
        ~failed:!failed
        (Printf.sprintf "%d of %d scenarios violated an oracle" !failed count);
      Run_state.check "violations = Fuzz.run at the same seed and count"
        (count >= pool && fuzz_violations = !pass_violations
        && stats.Fuzz.scenarios = pool)
        (Printf.sprintf "benchmark %d, Fuzz.run %d over %d scenarios"
           !pass_violations fuzz_violations pool);
      Run_state.check "first scenario = Fuzz.check_scenario"
        (count = 0 || direct = !first_violations)
        (Printf.sprintf "Fuzz.check_scenario %d violations" direct);
      Run_state.check "c(t) in [0,1]"
        (!c_lo >= 0.0 && !c_hi <= 1.0)
        (Printf.sprintf "min %.6f max %.6f" !c_lo !c_hi);
      Run_state.check "packet triple"
        (!slack_bad = 0)
        (Printf.sprintf "%d core scenarios with sent < delivered + dropped"
           !slack_bad) ]
  in
  { Run_state.slice; sample;
    events = (fun () -> !events);
    sim_time = (fun () -> !sim);
    consistency = (fun () -> !window_c);
    fingerprint = (fun () -> Digest.to_hex !digest);
    window_fingerprint = (fun () -> !window_fp);
    layers;
    calendar = (fun () -> Probes.no_calendar);
    checks; mark; window = pool; granule = pool }

(* Tests for the discrete-event engine. *)

module Engine = Softstate_sim.Engine

let test_time_starts_at_zero () =
  let e = Engine.create () in
  Alcotest.(check (float 0.0)) "t=0" 0.0 (Engine.now e)

let test_custom_start () =
  let e = Engine.create ~start:100.0 () in
  Alcotest.(check (float 0.0)) "t=100" 100.0 (Engine.now e)

let test_events_fire_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~after:3.0 (fun _ -> log := 3 :: !log));
  ignore (Engine.schedule e ~after:1.0 (fun _ -> log := 1 :: !log));
  ignore (Engine.schedule e ~after:2.0 (fun _ -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log)

let test_equal_times_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~after:1.0 (fun _ -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at same time" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_clock_advances_to_event_time () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  ignore (Engine.schedule e ~after:7.5 (fun e -> seen := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-12)) "clock at event" 7.5 !seen

let test_run_until_horizon () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~after:1.0 (fun _ -> fired := 1 :: !fired));
  ignore (Engine.schedule e ~after:5.0 (fun _ -> fired := 5 :: !fired));
  Engine.run ~until:3.0 e;
  Alcotest.(check (list int)) "only early event" [ 1 ] !fired;
  Alcotest.(check (float 0.0)) "clock at horizon" 3.0 (Engine.now e);
  Alcotest.(check int) "late event pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "late event eventually fires" [ 5; 1 ] !fired

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let ev = Engine.schedule e ~after:1.0 (fun _ -> fired := true) in
  Alcotest.(check bool) "cancel succeeds" true (Engine.cancel e ev);
  Alcotest.(check bool) "cancel twice fails" false (Engine.cancel e ev);
  Engine.run e;
  Alcotest.(check bool) "never fired" false !fired

let test_cancel_after_fire () =
  let e = Engine.create () in
  let ev = Engine.schedule e ~after:1.0 (fun _ -> ()) in
  Engine.run e;
  Alcotest.(check bool) "cancel after fire" false (Engine.cancel e ev)

let test_schedule_during_event () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:1.0 (fun e ->
         log := "a" :: !log;
         ignore (Engine.schedule e ~after:1.0 (fun _ -> log := "b" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "chained" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (float 0.0)) "final time" 2.0 (Engine.now e)

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e ~after:(-1.0) (fun _ -> ())));
  ignore (Engine.schedule e ~after:5.0 (fun _ -> ()));
  Engine.run e;
  Alcotest.check_raises "absolute past"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      ignore (Engine.schedule_at e ~time:1.0 (fun _ -> ())))

let test_zero_delay_fires () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~after:0.0 (fun _ -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "zero delay ok" true !fired

let test_step () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:1.0 (fun _ -> ()));
  ignore (Engine.schedule e ~after:2.0 (fun _ -> ()));
  Alcotest.(check bool) "step 1" true (Engine.step e);
  Alcotest.(check bool) "step 2" true (Engine.step e);
  Alcotest.(check bool) "empty" false (Engine.step e)

let test_every_period () =
  let e = Engine.create () in
  let count = ref 0 in
  let cancel = Engine.every e ~period:1.0 (fun _ -> incr count) in
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "five firings" 5 !count;
  Alcotest.(check bool) "cancel stops" true (cancel ());
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "no more firings" 5 !count

let test_every_jitter () =
  let e = Engine.create () in
  let times = ref [] in
  let jitter =
    let toggle = ref true in
    fun () ->
      toggle := not !toggle;
      if !toggle then 0.25 else -0.25
  in
  let _cancel =
    Engine.every e ~period:1.0 ~jitter (fun e -> times := Engine.now e :: !times)
  in
  Engine.run ~until:3.0 e;
  Alcotest.(check bool) "fired at least twice" true (List.length !times >= 2)

let test_loop_telemetry () =
  let e = Engine.create () in
  Alcotest.(check int) "no events yet" 0 (Engine.events_fired e);
  Alcotest.(check int) "empty high water" 0 (Engine.high_water e);
  for i = 1 to 10 do
    ignore (Engine.schedule e ~after:(float_of_int i) (fun _ -> ()))
  done;
  Alcotest.(check int) "high water tracks peak depth" 10 (Engine.high_water e);
  Engine.run ~until:4.5 e;
  Alcotest.(check int) "four fired" 4 (Engine.events_fired e);
  Alcotest.(check (float 0.0)) "clock exactly at horizon" 4.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "all fired" 10 (Engine.events_fired e);
  Alcotest.(check int) "high water is a peak, not depth" 10
    (Engine.high_water e)

let test_on_step_composes () =
  let e = Engine.create () in
  let steps = ref 0 in
  Engine.on_step e (fun _ -> incr steps);
  Engine.on_step e (fun _ -> incr steps);
  for i = 1 to 3 do
    ignore (Engine.schedule e ~after:(float_of_int i) (fun _ -> ()))
  done;
  Engine.run e;
  Alcotest.(check int) "both hooks ran per step" 6 !steps

(* ------------------------------------------------------------------ *)
(* Periodic timers *)

let test_schedule_periodic_times () =
  let e = Engine.create () in
  let times = ref [] in
  let _p =
    Engine.schedule_periodic e ~period:1.0 (fun e ->
        times := Engine.now e :: !times)
  in
  Engine.run ~until:5.5 e;
  Alcotest.(check (list (float 1e-9))) "fires every period"
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !times)

let test_cancel_periodic () =
  let e = Engine.create () in
  let count = ref 0 in
  let p = Engine.schedule_periodic e ~period:1.0 (fun _ -> incr count) in
  Engine.run ~until:2.5 e;
  Alcotest.(check int) "two firings" 2 !count;
  Alcotest.(check bool) "cancel" true (Engine.cancel_periodic e p);
  Alcotest.(check bool) "cancel twice" false (Engine.cancel_periodic e p);
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "stopped" 2 !count

let test_long_period () =
  (* a long period still fires at exact multiples *)
  let e = Engine.create () in
  let times = ref [] in
  let _p =
    Engine.schedule_periodic e ~period:100.0 (fun e ->
        times := Engine.now e :: !times)
  in
  Engine.run ~until:250.0 e;
  Alcotest.(check (list (float 1e-9))) "long periods exact"
    [ 100.0; 200.0 ] (List.rev !times)

let test_one_shot_precedes_periodic_tie () =
  (* determinism contract: at equal timestamps, one-shot events fire
     before periodic timers — even when the one-shot was scheduled
     after the periodic was armed *)
  let e = Engine.create () in
  let order = ref [] in
  let _p =
    Engine.schedule_periodic e ~period:2.0 (fun _ ->
        order := "periodic" :: !order)
  in
  ignore (Engine.schedule e ~after:2.0 (fun _ -> order := "one-shot" :: !order));
  Engine.run ~until:2.0 e;
  Alcotest.(check (list string)) "one-shot wins the tie"
    [ "one-shot"; "periodic" ] (List.rev !order)

let test_pending_counts_both_calendars () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:1.0 (fun _ -> ()));
  let p = Engine.schedule_periodic e ~period:5.0 (fun _ -> ()) in
  Alcotest.(check int) "one-shot plus periodic" 2 (Engine.pending e);
  ignore (Engine.cancel_periodic e p);
  Alcotest.(check int) "periodic cancelled" 1 (Engine.pending e)

let test_periodic_firing_order_pin () =
  (* A seeded workload of one-shots, periodics, [every] loops and
     cancellations, pinned as a count plus an MD5 of its exact
     (time, label) firing list. The pin was taken from the engine
     that ran periodics on a hashed timing wheel, so it proves the
     periodic heap keeps the same event order. Timestamps are random
     floats, so cross-class ties cannot blur the order. *)
  let e = Engine.create () in
  let fired = ref [] in
  let g = Softstate_util.Rng.create 99 in
  for i = 0 to 39 do
    let after = 0.01 +. (Softstate_util.Rng.float g *. 40.0) in
    let ev =
      Engine.schedule e ~after (fun e ->
          fired := (Engine.now e, Printf.sprintf "one%d" i) :: !fired)
    in
    if Softstate_util.Rng.bool g && i mod 4 = 0 then
      ignore (Engine.cancel e ev)
  done;
  for i = 0 to 9 do
    let period = 0.7 +. (Softstate_util.Rng.float g *. 9.0) in
    let p =
      Engine.schedule_periodic e ~period (fun e ->
          fired := (Engine.now e, Printf.sprintf "per%d" i) :: !fired)
    in
    if i mod 3 = 0 then
      ignore
        (Engine.schedule e ~after:(period *. 2.5) (fun e ->
             ignore (Engine.cancel_periodic e p)))
  done;
  let stop =
    Engine.every e ~period:1.3 (fun e ->
        fired := (Engine.now e, "every") :: !fired)
  in
  ignore (Engine.schedule e ~after:6.0 (fun _ -> ignore (stop ())));
  Engine.run ~until:45.0 e;
  let b = Buffer.create 4096 in
  List.iter
    (fun (time, label) -> Buffer.add_string b (Printf.sprintf "%h %s\n" time label))
    (List.rev !fired);
  Alcotest.(check int) "firing count" 168 (List.length !fired);
  Alcotest.(check string) "firing list digest" "76642629b12bc3bef073d971cf68cca8"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_periodic_step_allocation () =
  (* Runtime bound on the per-event cost of the periodic class: with
     n live [every] timers (periods in [5, 6) s), a steady-state step
     — pop the root, run the callback, rearm — must allocate a
     constant handful of minor words, at 10^3 and at 10^5 live
     timers alike. A calendar whose per-event cost grows with its
     occupancy fails the 10^5 case. *)
  let words_per_step n =
    let e = Engine.create () in
    let g = Softstate_util.Rng.create 7 in
    let count = ref 0 in
    for _ = 1 to n do
      let period = 5.0 +. Softstate_util.Rng.float g in
      let (_ : unit -> bool) = Engine.every e ~period (fun _ -> incr count) in
      ()
    done;
    (* warm-up: every timer fires and rearms once *)
    for _ = 1 to n do
      ignore (Engine.step e)
    done;
    let steps = 10_000 in
    let before = Gc.minor_words () in
    for _ = 1 to steps do
      ignore (Engine.step e)
    done;
    (Gc.minor_words () -. before) /. float_of_int steps
  in
  List.iter
    (fun n ->
      let w = words_per_step n in
      if w > 32.0 then
        Alcotest.failf "%d live timers: %.1f minor words per step (bound 32)" n w)
    [ 1_000; 100_000 ]

let test_many_events_throughput () =
  let e = Engine.create () in
  let count = ref 0 in
  let g = Softstate_util.Rng.create 1 in
  for _ = 1 to 50_000 do
    ignore
      (Engine.schedule e ~after:(Softstate_util.Rng.float g) (fun _ -> incr count))
  done;
  Engine.run e;
  Alcotest.(check int) "all fired" 50_000 !count

let () =
  Alcotest.run "softstate_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "starts at zero" `Quick test_time_starts_at_zero;
          Alcotest.test_case "custom start" `Quick test_custom_start;
          Alcotest.test_case "time order" `Quick test_events_fire_in_order;
          Alcotest.test_case "fifo ties" `Quick test_equal_times_fifo;
          Alcotest.test_case "clock advance" `Quick test_clock_advances_to_event_time;
          Alcotest.test_case "horizon" `Quick test_run_until_horizon;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire;
          Alcotest.test_case "schedule during event" `Quick test_schedule_during_event;
          Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "zero delay" `Quick test_zero_delay_fires;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "every period" `Quick test_every_period;
          Alcotest.test_case "every jitter" `Quick test_every_jitter;
          Alcotest.test_case "loop telemetry" `Quick test_loop_telemetry;
          Alcotest.test_case "on_step composes" `Quick test_on_step_composes;
          Alcotest.test_case "50k events" `Slow test_many_events_throughput;
          Alcotest.test_case "periodic firing times" `Quick
            test_schedule_periodic_times;
          Alcotest.test_case "periodic cancel" `Quick test_cancel_periodic;
          Alcotest.test_case "long periods" `Quick test_long_period;
          Alcotest.test_case "one-shot precedes periodic at ties" `Quick
            test_one_shot_precedes_periodic_tie;
          Alcotest.test_case "pending counts both calendars" `Quick
            test_pending_counts_both_calendars;
          Alcotest.test_case "periodic firing-order pin" `Quick
            test_periodic_firing_order_pin;
          Alcotest.test_case "periodic step allocation" `Quick
            test_periodic_step_allocation;
        ] );
    ]

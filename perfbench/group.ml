(* sstp_group: an SSTP multicast group on a lossy shared channel,
   replaying a routing-update trace (a flat, wide routes/<prefix>
   namespace with a few flapping prefixes). The trace is generated and
   the initial table publish runs during set-up; the measured phase
   advances the group in fixed simulated-time slices while the
   trace's later publishes and withdrawals keep arriving. *)

module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Net = Softstate_net
module Tevent = Softstate_trace.Trace_event
module Generators = Softstate_trace.Generators

type params = {
  members : int;
  prefixes : int;
  member_loss : float;  (* Bernoulli loss per member on the data channel *)
  fb_loss : float;
  mu_total_kbps : float;
  trace_duration : float;  (* simulated seconds of routing updates *)
  warm : float;  (* warm-up horizon: the initial publish propagates *)
  slice : float;
  window : int;
  granule : int;
  grace_step : float;
  grace_max : float;
}

(* The replayed trace sits on the calendar from set-up on, so it sets
   the calendar's high water: 2400 s of updates keep it near 10^4
   entries for every seed. At 3600 s it lay near 2^14, and the seeds
   that crossed it doubled the calendar's arrays, which moved the heap
   figures by a fifth between seeds. *)
let params =
  { members = 16; prefixes = 500; member_loss = 0.1; fb_loss = 0.1;
    mu_total_kbps = 256.0; trace_duration = 2400.0;
    warm = 30.0 +. Announce.phase; slice = 2.5; window = 80; granule = 2;
    grace_step = 30.0; grace_max = 300.0 }

(* The routing trace with exactly [flap_fraction] of the prefixes
   flapping: the calm and the flapping prefixes are generated apart and
   merged, the flapping ones renumbered after the calm ones. Drawing the
   flapping set per prefix instead would let its size — and with it the
   trace's update rate — vary by a fifth between seeds. *)
let flap_fraction = 0.05

let routing_trace ~rng ~duration ~prefixes =
  let flapping =
    Float.to_int (Float.round (flap_fraction *. float_of_int prefixes))
  in
  let calm = prefixes - flapping in
  let shift path =
    Scanf.sscanf path "routes/prefix%d" (fun i ->
        Printf.sprintf "routes/prefix%04d" (calm + i))
  in
  let renumber (e : Tevent.event) =
    match e.Tevent.op with
    | Tevent.Put { path; payload } ->
        { e with Tevent.op = Tevent.Put { path = shift path; payload } }
    | Tevent.Remove { path } ->
        { e with Tevent.op = Tevent.Remove { path = shift path } }
  in
  Tevent.merge
    (Generators.routing_updates ~rng:(Rng.split rng) ~duration ~prefixes:calm
       ~flap_fraction:0.0 ())
    (List.map renumber
       (Generators.routing_updates ~rng:(Rng.split rng) ~duration
          ~prefixes:flapping ~flap_fraction:1.0 ()))

let start seed ~traced =
  let p = params in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let trace =
    routing_trace ~rng:(Rng.split rng) ~duration:p.trace_duration
      ~prefixes:p.prefixes
  in
  (* the wrapper counts packets in both modes (the conservation check
     needs per-member deliveries); it opens spans only when traced *)
  let wrap = Wrap.create ~timed:traced ~layer:"sstp" () in
  let config =
    { (Sstp.Group.default_config ~mu_total_bps:(p.mu_total_kbps *. 1000.0)) with
      Sstp.Group.member_loss = (fun _ -> Net.Loss.bernoulli p.member_loss);
      fb_loss = Net.Loss.bernoulli p.fb_loss }
  in
  let g =
    Sstp.Group.create
      ~transport:(Wrap.transport wrap (Net.Transport.single_hop engine))
      ~engine ~rng ~config ~members:p.members ()
  in
  let publish_name = Span.name "sstp.publish" in
  let accepting = ref true and ops = ref 0 in
  let replayed f =
    if !accepting then begin
      incr ops;
      if traced then begin
        Span.enter publish_name;
        f ();
        Span.exit ()
      end
      else f ()
    end
  in
  let put ~path ~payload =
    replayed (fun () -> Sstp.Group.publish g ~path ~payload)
  in
  let remove ~path = replayed (fun () -> Sstp.Group.remove g ~path) in
  let trace_ops = Tevent.length trace in
  Tevent.replay engine trace ~put ~remove;
  Engine.run ~until:p.warm engine;
  let adv = Advance.create ~traced engine in
  let slices = ref 0 in
  let slice_end k = p.warm +. (float_of_int k *. p.slice) in
  let last = p.trace_duration -. p.slice in
  let slice () =
    incr slices;
    Advance.until adv (Float.min last (slice_end !slices))
  in
  let events () = Advance.events adv in
  let c_sum = ref 0.0 and c_n = ref 0 and c_lo = ref 1.0 and c_hi = ref 0.0 in
  let min_sum = ref 0.0 and min_n = ref 0 in
  let pending_sum = ref 0 and samples = ref 0 in
  let window_c = ref nan and window_fp = ref "" in
  let fingerprint () =
    let s, d, dr = Wrap.triple wrap in
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%d %h %d %d %d %d %d %d %d %d" (events ())
            (Sstp.Group.consistency g)
            (Sstp.Group.data_packets_served g)
            (Sstp.Group.feedback_offered g)
            (Sstp.Group.feedback_sent g)
            (Sstp.Group.feedback_suppressed g)
            !ops s d dr))
  in
  let sample () =
    let x = Sstp.Group.consistency g in
    if x < !c_lo then c_lo := x;
    if x > !c_hi then c_hi := x;
    if !slices <= p.window then begin
      c_sum := !c_sum +. x;
      incr c_n
    end;
    min_sum := !min_sum +. Sstp.Group.min_consistency g;
    incr min_n;
    pending_sum := !pending_sum + Engine.pending engine;
    incr samples;
    if !slices = p.window then begin
      window_c := !c_sum /. float_of_int !c_n;
      window_fp := fingerprint ()
    end
  in
  let counters () =
    ( Sstp.Group.feedback_offered g, Sstp.Group.feedback_sent g,
      Sstp.Group.feedback_suppressed g, Sstp.Group.data_packets_served g )
  in
  let at_mark = ref (counters ()) in
  let events0 = ref 0 and served0 = ref 0 and delivered0 = ref 0
  and dropped0 = ref 0 and time0 = ref p.warm in
  let mark () =
    at_mark := counters ();
    time0 := Engine.now engine;
    events0 := events ();
    served0 := wrap.Wrap.served + wrap.Wrap.sends;
    delivered0 := wrap.Wrap.delivered;
    dropped0 := Wrap.first_hop_dropped wrap;
    pending_sum := 0;
    samples := 0;
    min_sum := 0.0;
    min_n := 0
  in
  let layers () =
    let offered, sent, suppressed, data = counters () in
    let offered0, sent0, suppressed0, data0 = !at_mark in
    let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    let served = wrap.Wrap.served + wrap.Wrap.sends - !served0 in
    let delivered = wrap.Wrap.delivered - !delivered0 in
    [ ("sim.events", float_of_int (events () - !events0));
      ("sim.step_ns", Span.total_per_call Advance.step_name);
      ("sim.residual_ns", Span.self_per_call Advance.step_name);
      ("sim.pending_mean", ratio !pending_sum !samples);
      ("sim.high_water", float_of_int (Engine.high_water engine));
      ("net.served", float_of_int served);
      ("net.delivered", float_of_int delivered);
      ("net.dropped", float_of_int (Wrap.first_hop_dropped wrap - !dropped0));
      ("net.deliveries_per_served", ratio delivered served);
      ("sstp.feedback_offered", float_of_int (offered - offered0));
      ("sstp.feedback_sent", float_of_int (sent - sent0));
      ( "sstp.suppressed_ratio",
        ratio (suppressed - suppressed0) (offered - offered0) );
      ("sstp.data_packets", float_of_int (data - data0));
      ( "sstp.min_consistency",
        if !min_n = 0 then 0.0 else !min_sum /. float_of_int !min_n );
      ("trace.ops", float_of_int trace_ops) ]
  in
  (* The calendar load of the measured phase. The periodic timers are
     the group's own: one summary timer and one report timer per
     member, at the configured periods. The heap holds the replayed
     trace's pending operations and the repair and NACK-slot timers;
     their mean time ahead is measured by Little's law, as mean
     occupancy over heap events per simulated second. *)
  let calendar () =
    let periodic =
      [ (1, config.Sstp.Group.summary_period);
        (p.members, config.Sstp.Group.report_period) ]
    in
    let pending =
      if !samples = 0 then Engine.pending engine else !pending_sum / !samples
    in
    let entries = pending - Probes.timers periodic in
    let sim_s = Engine.now engine -. !time0 in
    let periodic_fires =
      List.fold_left
        (fun acc (n, period) -> acc +. (float_of_int n *. sim_s /. period))
        0.0 periodic
    in
    let heap_per_s =
      (float_of_int (events () - !events0) -. periodic_fires) /. sim_s
    in
    { Probes.heap =
        (if entries > 0 && heap_per_s > 0.0 then
           { Probes.entries;
             interval = Probes.Exponential (float_of_int entries /. heap_per_s) }
         else Probes.unused);
      periodic }
  in
  let checks () =
    let s, d, dr = Wrap.triple wrap in
    let slack = s - d - dr in
    (* no new publishes from here on: the group must reach the sender's
       root digest within the grace period *)
    accepting := false;
    let t0 = Engine.now engine in
    let rec grace () =
      if Sstp.Group.converged g then Some (Engine.now engine -. t0)
      else if Engine.now engine -. t0 >= p.grace_max then None
      else begin
        Engine.run ~until:(Engine.now engine +. p.grace_step) engine;
        grace ()
      end
    in
    let converged = grace () in
    [ Run_state.check "packet triple"
        (slack >= 0 && slack <= 2)
        (Printf.sprintf "sent %d delivered %d dropped %d slack %d servers 2" s d
           dr slack);
      Run_state.check "c(t) in [0,1]"
        (!c_lo >= 0.0 && !c_hi <= 1.0 && !window_c >= 0.0 && !window_c <= 1.0)
        (Printf.sprintf "min %.6f max %.6f window %.6f" !c_lo !c_hi !window_c);
      Run_state.check "the trace covers the measured phase"
        (t0 < last)
        (Printf.sprintf "measured up to %g s of a %g s trace" t0
           p.trace_duration);
      Run_state.check "members hold the sender's root digest after grace"
        (converged <> None)
        (match converged with
        | Some t -> Printf.sprintf "converged %g s into the grace period" t
        | None -> Printf.sprintf "not converged after %g s" p.grace_max) ]
  in
  { Run_state.slice; sample; events;
    sim_time = (fun () -> Engine.now engine -. p.warm);
    consistency = (fun () -> !window_c);
    fingerprint; window_fingerprint = (fun () -> !window_fp);
    layers; calendar; checks; mark; window = p.window; granule = p.granule }

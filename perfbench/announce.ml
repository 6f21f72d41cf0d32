(* The announce/listen workload, a composed run of [Experiment.run]'s
   machinery driven in fixed simulated-time slices:

   - multicast_tree: Multicast with NACK slotting and damping over a
     k-ary tree topology with per-link loss, a paper-scale table of a
     few hundred keys, sweep expiry ([Refresh_timeout]). *)

module Engine = Softstate_sim.Engine
module Core = Softstate_core
module E = Core.Experiment
module Net = Softstate_net

type params = {
  config : E.config;
  ramp : float;  (* warm-up horizon, simulated seconds *)
  slice : float;  (* simulated seconds per slice *)
  window : int;  (* slices in the fixed window *)
  granule : int;  (* slices per lifetime: the workload's cycle *)
  check_horizon : float;  (* horizon of the Experiment.run cross-check *)
}

(* Slice boundaries sit off the 0.25 s grid of the periodic timers, so
   no event shares a boundary's timestamp and the slice an event lands
   in does not depend on how the slice is driven. *)
let phase = 0.37

let multicast_tree seed =
  { config =
      { E.default with
        seed; duration = 1e9; lambda_kbps = 15.0; size_bits = 1000;
        death = Core.Base.Lifetime_fixed 30.0;
        expiry =
          Core.Base.Refresh_timeout { multiple = 3.0; sweep_period = 1.0 };
        loss = E.Bernoulli 0.02;
        protocol =
          E.Multicast
            { receivers = 24; mu_hot_kbps = 40.0; mu_cold_kbps = 60.0;
              mu_fb_kbps = 10.0; nack_bits = 500; suppression = true;
              nack_slot = 0.5 };
        topology = E.Kary_tree { arity = 3; depth = 3 } };
    ramp = 60.0 +. phase; slice = 10.0; window = 30; granule = 3;
    check_horizon = 60.0 }

let substrate_dropped (c : Compose.t) =
  match c.Compose.topo with
  | None -> 0
  | Some t -> (Net.Topology.substrate t).Net.Topology.s_dropped

let start p ~traced =
  let wrap = if traced then Some (Wrap.create ~layer:"core" ()) else None in
  let c = Compose.create ?wrap p.config in
  let engine = c.Compose.engine in
  let tracker = c.Compose.tracker in
  Engine.run ~until:p.ramp engine;
  let adv = Advance.create ~traced engine in
  let slices = ref 0 in
  let slice_end k = p.ramp +. (float_of_int k *. p.slice) in
  let slice () =
    incr slices;
    Advance.until adv (slice_end !slices)
  in
  let events () = Advance.events adv in
  let integral_at now = Core.Consistency.average tracker ~now *. now in
  let ramp_integral = integral_at p.ramp in
  let window_c = ref nan and window_fp = ref "" in
  let c_lo = ref 1.0 and c_hi = ref 0.0 in
  let pending_sum = ref 0 and samples = ref 0 in
  let fingerprint () =
    let now = Engine.now engine in
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%d %s" (events ())
            (Compose.reading_to_string (Compose.read c ~now))))
  in
  let sample () =
    let x = Core.Consistency.instantaneous tracker in
    if x < !c_lo then c_lo := x;
    if x > !c_hi then c_hi := x;
    pending_sum := !pending_sum + Engine.pending engine;
    incr samples;
    if !slices = p.window then begin
      let now = slice_end p.window in
      window_c := (integral_at now -. ramp_integral) /. (now -. p.ramp);
      window_fp := fingerprint ()
    end
  in
  let at_mark = ref (Compose.read c ~now:p.ramp) in
  let events0 = ref 0 and dropped0 = ref 0 and served0 = ref 0
  and delivered0 = ref 0 in
  let net_dropped () =
    (match wrap with Some w -> Wrap.first_hop_dropped w | None -> 0)
    + substrate_dropped c
  in
  let mark () =
    at_mark := Compose.read c ~now:(Engine.now engine);
    events0 := events ();
    dropped0 := net_dropped ();
    (match wrap with
    | Some w ->
        served0 := w.Wrap.served + w.Wrap.sends;
        delivered0 := w.Wrap.delivered
    | None -> ());
    pending_sum := 0;
    samples := 0
  in
  let layers () =
    let now = Engine.now engine in
    let r = Compose.read c ~now and r0 = !at_mark in
    let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    let served, delivered =
      match wrap with
      | Some w ->
          ( w.Wrap.served + w.Wrap.sends - !served0,
            w.Wrap.delivered - !delivered0 )
      | None -> (0, 0)
    in
    [ ("sim.events", float_of_int (events () - !events0));
      ("sim.step_ns", Span.total_per_call Advance.step_name);
      ("sim.residual_ns", Span.self_per_call Advance.step_name);
      ("sim.pending_mean", ratio !pending_sum !samples);
      ("sim.high_water", float_of_int (Engine.high_water engine));
      ("net.served", float_of_int served);
      ("net.delivered", float_of_int delivered);
      ("net.dropped", float_of_int (net_dropped () - !dropped0));
      ("net.deliveries_per_served", ratio delivered served);
      ("core.live_keys", float_of_int r.Compose.live);
      ( "core.redundant_fraction",
        ratio (r.Compose.redundant - r0.Compose.redundant)
          (r.Compose.transmissions - r0.Compose.transmissions) );
      ( "core.nacks_sent",
        float_of_int (r.Compose.nacks_sent - r0.Compose.nacks_sent) );
      ( "core.nacks_suppressed",
        float_of_int
          (r.Compose.nacks_suppressed - r0.Compose.nacks_suppressed) );
      ( "core.nack_yield",
        ratio (r.Compose.reheats - r0.Compose.reheats)
          (r.Compose.nacks_delivered - r0.Compose.nacks_delivered) );
      ( "core.false_expiries",
        float_of_int (r.Compose.false_expiries - r0.Compose.false_expiries) );
      ( "core.stale_purged",
        float_of_int (r.Compose.stale_purged - r0.Compose.stale_purged) ) ]
  in
  (* The calendar load of the measured phase. Death timers fill the
     heap, each set one lifetime ahead. The sweep, if any, is the one
     periodic timer. *)
  let calendar () =
    let periodic =
      match p.config.E.expiry with
      | Core.Base.Refresh_timeout { sweep_period; _ } -> [ (1, sweep_period) ]
      | _ -> []
    in
    let pending =
      if !samples = 0 then Engine.pending engine else !pending_sum / !samples
    in
    let entries = pending - Probes.timers periodic in
    let heap =
      match p.config.E.death with
      | Core.Base.Lifetime_fixed ttl ->
          { Probes.entries; interval = Probes.Fixed ttl }
      | Core.Base.Lifetime_exp mean ->
          { Probes.entries; interval = Probes.Exponential mean }
      | Core.Base.Per_service _ -> Probes.unused
    in
    { Probes.heap; periodic }
  in
  let checks () =
    let s, d, dr = Compose.packets c in
    let slack = s - d - dr in
    let servers = Compose.servers c in
    let h = p.check_horizon in
    let composed =
      let c' = Compose.create p.config in
      Engine.run ~until:h c'.Compose.engine;
      Compose.reading_to_string (Compose.read c' ~now:h)
    in
    let reference =
      Compose.reading_to_string
        (Compose.of_result (E.run { p.config with E.duration = h }))
    in
    [ Run_state.check "packet triple"
        (slack >= 0 && slack <= servers)
        (Printf.sprintf "sent %d delivered %d dropped %d slack %d servers %d"
           s d dr slack servers);
      Run_state.check "c(t) in [0,1]"
        (!c_lo >= 0.0 && !c_hi <= 1.0 && !window_c >= 0.0 && !window_c <= 1.0)
        (Printf.sprintf "min %.6f max %.6f window %.6f" !c_lo !c_hi !window_c);
      Run_state.check
        (Printf.sprintf "composed run = Experiment.run at %g s" h)
        (String.equal composed reference)
        (if String.equal composed reference then composed
         else Printf.sprintf "composed %s / reference %s" composed reference) ]
  in
  { Run_state.slice; sample; events;
    sim_time = (fun () -> Engine.now engine -. p.ramp);
    consistency = (fun () -> !window_c);
    fingerprint; window_fingerprint = (fun () -> !window_fp);
    layers; calendar; checks; mark; window = p.window; granule = p.granule }


(* The announce/listen run of [Experiment.run], rebuilt from the public
   constructors it uses (Engine, Base, Feedback / Multicast,
   Topology.transport) so the benchmark can drive the engine itself in
   fixed simulated-time slices and wrap the transport for spans.

   [create] follows [Experiment.run] step for step — the same
   generator splits in the same order, the same protocol arguments —
   so running a composed simulation to a horizon gives exactly
   [Experiment.run]'s result for that horizon; every announce run
   checks this at a short horizon. Only the two protocols the
   benchmark drives are supported. *)

module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Net = Softstate_net
module Core = Softstate_core
module E = Core.Experiment

type t = {
  engine : Engine.t;
  base : Core.Base.t;
  tracker : Core.Consistency.t;
  topo : Net.Topology.t option;
  counters : unit -> int * int * int * int * int;
      (* nacks wanted, sent, suppressed, delivered, reheats *)
  head : unit -> int * int * int;  (* head-link packet triple *)
}

let kbps x = x *. 1000.0

let data_rate_kbps = function
  | E.Feedback { mu_hot_kbps; mu_cold_kbps; _ }
  | E.Multicast { mu_hot_kbps; mu_cold_kbps; _ } ->
      mu_hot_kbps +. mu_cold_kbps
  | _ -> invalid_arg "Compose: only feedback and multicast are composed"

let add_stats (s, d, dr) st =
  ( s + st.Net.Link.Stats.fetched,
    d + st.Net.Link.Stats.delivered,
    dr + st.Net.Link.Stats.dropped )

let receivers (config : E.config) =
  match config.E.protocol with
  | E.Multicast { receivers; _ } -> receivers
  | _ -> 1

let create ?wrap (config : E.config) =
  let receivers = receivers config in
  let engine = Engine.create () in
  let rng = Rng.create config.E.seed in
  let workload =
    Core.Workload.of_kbps ~update_fraction:config.E.update_fraction
      ~shape:config.E.arrival ~lambda_kbps:config.E.lambda_kbps
      ~size_bits:config.E.size_bits ()
  in
  let tracker =
    Core.Consistency.create ~empty_policy:config.E.empty_policy
      ~record_series:false ~receivers ~now:0.0 ()
  in
  let base =
    Core.Base.create ~engine ~rng:(Rng.split rng) ~workload
      ~death:config.E.death ~expiry:config.E.expiry ~receivers ~tracker ()
  in
  let link_rng = Rng.split rng in
  let topo =
    match config.E.topology with
    | E.Single_hop -> None
    | E.Kary_tree { arity; depth } ->
        let topo_rng = Rng.split rng in
        Some
          (Net.Topology.kary_tree ~engine ~rng:topo_rng
             ~loss:(fun () -> E.make_loss config.E.loss)
             ~rate_bps:(kbps (data_rate_kbps config.E.protocol))
             ~arity ~depth ())
    | _ -> invalid_arg "Compose: only single-hop and k-ary trees are composed"
  in
  let inner =
    match topo with
    | None -> Net.Transport.single_hop engine
    | Some t -> Net.Topology.transport t
  in
  let transport =
    match wrap with None -> inner | Some w -> Wrap.transport w inner
  in
  let loss =
    match topo with None -> E.make_loss config.E.loss | Some _ -> Net.Loss.never
  in
  let counters, head =
    match config.E.protocol with
    | E.Feedback
        { mu_hot_kbps; mu_cold_kbps; mu_fb_kbps; nack_bits; fb_lossy } ->
        let fb_loss =
          if fb_lossy && topo = None then E.make_loss config.E.loss
          else Net.Loss.never
        in
        let p =
          Core.Feedback.create ~base ~mu_hot_bps:(kbps mu_hot_kbps)
            ~mu_cold_bps:(kbps mu_cold_kbps) ~mu_fb_bps:(kbps mu_fb_kbps)
            ~sched:config.E.sched ~transport ~nack_bits ~fb_loss ~loss ~link_rng
            ()
        in
        ( (fun () ->
            ( Core.Feedback.nacks_sent p, Core.Feedback.nacks_sent p, 0,
              Core.Feedback.nacks_delivered p, Core.Feedback.reheats p )),
          fun () ->
            let u = Core.Two_queue.unicast (Core.Feedback.sender p) in
            add_stats
              (add_stats (0, 0, 0) (u.Net.Transport.u_stats ()))
              (Core.Feedback.fb_stats p) )
    | E.Multicast
        { receivers = _; mu_hot_kbps; mu_cold_kbps; mu_fb_kbps; nack_bits;
          suppression; nack_slot } ->
        let receiver_loss _ =
          match topo with
          | None -> E.make_loss config.E.loss
          | Some _ -> Net.Loss.never
        in
        let p =
          Core.Multicast.create ~base ~mu_hot_bps:(kbps mu_hot_kbps)
            ~mu_cold_bps:(kbps mu_cold_kbps) ~mu_fb_bps:(kbps mu_fb_kbps)
            ~sched:config.E.sched ~transport ~nack_bits ~suppression ~nack_slot
            ~receiver_loss ~link_rng ()
        in
        ( (fun () ->
            ( Core.Multicast.nacks_wanted p, Core.Multicast.nacks_sent p,
              Core.Multicast.nacks_suppressed p,
              Core.Multicast.nacks_delivered p, Core.Multicast.reheats p )),
          fun () ->
            let f = Core.Multicast.fanout p in
            let served = f.Net.Transport.f_served () in
            let head =
              match topo with
              | None ->
                  let losses = ref 0 in
                  for sid = 0 to receivers - 1 do
                    losses := !losses + f.Net.Transport.f_receiver_losses sid
                  done;
                  let offers = served * receivers in
                  (offers, offers - !losses, !losses)
              | Some _ -> (served, served, 0)
            in
            add_stats head (Core.Multicast.fb_stats p) )
    | _ -> invalid_arg "Compose: only feedback and multicast are composed"
  in
  Core.Base.start base;
  { engine; base; tracker; topo; counters; head }

(* The unified packet triple of [Experiment.result]. *)
let packets t =
  let hs, hd, hdr = t.head () in
  match t.topo with
  | None -> (hs, hd, hdr)
  | Some topo ->
      let s = Net.Topology.substrate topo in
      ( hs + s.Net.Topology.s_sent,
        hd + s.Net.Topology.s_delivered,
        hdr + s.Net.Topology.s_dropped )

(* Upper bound on packets in service at once: one per server (head
   data server, feedback server, every overlay edge server). *)
let servers t =
  2 + match t.topo with None -> 0 | Some topo -> Net.Topology.edge_count topo

(* The [Experiment.result] fields this composition reproduces, read at
   the engine's current time. *)
type reading = {
  avg_consistency : float;
  transmissions : int;
  redundant : int;
  nacks_wanted : int;
  nacks_sent : int;
  nacks_suppressed : int;
  nacks_delivered : int;
  reheats : int;
  false_expiries : int;
  stale_purged : int;
  live : int;
  sent : int;
  delivered : int;
  dropped : int;
}

let read t ~now =
  let nacks_wanted, nacks_sent, nacks_suppressed, nacks_delivered, reheats =
    t.counters ()
  in
  let sent, delivered, dropped = packets t in
  { avg_consistency = Core.Consistency.average t.tracker ~now;
    transmissions = Core.Consistency.transmissions t.tracker;
    redundant = Core.Consistency.redundant_transmissions t.tracker;
    nacks_wanted; nacks_sent; nacks_suppressed; nacks_delivered; reheats;
    false_expiries = Core.Base.false_expiries t.base;
    stale_purged = Core.Base.stale_purged t.base;
    live = Core.Table.live_count (Core.Base.table t.base);
    sent; delivered; dropped }

let of_result (r : E.result) =
  let redundant =
    if r.E.transmissions = 0 then 0
    else
      Float.to_int
        (Float.round (r.E.redundant_fraction *. float_of_int r.E.transmissions))
  in
  { avg_consistency = r.E.avg_consistency; transmissions = r.E.transmissions;
    redundant; nacks_wanted = r.E.nacks_wanted; nacks_sent = r.E.nacks_sent;
    nacks_suppressed = r.E.nacks_suppressed;
    nacks_delivered = r.E.nacks_delivered; reheats = r.E.reheats;
    false_expiries = r.E.false_expiries; stale_purged = r.E.stale_purged;
    live = r.E.live_at_end; sent = r.E.packets_sent;
    delivered = r.E.packets_delivered; dropped = r.E.packets_dropped }

let reading_to_string r =
  Printf.sprintf
    "c=%h tx=%d red=%d nw=%d ns=%d nsup=%d nd=%d rh=%d fe=%d sp=%d live=%d \
     pkts=%d/%d/%d"
    r.avg_consistency r.transmissions r.redundant r.nacks_wanted r.nacks_sent
    r.nacks_suppressed r.nacks_delivered r.reheats r.false_expiries
    r.stale_purged r.live r.sent r.delivered r.dropped

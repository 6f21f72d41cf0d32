(* A Transport.t that delegates every factory to an inner transport
   and opens a span around each call the protocol makes into the
   network layer (u_kick / f_kick / o_send, as [net.kick]) and around
   each callback the network makes into the protocol (the fetch and
   deliver closures, as [<layer>.fetch] / [<layer>.deliver]). It only
   wraps closures: it draws no randomness and schedules nothing, so a
   run over it is event-for-event the run over the inner transport. *)

module Net = Softstate_net
module T = Net.Transport

type t = {
  timed : bool;  (* open spans; otherwise only count *)
  kick : Span.name;
  fetch : Span.name;
  deliver : Span.name;
  mutable served : int;     (* fetches that handed a packet to a server *)
  mutable sends : int;      (* packets accepted by an outbox *)
  mutable delivered : int;  (* terminal deliveries, per subscriber *)
  mutable dropped : (unit -> int) list;  (* first-hop loss readers *)
  mutable offered : (unit -> int) list;
      (* packets entering service, per subscriber on a fanout *)
}

let create ?(timed = true) ~layer () =
  { timed;
    kick = Span.name "net.kick";
    fetch = Span.name (layer ^ ".fetch");
    deliver = Span.name (layer ^ ".deliver");
    served = 0; sends = 0; delivered = 0; dropped = []; offered = [] }

let kick w f () =
  if w.timed then begin
    Span.enter w.kick;
    f ();
    Span.exit ()
  end
  else f ()

let fetch w f () =
  let r =
    if w.timed then begin
      Span.enter w.fetch;
      let r = f () in
      Span.exit ();
      r
    end
    else f ()
  in
  (match r with Some _ -> w.served <- w.served + 1 | None -> ());
  r

let deliver w f ~now x =
  if w.timed then begin
    Span.enter w.deliver;
    f ~now x;
    Span.exit ()
  end
  else f ~now x;
  w.delivered <- w.delivered + 1

let send w f p =
  let ok =
    if w.timed then begin
      Span.enter w.kick;
      let ok = f p in
      Span.exit ();
      ok
    end
    else f p
  in
  if ok then w.sends <- w.sends + 1;
  ok

let transport w (inner : T.t) : T.t =
  let unicast ~rate_bps ?delay ?loss ?on_served ~label ~rng ~fetch:f
      ~deliver:d () =
    let u =
      inner.T.unicast ~rate_bps ?delay ?loss ?on_served ~label ~rng
        ~fetch:(fetch w f) ~deliver:(deliver w d) ()
    in
    let stats () = u.T.u_stats () in
    w.dropped <- (fun () -> (stats ()).Net.Link.Stats.dropped) :: w.dropped;
    w.offered <- (fun () -> (stats ()).Net.Link.Stats.fetched) :: w.offered;
    { u with T.u_kick = kick w u.T.u_kick }
  in
  let outbox ~rate_bps ?delay ?loss ?queue_capacity ~label ~rng ~deliver:d () =
    let o =
      inner.T.outbox ~rate_bps ?delay ?loss ?queue_capacity ~label ~rng
        ~deliver:(deliver w d) ()
    in
    let stats () = o.T.o_stats () in
    w.dropped <- (fun () -> (stats ()).Net.Link.Stats.dropped) :: w.dropped;
    w.offered <- (fun () -> (stats ()).Net.Link.Stats.fetched) :: w.offered;
    { o with T.o_send = send w o.T.o_send }
  in
  let fanout ~rate_bps ?delay ?on_served ~label ~rng ~fetch:f () =
    let fo =
      inner.T.fanout ~rate_bps ?delay ?on_served ~label ~rng ~fetch:(fetch w f)
        ()
    in
    let subscribe ~loss d =
      let sid = fo.T.f_subscribe ~loss (deliver w d) in
      w.dropped <- (fun () -> fo.T.f_receiver_losses sid) :: w.dropped;
      w.offered <- fo.T.f_served :: w.offered;
      sid
    in
    { fo with T.f_kick = kick w fo.T.f_kick; f_subscribe = subscribe }
  in
  { T.name = inner.T.name; unicast; outbox; fanout }

let sum = List.fold_left (fun acc f -> acc + f ()) 0

(* Packets the wrapped media's own loss processes destroyed (first
   hop / last hop); per-link drops inside a topology are read from its
   substrate by the caller. *)
let first_hop_dropped w = sum w.dropped

(* Over a single-hop transport, the packet triple of every wrapped
   medium: packets that entered service (once per subscriber on a
   fanout), terminal deliveries, and loss-draw drops. Their slack is
   the packets still in service, at most one per server. *)
let triple w = (sum w.offered, w.delivered, sum w.dropped)

(* Advancing a simulation one slice of simulated time.

   Untraced, a slice is [Engine.run ~until]. Traced, the engine is
   stepped one event at a time, each step inside a [sim.step] span, up
   to a no-op sentinel event scheduled at the slice end. The sentinel
   changes neither the order nor the timing of the other events (it
   only ever fires between them), so both modes run the same
   simulation; [events] discounts the sentinels. *)

module Engine = Softstate_sim.Engine

let step_name = Span.name "sim.step"

type t = { engine : Engine.t; traced : bool; mutable sentinels : int }

let create ~traced engine = { engine; traced; sentinels = 0 }

let until t time =
  if not t.traced then Engine.run ~until:time t.engine
  else begin
    let fired = ref false in
    ignore (Engine.schedule_at t.engine ~time (fun _ -> fired := true));
    t.sentinels <- t.sentinels + 1;
    while not !fired do
      Span.set_id (Engine.events_fired t.engine);
      Span.enter step_name;
      ignore (Engine.step t.engine);
      Span.exit ()
    done
  end

let events t = Engine.events_fired t.engine - t.sentinels

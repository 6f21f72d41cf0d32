module Heap = Softstate_util.Heap

type t = {
  mutable clock : float;
  calendar : (t -> unit) Heap.t;
  periodics : (t -> unit) Heap.t;
  mutable events_fired : int;
  mutable high_water : int;
  mutable on_step : (t -> unit) option;
}

type event = Heap.handle

(* A self-rearming entry on [periodics]. [timer] is the currently
   armed occurrence; it is dead while the firing callback runs, so a
   cancel from inside the callback finds nothing pending. [stopped]
   makes cancellation idempotent and stops rearming if the cancel
   lands while the callback is running. *)
type periodic = {
  mutable timer : Heap.handle;
  mutable stopped : bool;
}

let create ?(start = 0.0) () =
  { clock = start;
    calendar = Heap.create ();
    periodics = Heap.create ();
    events_fired = 0; high_water = 0; on_step = None }

let now t = t.clock
let pending t = Heap.length t.calendar + Heap.length t.periodics

let note_depth t =
  let depth = pending t in
  if depth > t.high_water then t.high_water <- depth

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let e = Heap.insert t.calendar ~key:time f in
  note_depth t;
  e

let schedule t ~after f =
  if after < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. after) f

let cancel t e = Heap.remove t.calendar e

let events_fired t = t.events_fired
let high_water t = t.high_water

let on_step t f =
  t.on_step <-
    (match t.on_step with
    | None -> Some f
    | Some g -> Some (fun engine -> g engine; f engine))

let fire t time f =
  t.clock <- time;
  t.events_fired <- t.events_fired + 1;
  f t;
  match t.on_step with None -> () | Some g -> g t

(* Determinism contract: at equal timestamps, one-shot events fire
   before periodics (the periodic root must be strictly earlier), and
   each class is FIFO by its heap's insertion sequence. Both roots are
   read through the heap's slot protocol, so a step builds no option
   or tuple. *)
let[@hot] fire_root t heap slot =
  let time = Heap.top_key heap in
  let f = Heap.slot_value heap slot in
  Heap.drop_top heap;
  fire t time f

let[@hot] step t =
  let limit = Heap.min_key_or t.calendar ~default:infinity in
  let slot = Heap.top t.periodics in
  if slot >= 0 && Heap.top_key t.periodics < limit then begin
    fire_root t t.periodics slot;
    true
  end
  else begin
    let slot = Heap.top t.calendar in
    if slot < 0 then false
    else begin
      fire_root t t.calendar slot;
      true
    end
  end

let next_time t =
  Float.min
    (Heap.min_key_or t.calendar ~default:infinity)
    (Heap.min_key_or t.periodics ~default:infinity)

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      while next_time t <= horizon && step t do () done;
      if t.clock < horizon then t.clock <- horizon

let schedule_periodic t ~period ?jitter f =
  if period <= 0.0 then
    invalid_arg "Engine.schedule_periodic: period must be positive";
  let delay () =
    match jitter with
    | None -> period
    | Some j ->
        let d = period +. j () in
        if d <= 0.0 then
          invalid_arg "Engine.schedule_periodic: jitter exceeds period";
        d
  in
  let p = { timer = Heap.nil; stopped = false } in
  (* one firing closure per timer, reused by every occurrence *)
  let rec tick engine =
    f engine;
    if not p.stopped then arm engine
  and arm engine =
    p.timer <-
      Heap.insert engine.periodics ~key:(engine.clock +. delay ()) tick;
    note_depth engine
  in
  arm t;
  p

let cancel_periodic t p =
  if p.stopped then false
  else begin
    p.stopped <- true;
    Heap.remove t.periodics p.timer
  end

let every t ~period ?jitter f =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  let jitter =
    match jitter with
    | None -> None
    | Some j ->
        Some
          (fun () ->
            let d = j () in
            if period +. d <= 0.0 then
              invalid_arg "Engine.every: jitter exceeds period";
            d)
  in
  let p = schedule_periodic t ~period ?jitter f in
  fun () -> cancel_periodic t p

(** Discrete-event simulation engine.

    A calendar of timestamped callbacks drives all protocol
    simulations in this repository. Time is a float in seconds and
    advances only when events fire; there is no wall-clock coupling,
    so simulated years run in milliseconds.

    The engine is deliberately minimal: schedule, cancel, run until a
    horizon or until the calendar drains. Model processes (arrivals,
    services, timers) are ordinary closures that reschedule
    themselves.

    Two indexed heaps ({!Softstate_util.Heap}) back the engine: one
    for one-shot events and one for the periodic-refresh class
    ([schedule_periodic] / [every]). Insert and extract are O(log n),
    cancel is O(1). Determinism contract: events fire in (time, class,
    FIFO) order — at equal timestamps every one-shot precedes every
    periodic, and each class is FIFO within itself. *)

type t

type event
(** Cancellable reference to a scheduled callback. *)

type periodic
(** Cancellable reference to a recurring timer. *)

val create : ?start:float -> unit -> t
(** [create ~start ()] makes an engine whose clock starts at [start]
    (default 0). *)

val now : t -> float
(** Current simulation time. *)

val schedule : t -> after:float -> (t -> unit) -> event
(** [schedule t ~after f] arranges for [f t] to run at
    [now t +. after]. [after] must be non-negative: the past is not
    schedulable. Events at equal times fire in scheduling order. *)

val schedule_at : t -> time:float -> (t -> unit) -> event
(** Absolute-time variant; [time] must not precede [now t]. *)

val cancel : t -> event -> bool
(** [cancel t e] prevents [e] from firing; [false] if it already fired
    or was cancelled. *)

val pending : t -> int
(** Number of events still scheduled. *)

val events_fired : t -> int
(** Total events fired since creation. *)

val high_water : t -> int
(** Deepest the calendar has ever been — the loop-health number that
    catches runaway self-rescheduling. *)

val on_step : t -> (t -> unit) -> unit
(** [on_step t f] runs [f t] after every fired event (composing with
    any hook already installed). The observability layer uses this to
    sample loop health; keep [f] cheap. *)

val step : t -> bool
(** Fire the single earliest event; [false] when the calendar is
    empty. *)

val run : ?until:float -> t -> unit
(** [run ?until t] fires events in time order until the calendar is
    empty or the next event lies strictly beyond [until]. When a
    horizon is given the clock is left at [until] (so time-weighted
    statistics can be closed out at the horizon). *)

val schedule_periodic :
  t -> period:float -> ?jitter:(unit -> float) -> (t -> unit) -> periodic
(** [schedule_periodic t ~period f] arms a recurring timer on the
    periodic heap: [f] runs at now + period, then repeatedly each
    [period] (plus [jitter ()] if given, which must return values
    > -period). Rearming an occurrence is O(log n) and allocates a
    constant few words whatever the number of live timers; cancelling
    is O(1). *)

val cancel_periodic : t -> periodic -> bool
(** Stop a recurrence; [false] if already cancelled or no firing was
    pending. *)

val every : t -> period:float -> ?jitter:(unit -> float) -> (t -> unit)
  -> (unit -> bool)
(** [every t ~period f] is [schedule_periodic] packaged as a closure:
    the returned canceller stops the recurrence and reports whether a
    firing was still pending. *)

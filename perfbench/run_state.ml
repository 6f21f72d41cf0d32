(* What every workload hands the harness once it is set up: a
   simulation (or scenario chain) ready to be advanced one slice at a
   time, plus the read-outs the harness needs around the timed
   slices. Everything except [slice] runs outside the timed region. *)

(* An output check covers [attempted] runs or scenarios, [failed] of
   which failed it. *)
type check = { what : string; attempted : int; failed : int; detail : string }

let check what ok detail =
  { what; attempted = 1; failed = (if ok then 0 else 1); detail }

let check_units what ~attempted ~failed detail =
  { what; attempted; failed; detail }

type t = {
  slice : unit -> unit;
      (* advance one fixed simulated interval (one scenario for the
         fuzz battery) *)
  sample : unit -> unit;
      (* after each slice, untimed: consistency samples, occupancy *)
  events : unit -> int;
      (* engine events fired so far by the measured work *)
  sim_time : unit -> float;  (* simulated seconds advanced so far *)
  consistency : unit -> float;
      (* the guard value, over the workload's fixed window of slices *)
  fingerprint : unit -> string;
      (* digest of the simulated statistics at this point *)
  window_fingerprint : unit -> string;
      (* the same digest, taken at the end of the fixed window *)
  layers : unit -> (string * float) list;
      (* per-layer counters and span readings of the measured phase *)
  calendar : unit -> Probes.calendar;
      (* the calendar load of the measured phase, to probe at *)
  checks : unit -> check list;  (* output checks; may run the sim on *)
  mark : unit -> unit;
      (* start of the measured phase: snapshot counters for deltas *)
  window : int;
      (* the fixed window: the first [window] slices of the measured
         phase, over which the work-determined metrics (consistency,
         allocation, heap, fingerprint) are read, so they do not
         depend on how many slices the time budget allowed *)
  granule : int;
      (* the measured phase runs a whole multiple of this many slices:
         one period of the workload's own cycle *)
}

(** Array-backed binary min-heap with O(1) lazy removal of arbitrary
    elements via handles.

    The simulation event calendar needs three operations fast: insert,
    extract-min, and cancel (remove an event that has not yet fired).
    A handle is returned at insertion and stays valid until the
    element leaves the heap.

    Internally the heap stores elements in unboxed parallel arrays
    (flat float keys, int sequence numbers, values, handles) rather
    than boxed per-slot records, and cancellation is {e lazy}:
    [remove] tombstones the slot in O(1); dead slots are skipped at
    extraction and swept out in O(n) once tombstones outnumber live
    elements. Soft-state timer workloads cancel most timers before
    they fire, which makes cancel the operation to optimise for. *)

type 'a t
(** Heap of elements prioritised by a float key (smallest first); ties
    broken by insertion order, so equal-key elements dequeue FIFO. *)

type handle
(** Stable reference to an inserted element. *)

val nil : handle
(** A handle that refers to no element: [mem] is [false] and [remove]
    returns [false]. Placeholder for a field that is set on first
    insert. *)

val create : ?initial_capacity:int -> unit -> 'a t

val length : 'a t -> int
(** Number of live (non-tombstoned) elements. *)

val insert : 'a t -> key:float -> 'a -> handle
(** [insert t ~key v] adds [v] with priority [key]. *)

val min_key : 'a t -> float option
(** Smallest live key, or [None] when empty. *)

(** {2 Zero-allocation extraction}

    [min_key]/[peek]/[pop] box their results — two heap blocks per
    engine step when called per event. The per-event protocol below
    allocates nothing: call [top]; if it returns a slot id [>= 0],
    read [top_key]/[slot_value], then [drop_top] to extract. A freed
    slot keeps its payload until an [insert] reuses it, so reading
    [slot_value slot] immediately after [drop_top] is sound. *)

val min_key_or : 'a t -> default:float -> float
(** Smallest live key, or [default] when empty; never allocates. *)

val top : 'a t -> int
(** Slot id of the minimum live element, or [-1] when empty. *)

val top_key : 'a t -> float
(** Key at the root. Only meaningful right after [top] returned
    [>= 0]. *)

val slot_value : 'a t -> int -> 'a
(** Payload of a slot returned by [top] — valid until the next
    [insert]. *)

val drop_top : 'a t -> unit
(** Extract the root and invalidate its handle. Only legal right
    after [top] returned [>= 0]. *)

val peek : 'a t -> (float * 'a) option
(** Minimum live (key, value) without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum (key, value). *)

val remove : 'a t -> handle -> bool
(** [remove t h] deletes the element referenced by [h]; [false] if it
    already left the heap (popped or removed). O(1) amortised: the
    slot is tombstoned and physically reclaimed later. *)

val mem : 'a t -> handle -> bool
(** Whether the handle still refers to a live element. *)

val clear : 'a t -> unit
(** Empty the heap: invalidates all outstanding handles, resets the
    FIFO sequence counter, drops payload references and shrinks the
    backing arrays back below a fixed threshold. *)

val capacity : 'a t -> int
(** Current backing-array length (exposed for tests and benchmarks). *)

val tombstones : 'a t -> int
(** Cancelled-but-unreclaimed slot count (exposed for tests). *)

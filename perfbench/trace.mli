(** In-memory span recorder for the traced run.

    A span has a name, a start, an end and the span that caused it;
    every span of one benchmark item carries that item's id.  Spans are
    recorded from the benchmark's own code around calls into the
    program's layers and kept in memory until the run ends.

    Calls too numerous to record one by one (the annealer's cost
    evaluations) are {e charged} to the enclosing span instead: their
    total time counts as covered child time, like a child span. *)

type span = {
  id : int;
  parent : int option;
  item : int;
  name : string;
  start : float;  (** seconds, monotonic *)
  mutable stop : float;
  mutable charged : float;  (** aggregated child time, seconds *)
}

type t

val create : unit -> t

val with_span : t -> item:int -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span whose parent is the innermost open
    span of [t] (none at top level).  The span is closed also when the
    thunk raises. *)

val add : t -> item:int -> string -> start:float -> stop:float -> span
(** Record a root span whose interval was measured elsewhere (for
    example by the program itself). *)

val charge : t -> float -> unit
(** Add aggregated child time to the innermost open span; no-op when
    none is open. *)

val spans : t -> span list
(** Closed and open spans, in start order. *)

val duration : span -> float

val self_times : span list -> (span * float) list
(** Each span with its self time: its duration minus its children's
    durations and its charged time, floored at 0.  Spans from
    {!with_span} on one recorder are strictly nested and sequential, so
    siblings never overlap. *)

val coverage : span list -> float
(** Share of the root spans' time covered by their direct children
    (including charged time); 0 when there are no roots. *)

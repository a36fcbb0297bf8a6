(** What every workload hands back to [main], and the helpers the
    workloads share. *)

type item = {
  kind : string;  (** what the item is, e.g. ["wide"], ["opamp"], ["mc"] *)
  ms : float;  (** wall time of the item *)
  failed : bool;  (** raised, or ended in a typed failure *)
  met : bool;  (** met its own criterion *)
}

type outcome = {
  setups : float list;  (** seconds of each repeated set-up *)
  items : item list;  (** the timed items, in order *)
  scored : item list;
      (** the items of the first [min_passes] passes, fixed by the seed:
          [met_ratio] counts these, so it moves only with results *)
  timed_s : float;  (** wall time of the timed phase *)
  checks : (string * bool) list;  (** named output checks *)
  layer : (string * float) list;  (** per-layer metrics (traced runs) *)
}

val proc : Ape_process.Process.t
(** The process deck every workload runs on. *)

val now : unit -> float
(** Monotonic seconds. *)

val timed : (unit -> 'a) -> 'a * float
(** The thunk's result and its wall time in seconds. *)

val setup_repeats : int
(** [setup_s] is the median over this many set-ups in one run. *)

type 'a setup
(** A workload's set-up: its result, and the durations of every time
    it has run. *)

val setup : ?dispose:('a -> unit) -> (unit -> 'a) -> 'a setup
(** Run the set-up once, timed, and keep its result.  Later repeats
    (see {!passes}) are timed and their results disposed of. *)

val state : 'a setup -> 'a

val passes :
  seconds:float -> min_passes:int -> _ setup -> (int -> 'a list) -> 'a list list * float * float list
(** [passes ~seconds ~min_passes setup pass] runs [pass 0], [pass 1], …
    until at least [min_passes] passes have run and their time adds up
    to [seconds] — always whole passes — and returns each pass's
    results, in order, the time of the passes, and the duration of
    every set-up.

    Between passes it repeats the set-up, untimed by the passes, each
    time the passes' time crosses the next of [setup_repeats - 1] marks
    spread evenly over [seconds] (and after the last pass until it has
    run [setup_repeats] times), so [setup_s] samples the host over the
    whole run rather than its first second. *)

val leading : int -> 'a list list -> 'a list
(** The concatenated results of the first [k] passes. *)

val run_item : kind:string -> met:('a -> bool) -> (unit -> 'a) -> item * 'a option
(** Time one item.  An exception marks it failed (not met). *)

type gc_acc
(** Allocation and major collections accumulated over chosen stretches
    of the calling domain. *)

val gc_acc : unit -> gc_acc

val gc_count : gc_acc -> (unit -> 'a) -> 'a
(** Run the thunk, adding what it allocated and collected. *)

val gc_layer : gc_acc -> items:int -> (string * float) list
(** [gc.minor_mb_per_item] and [gc.major_collections_per_item]. *)

val spice_layer : Ape_obs.snapshot -> items:int -> (string * float) list
(** Solver, matrix and convergence counters per item from an
    {!Ape_obs} snapshot. *)

val self_p50_ms : Trace.span list -> string -> float
(** Median self time, in ms, of the spans with that name (0 if none). *)

val p50_ms : float list -> float
(** Median of seconds, in ms (0 if empty). *)

val overhead_pct : traced:float -> untraced:float -> float
(** Extra wall time of the traced repetition, in percent. *)

(** Transient analysis.

    Fixed-step implicit integration (backward Euler by default,
    trapezoidal optionally) with a full Newton solve per step.  Newton
    steps solve with the sparse LU: one symbolic analysis per run,
    replayed numerically across steps and iterations.  Source
    waveforms are supplied as functions of time keyed by source name
    ({!Engine.stimulus}), so the netlist itself stays purely structural.

    Used by the measurement layer for slew rate, settling/response time
    (S&H) and comparator/ADC delay. *)

type method_ = Backward_euler | Trapezoidal

type waveform = float -> float

val step : ?t0:float -> ?low:float -> high:float -> unit -> waveform
(** Step from [low] (default 0) to [high] at [t0] (default 0). *)

val pulse :
  ?delay:float ->
  ?rise:float ->
  low:float ->
  high:float ->
  width:float ->
  period:float ->
  unit ->
  waveform
(** Periodic trapezoidal pulse (SPICE PULSE-like, fall time = rise
    time, default rise 1 ns). *)

val sine : ?offset:float -> ampl:float -> freq:float -> unit -> waveform

type result = {
  times : float array;
  nodes : (string * float array) list;
      (** waveform samples for every non-ground node *)
}

exception Step_failed of float
(** Newton failed at the given time even after step cutting. *)

type companion = {
  newton_step : float array -> float array option;
      (** Newton step [dx] at [x] for the companion system
          [F(x) + gc·C·(x − x_prev) − trap = 0], or [None] when its
          Jacobian is singular *)
  cap_current : float array -> float array;
      (** capacitor companion current [gc·C·(x − x_prev) − trap] at an
          accepted [x] *)
}

type linear_step =
  time:float -> gc:float -> x_prev:float array -> trap:float array -> companion
(** The linear system of one step attempt to [time]: [C] is stamped at
    [x_prev], [gc] is [1/h] (backward Euler) or [2/h] (trapezoidal) and
    [trap] the previous capacitor current (zero for backward Euler). *)

val run :
  ?method_:method_ ->
  ?max_newton:int ->
  ?linear:
    (stimulus:Engine.stimulus ->
    Ape_circuit.Netlist.t ->
    Engine.index ->
    linear_step) ->
  stimulus:Engine.stimulus ->
  tstop:float ->
  dt:float ->
  Dc.op ->
  result
(** Integrate from the DC operating point [op] at fixed step [dt].  On a
    Newton failure the step is halved (up to 8 times) before
    {!Step_failed} is raised.  [linear] builds the run's linear step;
    the default is the sparse LU, and only the dense test oracle passes
    another. *)

val samples : result -> string -> float array
(** Waveform of one node; raises [Not_found]. *)

val value_at : result -> string -> float -> float
(** Linear interpolation of one node's waveform. *)

val max_slope : result -> string -> float
(** max |dv/dt| between consecutive samples, V/s — used for slew rate. *)

val crossing_time :
  ?rising:bool -> result -> string -> level:float -> float option
(** First time the waveform crosses [level] (in the given direction),
    linearly interpolated. *)

val settling_time :
  result -> string -> final:float -> band:float -> float option
(** Earliest time after which the waveform stays within [band]
    (fractional, e.g. 0.02) of [final]. *)

(** DC operating-point analysis: damped Newton–Raphson with gmin stepping
    and a source-stepping fallback — the same continuation strategy SPICE
    uses.  Each Newton iteration solves its linear system with the sparse
    symbolic-once/numeric-many LU ({!Ape_util.Sparse}): one pivot
    analysis per solve, replayed numerically across iterations and
    continuation stages. *)

type op = {
  netlist : Ape_circuit.Netlist.t;
  index : Engine.index;
  x : float array;  (** solution: node voltages then branch currents *)
  iterations : int;  (** Newton iterations of the final solve *)
}

exception No_convergence of string

type linear_step =
  gmin:float ->
  source_scale:float ->
  float array ->
  (float array * float array) option
(** One Newton linearisation at [x]: the residual [F(x)] and the step
    [dx] solving [J dx = -F], or [None] when [J] is singular. *)

val solve :
  ?max_iter:int ->
  ?tol_v:float ->
  ?tol_i:float ->
  ?x0:float array ->
  ?linear:(Ape_circuit.Netlist.t -> Engine.index -> linear_step) ->
  Ape_circuit.Netlist.t ->
  op
(** Raises {!No_convergence} if Newton, gmin stepping and source stepping
    all fail.  [linear] builds the per-solve linear step; the default is
    the sparse LU, and only the dense test oracle passes another. *)

val voltage : op -> Ape_circuit.Netlist.node -> float

val branch_current : op -> string -> float option
(** Current through a named V-source/VCVS (SPICE sign: positive flows
    p→n inside the source). *)

val supply_current : op -> string -> float
(** Magnitude of the current delivered by the named V-source; raises
    [Not_found] for an unknown name.  Static power =
    supply voltage × this. *)

val static_power : op -> supply:string -> float
(** |V| · |I| of the named supply source. *)

val mosfet_regions :
  op -> (string * Ape_device.Mos.region * float) list
(** Per-MOSFET region and drain current at the operating point. *)

val pp : Format.formatter -> op -> unit

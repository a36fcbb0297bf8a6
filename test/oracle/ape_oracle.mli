(** Dense reference simulator.

    The production analyses in [Ape_spice] solve every linear system
    with the sparse symbolic-once/numeric-many LU.  This library keeps
    the historical dense paths — restamping through [Engine] and
    factoring with [Matrix.Rmat]/[Matrix.Cmat] — as independent
    references for differential tests and benches.  They share only the
    device stamps with production, never the linear algebra. *)

module Ac : sig
  val solve_at : Ape_spice.Dc.op -> float -> Ape_spice.Ac.solution
  (** Single-frequency solve: restamp [G + jωC] densely and factor it
      with [Cmat]. *)

  val magnitude_at :
    node:Ape_circuit.Netlist.node -> Ape_spice.Dc.op -> float -> float
  (** |V(node)| of {!solve_at}. *)

  val matrix_at : Ape_spice.Dc.op -> float -> Ape_util.Matrix.Cmat.t
  (** The dense [G + jωC] {!solve_at} factors. *)
end

module Noise : sig
  val output_noise_direct :
    out:Ape_circuit.Netlist.node ->
    freq:float ->
    Ape_spice.Dc.op ->
    float * Ape_spice.Noise.contribution list
  (** One dense direct solve per noise source (counted under
      [noise.direct_solves]) instead of production's single adjoint
      solve; same breakdown, sorted descending. *)
end

val dc_linear :
  Ape_circuit.Netlist.t -> Ape_spice.Engine.index -> Ape_spice.Dc.linear_step
(** Dense Newton step for {!Ape_spice.Dc.solve}[ ~linear]: restamp the
    Jacobian with [Engine.residual_jacobian] and factor it with
    [Rmat]. *)

val dc_solve : Ape_circuit.Netlist.t -> Ape_spice.Dc.op
(** [Dc.solve ~linear:dc_linear]: the production continuation loop on
    dense linear algebra. *)

val transient_linear :
  stimulus:Ape_spice.Engine.stimulus ->
  Ape_circuit.Netlist.t ->
  Ape_spice.Engine.index ->
  Ape_spice.Transient.linear_step
(** Dense companion step for {!Ape_spice.Transient.run}[ ~linear]. *)

val transient_run :
  ?method_:Ape_spice.Transient.method_ ->
  stimulus:Ape_spice.Engine.stimulus ->
  tstop:float ->
  dt:float ->
  Ape_spice.Dc.op ->
  Ape_spice.Transient.result
(** [Transient.run ~linear:transient_linear]. *)

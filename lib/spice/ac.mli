(** Small-signal AC analysis.

    Linearises the circuit at a DC operating point — the AC system matrix
    is exactly the DC Newton Jacobian plus jω·C, so the linearisation can
    never disagree with the nonlinear model — and solves the complex MNA
    system at each requested frequency.  AC excitations are the [ac]
    magnitudes declared on the netlist's independent sources.

    {!prepare} stamps the operating point {e once} into sparse G
    (conductance) and C (capacitance) slot values plus the RHS pattern
    and runs one symbolic analysis of the sparse LU at ω = 0.  Every
    frequency after that only assembles [G + jωC] into a reusable
    workspace and refactors numerically — no netlist traversal, no
    per-call matrix allocation.  Multi-frequency solves go through
    frequency panels ({!solve_many}, {!sweep_prepared}) that replay one
    refactor across several lanes, bit-identical to the per-frequency
    path.  The dense restamping reference the differential tests compare
    against lives in the test oracle, not here. *)

type solution = {
  freq : float;  (** Hz *)
  x : Complex.t array;  (** node phasors then branch currents *)
}

type sweep = {
  op : Dc.op;
  points : solution list;  (** ascending frequency *)
}

type prepared
(** One-time preparation of a circuit for repeated AC evaluation. *)

val prepare : Dc.op -> prepared
(** Stamp G, C and the AC RHS once and run the symbolic analysis;
    every subsequent {!solve_prepared} skips the netlist traversal
    entirely. *)

val op : prepared -> Dc.op
(** The operating point the preparation was built from. *)

val stamp_rhs : Dc.op -> Complex.t array
(** The AC excitation vector: the [ac] magnitudes of the netlist's
    independent sources, constant over frequency. *)

val solve_prepared : prepared -> float -> solution
(** Assemble [G + jωC] in the preparation's workspace, refactor and
    solve.  A frequency whose frozen ω = 0 pivots go unstable is
    refactored with fresh pivoting for that point only.  Reuses
    internal mutable workspaces: do not call concurrently from several
    domains on the same [prepared] (use {!sweep_prepared}[ ~jobs] for
    that). *)

val solve_fresh : prepared -> float -> solution
(** Like {!solve_prepared} but with per-call workspaces, touching only
    the read-only stamps — safe to call concurrently on a shared
    [prepared] from multiple domains. *)

val panel_width : unit -> int
(** Width of the frequency panels blocked solves use (how many
    frequencies one traversal of the symbolic structure refactors and
    solves): 8.  Width 1 is the scalar per-frequency path.  Results are
    bit-identical for every width. *)

val set_panel_width : int -> unit
(** Override {!panel_width} for this process ([k >= 1]) — the seam the
    width-identity test and the bench's width curve use. *)

val solve_many : prepared -> float array -> solution array
(** Blocked multi-frequency solve on the preparation's cached
    single-domain workspace: the grid is cut into {!panel_width}
    panels, each refactored and solved by one symbolic traversal
    ([Sparse.Csplit.Panel]).  Every point is bit-identical to
    [solve_prepared p f].  Not safe to call concurrently on one
    [prepared] (use {!sweep_prepared}[ ~jobs]). *)

(** {2 Factored systems} *)

type system
(** A factored [G + jωC] at one frequency, for analyses that solve
    their own adjoint right-hand sides (e.g. noise). *)

val system_at : prepared -> float -> system
(** Assemble and factor the AC system at one frequency, with private
    workspaces (safe to use from any domain). *)

val system_solve_transposed : system -> Complex.t array -> Complex.t array
(** Solve [Aᵀ y = b] with the same factorisation — one adjoint solve
    against an output selector yields the transfer impedance from every
    injection site at once (reciprocity). *)

val voltage : Dc.op -> solution -> Ape_circuit.Netlist.node -> Complex.t

val voltage_prepared :
  prepared -> solution -> Ape_circuit.Netlist.node -> Complex.t

val magnitude_prepared :
  node:Ape_circuit.Netlist.node -> prepared -> float -> float
(** |V(node)| at one frequency through the prepared path. *)

val sweep_frequencies :
  ?points_per_decade:int -> fstart:float -> fstop:float -> unit -> float list
(** The logarithmic grid {!sweep} evaluates (inclusive endpoints,
    default 10 points/decade). *)

val sweep_prepared : ?jobs:int -> prepared -> float list -> sweep
(** Solve an explicit frequency list on one preparation, in
    {!panel_width} blocks.  [jobs > 1] distributes whole panels over
    that many domains with the deterministic chunking of
    {!Ape_util.Pool} (0 = hardware recommendation), drawing from a pool
    of per-domain cloned workspaces — one clone per domain that runs,
    not one per point.  Panel boundaries depend only on the grid and
    the width, so results are bit-identical for every [jobs] value. *)

val sweep :
  ?jobs:int ->
  ?points_per_decade:int ->
  fstart:float ->
  fstop:float ->
  Dc.op ->
  sweep
(** Logarithmic sweep, inclusive of both endpoints.  Default 10
    points/decade, sequential ([jobs] as in {!sweep_prepared}).
    Prepares once internally — every point shares the same stamps. *)

val transfer :
  node:Ape_circuit.Netlist.node -> sweep -> (float * Complex.t) list
(** [(frequency, phasor)] of one node over the sweep. *)

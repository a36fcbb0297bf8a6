module Rmat = Ape_util.Matrix.Rmat
module Cmat = Ape_util.Matrix.Cmat
module Engine = Ape_spice.Engine
module Dc = Ape_spice.Dc

let c_solve_at = Ape_obs.counter "ac.solve_at"
let c_direct = Ape_obs.counter "noise.direct_solves"

let complex re im = { Complex.re; im }

module Ac = struct
  let matrix_at (op : Dc.op) freq =
    let netlist = op.Dc.netlist and index = op.Dc.index in
    let n = Engine.size index in
    (* Real part: DC Jacobian at the operating point (gmin kept tiny). *)
    let _, g = Engine.residual_jacobian ~gmin:1e-12 netlist index op.Dc.x in
    let c = Engine.stamp_capacitances netlist index op.Dc.x in
    let omega = 2. *. Float.pi *. freq in
    let a = Cmat.create n n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let gre = Rmat.get g i j and cim = Rmat.get c i j in
        if gre <> 0. || cim <> 0. then
          Cmat.set a i j (complex gre (omega *. cim))
      done
    done;
    a

  let solve_at op freq =
    Ape_obs.incr c_solve_at;
    {
      Ape_spice.Ac.freq;
      x = Cmat.solve (matrix_at op freq) (Ape_spice.Ac.stamp_rhs op);
    }

  let magnitude_at ~node op freq =
    Complex.norm (Ape_spice.Ac.voltage op (solve_at op freq) node)
end

module Noise = struct
  let output_noise_direct ~out ~freq (op : Dc.op) =
    let index = op.Dc.index in
    let n = Engine.size index in
    let lu = Cmat.lu_factor (Ac.matrix_at op freq) in
    let inject a_node b_node =
      let rhs = Array.make n Complex.zero in
      (match Engine.node_id index a_node with
      | Some i -> rhs.(i) <- Complex.sub rhs.(i) Complex.one
      | None -> ());
      (match Engine.node_id index b_node with
      | Some i -> rhs.(i) <- Complex.add rhs.(i) Complex.one
      | None -> ());
      Ape_obs.incr c_direct;
      let x = Cmat.lu_solve lu rhs in
      match Engine.node_id index out with
      | Some i -> Complex.norm x.(i)
      | None -> 0.
    in
    let contributions =
      List.map
        (fun (element, a_node, b_node, s_i) ->
          let z = inject a_node b_node in
          { Ape_spice.Noise.element; psd = s_i *. z *. z })
        (Ape_spice.Noise.noise_sources op freq)
    in
    let total =
      List.fold_left (fun acc c -> acc +. c.Ape_spice.Noise.psd) 0. contributions
    in
    ( total,
      List.sort
        (fun x y -> compare y.Ape_spice.Noise.psd x.Ape_spice.Noise.psd)
        contributions )
end

let neg = Array.map (fun v -> -.v)

let dense_solve j f =
  match Rmat.lu_factor j with
  | exception Ape_util.Matrix.Singular -> None
  | lu -> Some (Rmat.lu_solve lu (neg f))

let dc_linear netlist index ~gmin ~source_scale x =
  let f, j = Engine.residual_jacobian ~gmin ~source_scale netlist index x in
  Option.map (fun dx -> (f, dx)) (dense_solve j f)

let dc_solve netlist = Dc.solve ~linear:dc_linear netlist

let transient_linear ~stimulus netlist index ~time ~gc ~x_prev ~trap =
  let n = Engine.size index in
  let c = Engine.stamp_capacitances netlist index x_prev in
  (* gc·C·(x − x_prev), row by row. *)
  let charge row x =
    let acc = ref 0. in
    for col = 0 to n - 1 do
      let cv = Rmat.get c row col in
      if cv <> 0. then acc := !acc +. (gc *. cv *. (x.(col) -. x_prev.(col)))
    done;
    !acc
  in
  let newton_step x =
    let f, j =
      Engine.residual_jacobian ~gmin:1e-12 ~time ~stimulus netlist index x
    in
    for row = 0 to n - 1 do
      for col = 0 to n - 1 do
        let cv = Rmat.get c row col in
        if cv <> 0. then Rmat.add_to j row col (gc *. cv)
      done;
      f.(row) <- f.(row) +. charge row x -. trap.(row)
    done;
    dense_solve j f
  in
  let cap_current x = Array.init n (fun row -> charge row x -. trap.(row)) in
  { Ape_spice.Transient.newton_step; cap_current }

let transient_run ?method_ ~stimulus ~tstop ~dt op =
  Ape_spice.Transient.run ?method_ ~linear:transient_linear ~stimulus ~tstop
    ~dt op

module S = Ape_synth
module E = Ape_estimator
module Rng = Ape_util.Rng
module Job = Ape_serve.Job

let stream ~seed ~salt i = Rng.create (Hashtbl.hash (seed, salt, i))
let fresh_seed rng = Rng.int rng 0x3FFF_FFFF

(* ---------- synth-tables ---------- *)

let table1_specs =
  [
    ("oa0", 200., 1.3e6, 1e-6, E.Bias.Wilson, true, Some 1e3);
    ("oa1", 70., 3.0e6, 2e-6, E.Bias.Wilson, true, Some 1e3);
    ("oa2", 100., 2.5e6, 1.5e-6, E.Bias.Wilson, true, Some 2e3);
    ("oa3", 250., 8.0e6, 1e-6, E.Bias.Simple, false, None);
    ("oa4", 150., 3.0e6, 100e-6, E.Bias.Simple, false, None);
    ("oa5", 200., 8.0e6, 10e-6, E.Bias.Simple, false, None);
    ("oa6", 50., 10.0e6, 10e-6, E.Bias.Simple, false, None);
    ("oa7", 200., 3.0e6, 1e-6, E.Bias.Simple, true, Some 1e3);
    ("oa8", 100., 2.0e6, 1e-6, E.Bias.Simple, true, Some 10e3);
    ("oa9", 200., 5.0e6, 10e-6, E.Bias.Simple, true, Some 10e3);
  ]

let table1_rows proc =
  List.map
    (fun (name, gain, ugf, ibias, curr_src, buffer, zout) ->
      let proto =
        { S.Opamp_problem.name; gain; ugf; area = 1.; ibias; curr_src; buffer;
          zout; cl = 10e-12 }
      in
      let ape = S.Opamp_problem.ape_design proc proto in
      { proto with
        S.Opamp_problem.area = 1.3 *. ape.E.Opamp.perf.E.Perf.gate_area })
    table1_specs

type synth_item = { row : int; mode : S.Opamp_problem.mode; anneal_seed : int }

let synth_pass ~seed pass =
  let rng = stream ~seed ~salt:"synth" pass in
  List.concat
    (List.init (List.length table1_specs) (fun row ->
         List.map
           (fun mode -> { row; mode; anneal_seed = fresh_seed rng })
           [ S.Opamp_problem.Wide; S.Opamp_problem.Ape_centered 0.2 ]))

(* oa3 in wide mode: a whole annealing budget on the cheapest row.  The
   warm-up belongs to the set-up, whose time should not depend on the
   seed, so its input is fixed. *)
let synth_warmup = { row = 3; mode = S.Opamp_problem.Wide; anneal_seed = 1 }

(* ---------- verify-sweep ---------- *)

type verify_item = Level of Ape_check.Tolerance.level | Point of E.Opamp.spec

let points_per_pass = 32

let grid_point rng =
  let box = Ape_calib.Grid.default in
  let log_uniform (lo, hi) = Rng.log_uniform rng lo hi in
  let av = log_uniform box.Ape_calib.Grid.av in
  let ugf = log_uniform box.Ape_calib.Grid.ugf in
  let ibias = log_uniform box.Ape_calib.Grid.ibias in
  let cl = log_uniform box.Ape_calib.Grid.cl in
  let buffer = Rng.bool rng in
  let zout = Rng.log_uniform rng 8e2 2.5e3 in
  let bias_topology = Rng.choice rng [| E.Bias.Simple; E.Bias.Wilson |] in
  if buffer then E.Opamp.spec ~buffer ~zout ~bias_topology ~av ~ugf ~ibias ~cl ()
  else E.Opamp.spec ~bias_topology ~av ~ugf ~ibias ~cl ()

let verify_pass ~seed pass =
  List.map (fun l -> Level l) Ape_check.Tolerance.all_levels
  @ List.init points_per_pass (fun j ->
        Point (grid_point (stream ~seed ~salt:"verify" ((pass * points_per_pass) + j))))

let verify_warmup = Point (grid_point (stream ~seed:0 ~salt:"verify-warmup" 0))

(* ---------- serve-mixed ---------- *)

type batch = { jobs : Job.t list; decks : (string * string) list }

let opamp ?(ibias = 1e-6) ?(cl = 10e-12) ?(bias = Job.Simple) ?zout
    ?(buffer = false) gain ugf =
  { Job.gain; ugf; ibias; cl; bias; zout; buffer }

(* Random estimator specs inside the box the template sizes without
   failing: gain 50–300, UGF 0.5–5 MHz, any bias, buffered half the
   time. *)
let random_spec rng =
  let gain = Rng.log_uniform rng 50. 300. in
  let ugf = Rng.log_uniform rng 5e5 5e6 in
  let ibias = Rng.log_uniform rng 7e-7 3e-6 in
  let bias = Rng.choice rng [| Job.Simple; Job.Wilson; Job.Cascode |] in
  if Rng.bool rng then
    opamp ~ibias ~bias ~buffer:true ~zout:(Rng.log_uniform rng 1e3 1e4) gain ugf
  else opamp ~ibias ~bias gain ugf

(* Four synthesis problems shared by every batch, so their warm
   estimate caches are reused with fresh annealing seeds. *)
let synth_problems =
  [
    (opamp 200. 2e6, Job.Ape_mode);
    (opamp 150. 1e6, Job.Ape_mode);
    (opamp 200. 2e6, Job.Wide_mode);
    (opamp 150. 1e6, Job.Wide_mode);
  ]

let rc_deck rng =
  let r () = Rng.log_uniform rng 1e2 1e5 and c () = Rng.log_uniform rng 1e-9 1e-6 in
  Printf.sprintf
    "* generated two-section RC ladder\n\
     V1 in 0 DC 0 AC 1\n\
     R1 in mid %.6e\n\
     C1 mid 0 %.6e\n\
     R2 mid out %.6e\n\
     C2 out 0 %.6e\n\
     .END\n"
    (r ()) (c ()) (r ()) (c ())

(* Jobs per batch by kind, as in the repository's 30-job smoke batch
   (examples/jobs/smoke30.jobs): 12 estimates, 8 syntheses (here each
   of the four problems twice), 7 Monte Carlo runs, 2 sims and one
   verify. *)
let estimates_per_batch = 12
let synth_seeds_per_problem = 2
let mcs_per_batch = 7
let sims_per_batch = 2

let serve_batch ~seed ~deck_dir b =
  let rng = stream ~seed ~salt:"serve" b in
  let id kind j = Printf.sprintf "b%d-%s%d" b kind j in
  let job id payload = { Job.id; timeout = None; payload } in
  let estimates =
    List.init estimates_per_batch (fun j ->
        job (id "e" j) (Job.Estimate (random_spec rng)))
  in
  let synths =
    List.mapi
      (fun j (spec, mode) ->
        job (id "s" j)
          (Job.Synth
             { spec; mode; seed = Some (fresh_seed rng); chains = 1;
               schedule = Job.Quick }))
      (List.concat (List.init synth_seeds_per_problem (fun _ -> synth_problems)))
  in
  let mcs =
    List.init mcs_per_batch (fun j ->
        let spec = random_spec rng in
        job (id "m" j)
          (Job.Mc
             { spec; samples = 30; level = Job.Mc_estimate; sigma_scale = 1.;
               seed = Some (fresh_seed rng) }))
  in
  let decks =
    List.init sims_per_batch (fun j ->
        (Filename.concat deck_dir (Printf.sprintf "rc-%d-%d-%d.sp" seed b j), rc_deck rng))
  in
  let sims =
    List.mapi
      (fun j (file, _) -> job (id "x" j) (Job.Sim { file; out = Some "out" }))
      decks
  in
  let verify =
    job (id "v" 0)
      (Job.Verify { levels = [ "device"; "basic" ]; slew = false; calibration = None })
  in
  (* Interleave the kinds so slow jobs do not cluster in the window. *)
  let rec weave = function
    | [] -> []
    | lists ->
      List.filter_map (function x :: _ -> Some x | [] -> None) lists
      @ weave (List.filter_map (function _ :: (_ :: _ as t) -> Some t | _ -> None) lists)
  in
  { jobs = weave [ synths; estimates; mcs; sims; [ verify ] ]; decks }

let batch_text batch = String.concat "\n" (List.map Job.print batch.jobs) ^ "\n"

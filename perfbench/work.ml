type item = { kind : string; ms : float; failed : bool; met : bool }

type outcome = {
  setups : float list;
  items : item list;
  scored : item list;
  timed_s : float;
  checks : (string * bool) list;
  layer : (string * float) list;
}

let proc = Ape_process.Process.c12
let now = Ape_util.Clock.now_s

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let setup_repeats = 9

type 'a setup = { state : 'a; repeat : unit -> float; mutable times : float list }

let setup ?(dispose = ignore) f =
  let state, dt = timed f in
  let repeat () =
    let x, dt = timed f in
    dispose x;
    dt
  in
  { state; repeat; times = [ dt ] }

let state s = s.state

let passes ~seconds ~min_passes setup pass =
  let elapsed = ref 0. in
  let repeat () = setup.times <- setup.repeat () :: setup.times in
  let due () =
    let k = List.length setup.times in
    k < setup_repeats && !elapsed >= float_of_int k *. seconds /. float_of_int setup_repeats
  in
  let rec go k acc =
    if k >= Int.max 1 min_passes && !elapsed >= seconds then List.rev acc
    else begin
      let r, dt = timed (fun () -> pass k) in
      elapsed := !elapsed +. dt;
      while due () do repeat () done;
      go (k + 1) (r :: acc)
    end
  in
  let results = go 0 [] in
  while List.length setup.times < setup_repeats do repeat () done;
  (results, !elapsed, List.rev setup.times)

let leading k passes = List.concat (List.filteri (fun i _ -> i < k) passes)

let run_item ~kind ~met f =
  let t0 = now () in
  let r = try Some (f ()) with _ -> None in
  let ms = (now () -. t0) *. 1e3 in
  match r with
  | Some v -> ({ kind; ms; failed = false; met = met v }, r)
  | None -> ({ kind; ms; failed = true; met = false }, None)

type gc_acc = { mutable minor_words : float; mutable majors : int }

let gc_acc () = { minor_words = 0.; majors = 0 }

let gc_count acc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  acc.minor_words <- acc.minor_words +. (s1.Gc.minor_words -. s0.Gc.minor_words);
  acc.majors <- acc.majors + (s1.Gc.major_collections - s0.Gc.major_collections);
  r

let gc_layer acc ~items =
  let n = float_of_int (Int.max 1 items) in
  let mb = acc.minor_words *. float_of_int (Sys.word_size / 8) /. 1048576. in
  [
    ("gc.minor_mb_per_item", mb /. n);
    ("gc.major_collections_per_item", float_of_int acc.majors /. n);
  ]

let spice_layer (snap : Ape_obs.snapshot) ~items =
  let c name = Option.value ~default:0 (List.assoc_opt name snap.Ape_obs.counters) in
  let per k = float_of_int k /. float_of_int (Int.max 1 items) in
  [
    ("spice.dc.solves", per (c "dc.solves"));
    ("spice.dc.newton_iters", per (c "dc.newton_iters"));
    ("spice.transient.steps", per (c "transient.steps"));
    ("spice.transient.newton_iters", per (c "transient.newton_iters"));
    ("spice.ac.solves", per (c "ac.solve_at" + c "ac.solve_prepared"));
    ("spice.dc.no_convergence", per (c "dc.no_convergence"));
    ("util.matrix.lu_factors", per (c "matrix.lu_factor" + c "matrix.lu_factor_in_place"));
    ("util.matrix.csplit_factors", per (c "matrix.csplit_factor"));
  ]

let p50_ms = function [] -> 0. | xs -> Stats.median xs *. 1e3

let self_p50_ms spans name =
  p50_ms
    (List.filter_map
       (fun ((s : Trace.span), self) -> if s.Trace.name = name then Some self else None)
       (Trace.self_times spans))

let overhead_pct ~traced ~untraced = 100. *. (Stats.ratio traced untraced -. 1.)

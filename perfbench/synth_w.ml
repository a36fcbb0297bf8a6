(* synth-tables: the ten Table 1 rows, each synthesised in Wide mode
   (Table 1) and in Ape_centered 0.2 mode (Table 4), as [ape synth]
   runs them: default schedule, one chain, one job. *)

module S = Ape_synth
module P = S.Opamp_problem
module Rng = Ape_util.Rng

let kind (it : Gen.synth_item) =
  match it.Gen.mode with P.Wide -> "wide" | P.Ape_centered _ -> "ape"

let is_ape (it : Gen.synth_item) = kind it = "ape"

let driver rows (it : Gen.synth_item) =
  S.Driver.run ~rng:(Rng.create it.Gen.anneal_seed) Work.proc ~mode:it.Gen.mode
    rows.(it.Gen.row)

let setup () =
  let rows = Array.of_list (Gen.table1_rows Work.proc) in
  ignore (driver rows Gen.synth_warmup);
  rows

let run_pass rows ~seed pass =
  List.map
    (fun it ->
      let item, r =
        Work.run_item ~kind:(kind it) ~met:(fun r -> r.S.Driver.meets_spec)
          (fun () -> driver rows it)
      in
      (it, item, r))
    (Gen.synth_pass ~seed pass)

(* Table 4: every APE-seeded run reaches spec. *)
let ape_rows_meet results =
  List.for_all
    (fun (it, (item : Work.item), _) -> (not (is_ape it)) || item.Work.met)
    results

(* met_ratio counts the first seven passes: 140 items. *)
let min_passes = 7

let items results = List.map (fun (_, item, _) -> item) results

let outcome ~setups ~timed_s ~checks ~layer passes =
  let results = List.concat passes in
  {
    Work.setups;
    items = items results;
    scored = items (Work.leading min_passes passes);
    timed_s;
    checks = ("synth.ape_rows_meet_spec", ape_rows_meet results) :: checks;
    layer;
  }

let untraced ~seed ~seconds =
  let st = Work.setup setup in
  let passes, timed_s, setups =
    Work.passes ~seconds ~min_passes st (run_pass (Work.state st) ~seed)
  in
  outcome ~setups ~timed_s ~checks:[] ~layer:[] passes

(* Driver.run stops once the best cost drops below this (time to spec). *)
let stop_below = 0.05

(* The calls Driver.run makes, each inside a span, with every cost
   evaluation timed and classed as an estimate-cache hit or miss. *)
let replay tr ~item ~hits ~misses rows (it : Gen.synth_item) =
  let row = rows.(it.Gen.row) in
  let rng = Rng.create it.Gen.anneal_seed in
  let span name f = Trace.with_span tr ~item name f in
  span "synth" @@ fun () ->
  let design =
    span "core.estimate" (fun () ->
        match it.Gen.mode with
        | P.Wide -> P.strawman_design Work.proc row
        | P.Ape_centered _ -> P.ape_design Work.proc row)
  in
  let problem =
    span "synth.build" (fun () -> P.build Work.proc ~mode:it.Gen.mode row design)
  in
  let cache = problem.P.cache in
  let cost x =
    let h0 = S.Est_cache.hits cache in
    let v, dt = Work.timed (fun () -> problem.P.cost x) in
    Trace.charge tr dt;
    let bucket = if S.Est_cache.hits cache > h0 then hits else misses in
    bucket := dt :: !bucket;
    v
  in
  let best, stats =
    span "synth.anneal" (fun () ->
        let x0 = problem.P.start rng in
        S.Anneal.optimize ~schedule:S.Anneal.default_schedule ~stop_below ~rng
          ~dim:problem.P.dim ~cost ~x0 ())
  in
  ignore (span "synth.final" (fun () -> problem.P.final best));
  stats

let traced ~seed ~seconds =
  let st = Work.setup setup in
  let rows = Work.state st in
  let tr = Trace.create () in
  let hits = ref [] and misses = ref [] in
  let untraced_s = ref 0. and traced_s = ref 0. in
  let replay_ok = ref true in
  let next_item = ref 0 in
  let gc = Work.gc_acc () in
  Ape_obs.reset ();
  (* Each pass runs untraced through Driver.run, then again as a traced
     replay that must reproduce Driver.run's search exactly. *)
  let pass k =
    let results = Work.gc_count gc (fun () -> run_pass rows ~seed k) in
    Ape_obs.enable ();
    List.iter
      (fun (it, (item : Work.item), r) ->
        untraced_s := !untraced_s +. (item.Work.ms /. 1e3);
        let stats, dt =
          Work.timed (fun () -> replay tr ~item:!next_item ~hits ~misses rows it)
        in
        incr next_item;
        traced_s := !traced_s +. dt;
        match r with
        | Some r ->
          let s = r.S.Driver.stats in
          if not (s.S.Anneal.evaluations = stats.S.Anneal.evaluations
                  && Float.equal s.S.Anneal.best_cost stats.S.Anneal.best_cost)
          then replay_ok := false
        | None -> ())
      results;
    Ape_obs.disable ();
    results
  in
  let passes, timed_s, setups = Work.passes ~seconds ~min_passes st pass in
  let results = List.concat passes in
  let snap = Ape_obs.snapshot () in
  let n = List.length results in
  let drivers = List.filter_map (fun (_, _, r) -> r) results in
  let sumi f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 drivers) in
  let evals = sumi (fun r -> r.S.Driver.stats.S.Anneal.evaluations) in
  let anneal_s =
    Stats.sum (List.map (fun r -> r.S.Driver.stats.S.Anneal.seconds) drivers)
  in
  let spans = Trace.spans tr in
  let us = function [] -> 0. | xs -> Stats.median xs *. 1e6 in
  let layer =
    [
      ("synth.anneal.evals", evals /. float_of_int (Int.max 1 n));
      ("synth.anneal.evals_per_s", Stats.ratio evals anneal_s);
      ("synth.cost.miss_us", us !misses);
      ("synth.cost.hit_us", us !hits);
      ( "synth.est_cache.hit_ratio",
        Stats.ratio (sumi (fun r -> r.S.Driver.cache_hits))
          (sumi (fun r -> r.S.Driver.cache_lookups)) );
      ("synth.anneal.self_ms", Work.self_p50_ms spans "synth.anneal");
      ("synth.build.self_ms", Work.self_p50_ms spans "synth.build");
      ("synth.final.self_ms", Work.self_p50_ms spans "synth.final");
      ("core.estimate.self_ms", Work.self_p50_ms spans "core.estimate");
      ("trace.coverage", Trace.coverage spans);
      ("trace.overhead_pct", Work.overhead_pct ~traced:!traced_s ~untraced:!untraced_s);
    ]
    @ Work.spice_layer snap ~items:n
    @ Work.gc_layer gc ~items:n
  in
  outcome ~setups ~timed_s ~checks:[ ("synth.replay_matches_driver", !replay_ok) ] ~layer
    passes

(* verify-sweep: the [ape verify] catalog, one item per hierarchy level
   exactly as [ape verify] runs it, plus fresh seeded opamps from the
   [ape calibrate] grid box, each sized by the estimator and simulated
   with slew. *)

module C = Ape_check
module E = Ape_estimator

let golden_dir = "test/golden"

let kind = function
  | Gen.Level l -> C.Tolerance.level_name l
  | Gen.Point _ -> "point"

(* A level matches when every gated attribute is within tolerance and
   the values match the golden table. *)
let level_ok goldens level rows =
  C.Diff.failures rows = []
  && C.Golden.compare_rows ~golden:(List.assoc level goldens) rows = []

let point_ok (est : E.Perf.t) sim =
  let tols = C.Tolerance.for_level C.Tolerance.Opamp in
  C.Diff.failures (C.Diff.rows_of_perf ~case:"point" ~tols est sim) = []

(* [span] wraps each call into a layer; the untraced run passes a
   plain application. *)
type span = { span : 'a. string -> (unit -> 'a) -> 'a }

let plain = { span = (fun _ f -> f ()) }

let run_item { span } goldens item =
  match item with
  | Gen.Level level ->
    Work.run_item ~kind:(kind item) ~met:Fun.id (fun () ->
        let rows = span "check.cases" (fun () -> C.Cases.rows_for Work.proc level) in
        span "check.golden" (fun () -> level_ok goldens level rows))
  | Gen.Point spec ->
    Work.run_item ~kind:(kind item) ~met:Fun.id (fun () ->
        let d = span "core.estimate" (fun () -> E.Opamp.design Work.proc spec) in
        let sim =
          span "core.verify.sim" (fun () -> E.Verify.sim_opamp ~slew:true Work.proc d)
        in
        span "check.diff" (fun () -> point_ok d.E.Opamp.perf sim))

let load_goldens () =
  List.map
    (fun level ->
      match C.Golden.load ~dir:golden_dir level with
      | Some g -> (level, g)
      | None ->
        failwith (Printf.sprintf "no golden table for level %s" (C.Tolerance.level_name level)))
    C.Tolerance.all_levels

let setup () =
  let goldens = load_goldens () in
  ignore (run_item plain goldens Gen.verify_warmup);
  goldens

let run_pass sp goldens ~seed pass =
  List.map (fun it -> (it, fst (run_item sp goldens it))) (Gen.verify_pass ~seed pass)

let catalog_matches results =
  List.for_all
    (fun (it, (item : Work.item)) ->
      match it with Gen.Level _ -> item.Work.met | Gen.Point _ -> true)
    results

(* met_ratio counts the first eight passes: 288 items. *)
let min_passes = 8

let outcome ~setups ~timed_s ~layer passes =
  let results = List.concat passes in
  {
    Work.setups;
    items = List.map snd results;
    scored = List.map snd (Work.leading min_passes passes);
    timed_s;
    checks = [ ("verify.catalog_matches_golden", catalog_matches results) ];
    layer;
  }

let untraced ~seed ~seconds =
  let st = Work.setup setup in
  let passes, timed_s, setups =
    Work.passes ~seconds ~min_passes st (run_pass plain (Work.state st) ~seed)
  in
  outcome ~setups ~timed_s ~layer:[] passes

let traced ~seed ~seconds =
  let st = Work.setup setup in
  let goldens = Work.state st in
  let tr = Trace.create () in
  let next_item = ref 0 in
  let sp =
    { span = (fun name f -> Trace.with_span tr ~item:!next_item name f) }
  in
  let untraced_s = ref 0. and traced_s = ref 0. in
  let gc = Work.gc_acc () in
  Ape_obs.reset ();
  (* Each pass runs untraced, then again with spans and counters on. *)
  let pass k =
    let results, dt =
      Work.timed (fun () -> Work.gc_count gc (fun () -> run_pass plain goldens ~seed k))
    in
    untraced_s := !untraced_s +. dt;
    Ape_obs.enable ();
    let (), dt =
      Work.timed (fun () ->
          List.iter
            (fun it ->
              ignore (sp.span "verify.item" (fun () -> run_item sp goldens it));
              incr next_item)
            (Gen.verify_pass ~seed k))
    in
    Ape_obs.disable ();
    traced_s := !traced_s +. dt;
    results
  in
  let passes, timed_s, setups = Work.passes ~seconds ~min_passes st pass in
  let results = List.concat passes in
  let snap = Ape_obs.snapshot () in
  let n = List.length results in
  let spans = Trace.spans tr in
  let level_ms l =
    Work.p50_ms
      (List.filter_map
         (fun (it, (item : Work.item)) ->
           match it with
           | Gen.Level l' when l' = l -> Some (item.Work.ms /. 1e3)
           | _ -> None)
         results)
  in
  let points = List.filter (fun (it, _) -> kind it = "point") results in
  let skipped = List.filter (fun (_, (item : Work.item)) -> item.Work.failed) points in
  let layer =
    [
      ("check.level.device_ms", level_ms C.Tolerance.Device);
      ("check.level.basic_ms", level_ms C.Tolerance.Basic);
      ("check.level.opamp_ms", level_ms C.Tolerance.Opamp);
      ("check.level.module_ms", level_ms C.Tolerance.Module_level);
      ( "core.verify.sim_ms",
        Work.p50_ms
          (List.filter_map
             (fun (s : Trace.span) ->
               if s.Trace.name = "core.verify.sim" then Some (Trace.duration s) else None)
             spans) );
      ("core.estimate.self_ms", Work.self_p50_ms spans "core.estimate");
      ( "calib.grid.skipped_ratio",
        Stats.ratio (float_of_int (List.length skipped)) (float_of_int (List.length points)) );
      ("trace.coverage", Trace.coverage spans);
      ("trace.overhead_pct", Work.overhead_pct ~traced:!traced_s ~untraced:!untraced_s);
    ]
    @ Work.spice_layer snap ~items:n
    @ Work.gc_layer gc ~items:n
  in
  outcome ~setups ~timed_s ~layer passes

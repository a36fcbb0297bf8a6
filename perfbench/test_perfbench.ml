(* Tests of the benchmark's own helpers: order statistics, span self
   time, seeded generators, and the metric catalog against
   BENCHMARK.json. *)

open Perfbench

let close = Alcotest.(check (float 1e-12))

let test_quantiles () =
  close "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  close "median odd" 3. (Stats.median [ 5.; 3.; 1. ]);
  close "median single" 7. (Stats.median [ 7. ]);
  close "p90" 9.1 (Stats.p90 (List.init 10 (fun i -> float_of_int (i + 1))));
  close "p0 is min" 1. (Stats.quantile 0. [ 3.; 1.; 2. ]);
  close "p100 is max" 3. (Stats.quantile 1. [ 3.; 1.; 2. ]);
  close "iqr" 3.5 (Stats.iqr (List.init 8 (fun i -> float_of_int (i + 1))));
  close "ratio by zero" 0. (Stats.ratio 1. 0.);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: no samples")
    (fun () -> ignore (Stats.median []))

let span id parent name start stop charged =
  { Trace.id; parent; item = 0; name; start; stop; charged }

(* root [0,10] charged 1 s, with children a [1,4] and b [5,7]; a has a
   child g [2,3]. *)
let tree () =
  [
    span 0 None "root" 0. 10. 1.;
    span 1 (Some 0) "a" 1. 4. 0.;
    span 2 (Some 1) "g" 2. 3. 0.;
    span 3 (Some 0) "b" 5. 7. 0.;
  ]

let test_self_time () =
  let self name =
    snd (List.find (fun ((s : Trace.span), _) -> s.Trace.name = name) (Trace.self_times (tree ())))
  in
  close "root: 10 - (3 + 2) - charged 1" 4. (self "root");
  close "a: 3 - g" 2. (self "a");
  close "b: leaf" 2. (self "b");
  close "g: leaf" 1. (self "g");
  close "coverage: (5 + 1) / 10" 0.6 (Trace.coverage (tree ()))

let test_recorder () =
  let tr = Trace.create () in
  Trace.with_span tr ~item:3 "outer" (fun () ->
      Trace.with_span tr ~item:3 "inner" (fun () -> Trace.charge tr 0.));
  match Trace.spans tr with
  | [ o; i ] ->
    Alcotest.(check string) "order" "outer" o.Trace.name;
    Alcotest.(check (option int)) "parent" (Some o.Trace.id) i.Trace.parent;
    Alcotest.(check bool) "nested" true
      (o.Trace.start <= i.Trace.start && i.Trace.stop <= o.Trace.stop)
  | _ -> Alcotest.fail "expected two spans"

let test_synth_gen () =
  Alcotest.(check bool) "same seed" true (Gen.synth_pass ~seed:7 3 = Gen.synth_pass ~seed:7 3);
  Alcotest.(check bool) "other seed" false (Gen.synth_pass ~seed:7 3 = Gen.synth_pass ~seed:8 3);
  Alcotest.(check bool) "other pass" false (Gen.synth_pass ~seed:7 3 = Gen.synth_pass ~seed:7 4);
  Alcotest.(check int) "ten rows in two modes" 20 (List.length (Gen.synth_pass ~seed:7 0))

let test_verify_gen () =
  Alcotest.(check bool) "same seed" true (Gen.verify_pass ~seed:5 2 = Gen.verify_pass ~seed:5 2);
  Alcotest.(check bool) "other seed" false (Gen.verify_pass ~seed:5 2 = Gen.verify_pass ~seed:6 2);
  Alcotest.(check int) "catalog + points" (4 + Gen.points_per_pass)
    (List.length (Gen.verify_pass ~seed:5 0))

let test_serve_gen () =
  let b seed i = Gen.serve_batch ~seed ~deck_dir:"d" i in
  Alcotest.(check string) "same seed" (Gen.batch_text (b 3 4)) (Gen.batch_text (b 3 4));
  Alcotest.(check bool) "same decks" true ((b 3 4).Gen.decks = (b 3 4).Gen.decks);
  Alcotest.(check bool) "other seed" false (Gen.batch_text (b 3 4) = Gen.batch_text (b 4 4));
  (* Every generated form parses back to the same jobs. *)
  let batch = b 3 4 in
  let parsed = Ape_serve.Job.parse_batch (Gen.batch_text batch) in
  Alcotest.(check (list string)) "round trip"
    (List.map Ape_serve.Job.print batch.Gen.jobs)
    (List.map (function Ok j -> Ape_serve.Job.print j | Error _ -> "parse error") parsed)

(* No job repeats across batches, so warm caches see only fresh work.
   The verify job is the exception: it runs the fixed catalog, which
   has no cache on its path. *)
let test_serve_no_repeats () =
  let seen = Hashtbl.create 1024 in
  let decks = Hashtbl.create 128 in
  for i = 0 to 59 do
    let batch = Gen.serve_batch ~seed:11 ~deck_dir:"d" i in
    List.iter
      (fun (j : Ape_serve.Job.t) ->
        Alcotest.(check bool) ("unique id " ^ j.Ape_serve.Job.id) false
          (Hashtbl.mem seen j.Ape_serve.Job.id);
        Hashtbl.replace seen j.Ape_serve.Job.id ();
        match j.Ape_serve.Job.payload with
        | Ape_serve.Job.Verify _ -> ()
        | _ ->
          let form = Ape_serve.Job.print { j with Ape_serve.Job.id = "x" } in
          Alcotest.(check bool) ("fresh job " ^ j.Ape_serve.Job.id) false (Hashtbl.mem seen form);
          Hashtbl.replace seen form ())
      batch.Gen.jobs;
    List.iter
      (fun (_, text) ->
        Alcotest.(check bool) "fresh deck" false (Hashtbl.mem decks text);
        Hashtbl.replace decks text ())
      batch.Gen.decks
  done

(* [(name, fields)] for every entry of a top-level array of
   BENCHMARK.json, in order, with the string values of [fields].  The
   file is flat enough that a scan for quoted keys suffices; no JSON
   library is needed. *)
let listed key fields =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  let rec find i sub =
    let n = String.length sub in
    if i + n > String.length text then None
    else if String.sub text i n = sub then Some i
    else find (i + 1) sub
  in
  let start = Option.get (find 0 (Printf.sprintf "%S" key)) in
  let stop = Option.get (find start "]") in
  (* The string value of [field] in the entry starting at [i]. *)
  let value i field =
    match find i (Printf.sprintf "%S:" field) with
    | Some j when j < stop ->
      let q1 = Option.get (find (j + String.length field + 3) "\"") in
      let q2 = Option.get (find (q1 + 1) "\"") in
      Some (String.sub text (q1 + 1) (q2 - q1 - 1), q2)
    | _ -> None
  in
  let rec entries i acc =
    match value i "name" with
    | None -> List.rev acc
    | Some (name, j) ->
      let vals = List.map (fun f -> Option.map fst (value j f)) fields in
      entries j ((name, vals) :: acc)
  in
  entries start []

let test_catalog () =
  let show = Alcotest.(list (pair string (list (option string)))) in
  Alcotest.check show "end_to_end"
    (List.map (fun (n, u, b) -> (n, [ Some u; Some b ])) Metrics.end_to_end)
    (listed "end_to_end" [ "unit"; "better" ]);
  Alcotest.check show "per_layer"
    (List.map
       (fun m -> (m.Metrics.name, [ Some m.Metrics.unit_; Some m.Metrics.better ]))
       Metrics.per_layer)
    (listed "per_layer" [ "unit"; "better" ]);
  Alcotest.(check (list string)) "workloads" Metrics.workloads
    (List.map fst (listed "workloads" []))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [ Alcotest.test_case "quantiles" `Quick test_quantiles ] );
      ( "trace",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "gen",
        [
          Alcotest.test_case "synth seeded" `Quick test_synth_gen;
          Alcotest.test_case "verify seeded" `Quick test_verify_gen;
          Alcotest.test_case "serve seeded" `Quick test_serve_gen;
          Alcotest.test_case "serve no repeats" `Quick test_serve_no_repeats;
        ] );
      ("catalog", [ Alcotest.test_case "BENCHMARK.json" `Quick test_catalog ]);
    ]

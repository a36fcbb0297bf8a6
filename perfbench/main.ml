(* perfbench: one workload per run, timed end to end, or traced for the
   per-layer breakdown.

     main.exe --workload synth-tables|verify-sweep|serve-mixed
              --seed N --seconds S --trace 0|1

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}; the lines before it
   give each metric with its unit and sample count, and one JSON report
   with the run facts and the output checks. *)

open Perfbench

let refused_env = [ "APE_ENGINE"; "APE_PANEL_WIDTH"; "APE_BENCH_FAST" ]

let git_revision () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" ref_) with
    | Some rev -> rev
    | None -> (
      match read ".git/packed-refs" with
      | Some packed ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ rev; r ] when r = ref_ -> Some rev
            | _ -> None)
          (String.split_on_char '\n' packed)
        |> Option.value ~default:"unknown"
      | None -> "unknown"))
  | Some rev -> rev
  | None -> "unknown"

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
let json_string s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Metrics.workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  (match List.filter (fun v -> Sys.getenv_opt v <> None) refused_env with
  | [] -> ()
  | set ->
    fail
      (String.concat ", " set
      ^ " set: the benchmark measures the default configuration only"));
  if not (List.mem !workload Metrics.workloads) then fail ("unknown workload; " ^ usage);
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let outcome =
    match (!workload, traced) with
    | "synth-tables", false -> Synth_w.untraced ~seed ~seconds
    | "synth-tables", true -> Synth_w.traced ~seed ~seconds
    | "verify-sweep", false -> Verify_w.untraced ~seed ~seconds
    | "verify-sweep", true -> Verify_w.traced ~seed ~seconds
    | "serve-mixed", false -> Serve_w.untraced ~seed ~seconds
    | _ -> Serve_w.traced ~seed ~seconds
  in
  let items = outcome.Work.items in
  let n = List.length items in
  let count p = List.length (List.filter p items) in
  let failed = count (fun i -> i.Work.failed) in
  let scored = outcome.Work.scored in
  let met = List.length (List.filter (fun i -> i.Work.met) scored) in
  let ms = List.map (fun i -> i.Work.ms) items in
  let quantile q = if n = 0 then nan else Stats.quantile q ms in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let nf = float_of_int n in
  (* name, value, unit, sample count, what it should move *)
  let metrics =
    if traced then
      List.map
        (fun (m : Metrics.layer_metric) ->
          ( m.name,
            Option.value ~default:0. (List.assoc_opt m.name outcome.Work.layer),
            m.unit_,
            n,
            if m.target = "" then "" else Printf.sprintf "  -> %s on %s" m.target m.on ))
        Metrics.per_layer
    else
      List.map
        (fun (name, unit_, _) ->
          let value, k =
            match name with
            | "setup_s" -> (Stats.median outcome.Work.setups, List.length outcome.Work.setups)
            | "items_per_s" -> (Stats.ratio nf outcome.Work.timed_s, n)
            | "latency_p50_ms" -> (quantile 0.5, n)
            | "latency_p90_ms" -> (quantile 0.9, n)
            | "met_ratio" ->
              (Stats.ratio (float_of_int met) (float_of_int (List.length scored)),
               List.length scored)
            | "peak_heap_mb" -> (peak_heap_mb, 1)
            | _ -> invalid_arg name
          in
          (name, value, unit_, k, ""))
        Metrics.end_to_end
  in
  let checks_ok = List.for_all snd outcome.Work.checks in
  let finite = List.for_all (fun (_, v, _, _, _) -> Float.is_finite v) metrics in
  let correct = checks_ok && finite && n > 0 in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" !workload seed seconds !trace;
  List.iter
    (fun (name, v, unit_, k, note) ->
      Printf.printf "  %-32s %14.6g %-6s (n=%d)%s\n" name v unit_ k note)
    metrics;
  Printf.printf "  %-32s %14.6g %-6s (n=%d)\n" "error_ratio"
    (Stats.ratio (float_of_int failed) nf) "ratio" n;
  List.iter
    (fun (name, ok) -> Printf.printf "  check %-40s %s\n" name (if ok then "ok" else "FAILED"))
    outcome.Work.checks;
  let kinds = List.sort_uniq compare (List.map (fun i -> i.Work.kind) items) in
  print_endline
    (json_obj
       [
         ("schema", json_string Metrics.schema);
         ( "facts",
           json_obj
             [
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("ocaml", json_string Sys.ocaml_version);
               ("revision", json_string (git_revision ()));
             ] );
         ("workload", json_string !workload);
         ("seed", string_of_int seed);
         ("seconds", json_float seconds);
         ("trace", string_of_int !trace);
         ( "setups_s",
           "[" ^ String.concat ", " (List.map json_float outcome.Work.setups) ^ "]" );
         ( "items_by_kind",
           json_obj
             (List.map
                (fun k -> (k, string_of_int (count (fun i -> i.Work.kind = k))))
                kinds) );
         ("error_ratio", json_float (Stats.ratio (float_of_int failed) nf));
         ( "samples",
           json_obj (List.map (fun (name, _, _, k, _) -> (name, string_of_int k)) metrics) );
         ( "checks",
           json_obj
             (List.map (fun (name, ok) -> (name, string_of_bool ok)) outcome.Work.checks) );
       ]);
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int n);
         ("failed", string_of_int failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (name, v, unit_, _, _) ->
                  (name, json_obj [ ("value", json_float v); ("unit", json_string unit_) ]))
                metrics) );
       ]);
  exit (if correct then 0 else 1)

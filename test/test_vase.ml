(* Tests for Ape_vase: the spec language's reader (the shared positioned
   [Ape_util.Sexpr]), the system spec language (Figure 1's front end)
   and the constraint transformation. *)

module Sexpr = Ape_util.Sexpr
module System = Ape_vase.System
module Cm = Ape_vase.Constraint_map
module E = Ape_estimator
module F = Ape_util.Float_ext

let proc = Ape_process.Process.c12

(* ---------- sexp ---------- *)

(* Position-free rendering, for structural comparisons. *)
let rec to_string = function
  | Sexpr.Atom (a, _) -> a
  | Sexpr.List (items, _) ->
    "(" ^ String.concat " " (List.map to_string items) ^ ")"

let expect_spec_error ~at s =
  match System.parse s with
  | exception System.Spec_error msg ->
    if not (String.starts_with ~prefix:(at ^ ": ") msg) then
      Alcotest.failf "error %S should start at %s" msg at
  | _ -> Alcotest.failf "expected Spec_error for %s" s

let test_sexp_parse () =
  Alcotest.(check (list string))
    "forms" [ "(a (b 1 2) c)"; "(d)" ]
    (List.map to_string (Sexpr.parse "(a (b 1 2) c) ; comment\n(d)"))

let test_sexp_helpers () =
  match Sexpr.parse "(gain 40)\n  (fc 1k)" with
  | [ gain; (Sexpr.List ([ _; v ], _) as fc) ] ->
    Alcotest.(check string) "list span" "1:1-1:10"
      (Sexpr.pp_span (Sexpr.span_of gain));
    Alcotest.(check string) "atom" "1k" (Sexpr.atom v);
    Alcotest.(check (option (float 1e-3))) "si suffix" (Some 1000.)
      (Ape_symbolic.Parser.parse_number (Sexpr.atom v));
    (match Sexpr.atom fc with
    | exception Sexpr.Error { pos; _ } ->
      Alcotest.(check (pair int int)) "atom of a list fails at the list"
        (2, 3) (pos.Sexpr.line, pos.Sexpr.col)
    | _ -> Alcotest.fail "atom of a list must fail")
  | _ -> Alcotest.fail "expected two forms"

let test_sexp_unbalanced () =
  (match Sexpr.parse "(a (b)" with
  | exception Sexpr.Error { pos; _ } ->
    Alcotest.(check (pair int int)) "unclosed list position" (1, 1)
      (pos.Sexpr.line, pos.Sexpr.col)
  | _ -> Alcotest.fail "unbalanced '(' must be an error");
  expect_spec_error ~at:"1:1" "(system x (chain)"

let test_sexp_roundtrip () =
  let s = "(system x (chain (amplifier (gain 10))))" in
  match Sexpr.parse s with
  | [ one ] -> Alcotest.(check string) "roundtrip" s (to_string one)
  | _ -> Alcotest.fail "expected one form"

(* ---------- system spec ---------- *)

let audio_spec =
  "(system audio_front_end\n\
  \  (chain\n\
  \    (lowpass (order 4) (fc 1k))\n\
  \    (amplifier (gain 40) (bandwidth 20k))\n\
  \    (amplifier (gain 2.5) (bandwidth 20k)))\n\
  \  (require (total_gain 100) (bandwidth 900)))"

let test_parse_system () =
  let sys = System.parse audio_spec in
  Alcotest.(check string) "name" "audio_front_end" sys.System.name;
  Alcotest.(check int) "three modules" 3 (List.length sys.System.chain);
  Alcotest.(check (option (float 1e-9))) "gain requirement" (Some 100.)
    sys.System.requirements.System.total_gain;
  match (List.hd sys.System.chain).System.spec with
  | E.Module_lib.Lowpass_m lp ->
    Alcotest.(check int) "order" 4 lp.E.Filter.order;
    Alcotest.(check (float 1e-3)) "fc" 1000. lp.E.Filter.f_cutoff
  | _ -> Alcotest.fail "first module should be the lowpass"

let test_parse_system_errors () =
  let expect_bad s =
    match System.parse s with
    | exception System.Spec_error _ -> ()
    | _ -> Alcotest.fail ("expected Spec_error for " ^ s)
  in
  expect_bad "(not_a_system x)";
  expect_bad "(system x (chain (warp_drive (gain 1))))";
  expect_bad "(system x (chain (amplifier (gain 10))))" (* missing bandwidth *)

let test_parse_system_error_positions () =
  (* Every spec error names the line:col of the offending form. *)
  expect_spec_error ~at:"3:5"
    "(system x\n  (chain\n    (amplifier (gain 10))))";
  expect_spec_error ~at:"2:11" "(system x\n  (chain (warp_drive (gain 1))))";
  expect_spec_error ~at:"1:41"
    "(system x (chain (lowpass (order 4) (fc fast))))";
  expect_spec_error ~at:"1:1" "(not_a_system x)"

let test_estimate_system () =
  let sys = System.parse audio_spec in
  let est = System.estimate proc sys in
  Alcotest.(check int) "three designs" 3 (List.length est.System.designs);
  (* Gain: lpf pass-band (~2.57) x 40 x 2.5 = ~257 >= 100. *)
  Alcotest.(check bool) "gain total plausible" true
    (est.System.gain_total > 100. && est.System.gain_total < 500.);
  Alcotest.(check bool) "bandwidth from slowest stage" true
    (est.System.bandwidth_min <= 1.05e3);
  Alcotest.(check bool) "area accumulates" true (est.System.area_total > 0.);
  List.iter
    (fun (name, ok) ->
      Alcotest.(check bool) ("requirement " ^ name) true ok)
    est.System.meets

(* ---------- constraint transformation ---------- *)

let test_allocate_bandwidth () =
  (* Two identical first-order stages: each needs BW_total/sqrt(sqrt(2)-1). *)
  let per_stage = Cm.allocate_bandwidth ~total:20e3 ~stages:2 in
  Alcotest.(check bool) "per-stage wider than total" true (per_stage > 20e3);
  Alcotest.(check (float 1.)) "formula"
    (20e3 /. Float.sqrt ((2. ** 0.5) -. 1.))
    per_stage

let test_allocate_gain_even () =
  let limits =
    [
      { Cm.max_gain = 100.; area_per_gain = 1. };
      { Cm.max_gain = 100.; area_per_gain = 1. };
    ]
  in
  match Cm.allocate_gain ~total:100. ~limits with
  | Some [ g1; g2 ] ->
    Alcotest.(check (float 1e-6)) "even split" g1 g2;
    Alcotest.(check bool) "product covers total" true (g1 *. g2 >= 100. *. 0.999)
  | _ -> Alcotest.fail "expected two allocations"

let test_allocate_gain_clamped () =
  let limits =
    [
      { Cm.max_gain = 5.; area_per_gain = 1. };
      { Cm.max_gain = 100.; area_per_gain = 1. };
    ]
  in
  match Cm.allocate_gain ~total:100. ~limits with
  | Some [ g1; g2 ] ->
    Alcotest.(check bool) "stage1 clamped" true (g1 <= 5. +. 1e-9);
    Alcotest.(check bool) "stage2 compensates" true (g2 >= 19.9);
    Alcotest.(check bool) "product covers" true (g1 *. g2 >= 99.)
  | _ -> Alcotest.fail "expected allocation"

let test_allocate_gain_infeasible () =
  let limits = [ { Cm.max_gain = 3.; area_per_gain = 1. } ] in
  Alcotest.(check bool) "infeasible detected" true
    (Cm.allocate_gain ~total:100. ~limits = None)

let prop_allocation_respects_limits =
  QCheck.Test.make ~name:"allocations never exceed stage limits" ~count:50
    QCheck.(pair (float_range 2. 50.) (float_range 2. 50.))
    (fun (m1, m2) ->
      let limits =
        [ { Cm.max_gain = m1; area_per_gain = 1. };
          { Cm.max_gain = m2; area_per_gain = 1. } ]
      in
      let total = 0.8 *. m1 *. m2 in
      match Cm.allocate_gain ~total ~limits with
      | None -> false
      | Some gains ->
        List.for_all2 (fun g l -> g <= l.Cm.max_gain +. 1e-6) gains limits
        && List.fold_left ( *. ) 1. gains >= total *. 0.99)

let test_probe_stage_limit () =
  let limit = Cm.probe_stage_limit ~bandwidth:20e3 proc in
  (* Our single/two-stage opamps deliver gains in the hundreds to tens of
     thousands at audio bandwidths. *)
  Alcotest.(check bool) "probed limit plausible" true
    (limit.Cm.max_gain > 50. && limit.Cm.max_gain < 1e7);
  Alcotest.(check bool) "area density positive" true (limit.Cm.area_per_gain > 0.)

let test_plan_gain_chain () =
  match System.plan_gain_chain proc ~total_gain:1000. ~bandwidth:20e3 ~stages:2 with
  | Some gains ->
    Alcotest.(check int) "two stages" 2 (List.length gains);
    Alcotest.(check bool) "covers total" true
      (List.fold_left ( *. ) 1. gains >= 999.)
  | None -> Alcotest.fail "two-stage 60 dB plan should be feasible"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ape_vase"
    [
      ( "sexp",
        [
          Alcotest.test_case "parse" `Quick test_sexp_parse;
          Alcotest.test_case "helpers" `Quick test_sexp_helpers;
          Alcotest.test_case "unbalanced" `Quick test_sexp_unbalanced;
          Alcotest.test_case "roundtrip" `Quick test_sexp_roundtrip;
        ] );
      ( "system",
        [
          Alcotest.test_case "parse" `Quick test_parse_system;
          Alcotest.test_case "errors" `Quick test_parse_system_errors;
          Alcotest.test_case "error positions" `Quick
            test_parse_system_error_positions;
          Alcotest.test_case "estimate" `Quick test_estimate_system;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "bandwidth split" `Quick test_allocate_bandwidth;
          Alcotest.test_case "even gain" `Quick test_allocate_gain_even;
          Alcotest.test_case "clamped gain" `Quick test_allocate_gain_clamped;
          Alcotest.test_case "infeasible" `Quick test_allocate_gain_infeasible;
          Alcotest.test_case "probe limit" `Quick test_probe_stage_limit;
          Alcotest.test_case "plan chain" `Quick test_plan_gain_chain;
        ] );
      qsuite "constraint-properties" [ prop_allocation_respects_limits ];
    ]

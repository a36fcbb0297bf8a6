(* The metric catalog: every name the benchmark prints, with its unit.
   BENCHMARK.json lists the same names (a test holds them equal). *)

let schema = "ape-perfbench/1"

let workloads = [ "synth-tables"; "verify-sweep"; "serve-mixed" ]

(* End-to-end metrics: name, unit, which way is better. *)
let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("items_per_s", "1/s", "higher");
    ("latency_p50_ms", "ms", "lower");
    ("latency_p90_ms", "ms", "lower");
    ("met_ratio", "ratio", "higher");
    ("peak_heap_mb", "MB", "lower");
  ]

(* Per-layer metrics of the traced run, each with the end-to-end metric
   and workload it should move (none for the trace's own coverage and
   overhead).  A traced run prints every one; a layer its workload does
   not exercise reads 0. *)
type layer_metric = {
  name : string;
  unit_ : string;
  better : string;
  target : string;  (** the end-to-end metric it should move *)
  on : string;  (** on this workload *)
}

let per_layer =
  List.map
    (fun (name, unit_, better, target, on) -> { name; unit_; better; target; on })
    [
      ("synth.anneal.evals", "count", "lower", "latency_p50_ms", "synth-tables");
      ("synth.anneal.evals_per_s", "1/s", "higher", "items_per_s", "synth-tables");
      ("synth.cost.miss_us", "us", "lower", "latency_p50_ms", "synth-tables");
      ("synth.cost.hit_us", "us", "lower", "latency_p50_ms", "serve-mixed");
      ("synth.est_cache.hit_ratio", "ratio", "higher", "items_per_s", "serve-mixed");
      ("synth.anneal.self_ms", "ms", "lower", "latency_p50_ms", "synth-tables");
      ("synth.build.self_ms", "ms", "lower", "latency_p50_ms", "synth-tables");
      ("synth.final.self_ms", "ms", "lower", "latency_p50_ms", "synth-tables");
      ("core.estimate.self_ms", "ms", "lower", "latency_p50_ms", "serve-mixed");
      ("core.verify.sim_ms", "ms", "lower", "latency_p90_ms", "verify-sweep");
      ("spice.dc.solves", "count", "lower", "latency_p50_ms", "verify-sweep");
      ("spice.dc.newton_iters", "count", "lower", "latency_p50_ms", "verify-sweep");
      ("spice.transient.steps", "count", "lower", "latency_p90_ms", "verify-sweep");
      ("spice.transient.newton_iters", "count", "lower", "latency_p90_ms", "verify-sweep");
      ("spice.ac.solves", "count", "lower", "latency_p50_ms", "verify-sweep");
      ("spice.dc.no_convergence", "count", "lower", "met_ratio", "verify-sweep");
      ("util.matrix.lu_factors", "count", "lower", "latency_p50_ms", "synth-tables");
      ("util.matrix.csplit_factors", "count", "lower", "latency_p50_ms", "verify-sweep");
      ("check.level.device_ms", "ms", "lower", "items_per_s", "verify-sweep");
      ("check.level.basic_ms", "ms", "lower", "items_per_s", "verify-sweep");
      ("check.level.opamp_ms", "ms", "lower", "items_per_s", "verify-sweep");
      ("check.level.module_ms", "ms", "lower", "items_per_s", "verify-sweep");
      ("calib.grid.skipped_ratio", "ratio", "lower", "met_ratio", "verify-sweep");
      ("serve.service_ms.estimate", "ms", "lower", "latency_p50_ms", "serve-mixed");
      ("serve.service_ms.synth", "ms", "lower", "latency_p50_ms", "serve-mixed");
      ("serve.service_ms.mc", "ms", "lower", "latency_p50_ms", "serve-mixed");
      ("serve.service_ms.sim", "ms", "lower", "latency_p50_ms", "serve-mixed");
      ("serve.service_ms.verify", "ms", "lower", "latency_p50_ms", "serve-mixed");
      ("serve.queue_wait_ms", "ms", "lower", "latency_p90_ms", "serve-mixed");
      ("serve.worker_busy_share", "ratio", "higher", "items_per_s", "serve-mixed");
      ("serve.parse_ms", "ms", "lower", "latency_p50_ms", "serve-mixed");
      ("serve.render_us", "us", "lower", "latency_p50_ms", "serve-mixed");
      ("gc.minor_mb_per_item", "MB", "lower", "latency_p50_ms", "synth-tables");
      ("gc.major_collections_per_item", "count", "lower", "latency_p90_ms", "verify-sweep");
      ("trace.coverage", "ratio", "higher", "", "");
      ("trace.overhead_pct", "%", "lower", "", "");
    ]

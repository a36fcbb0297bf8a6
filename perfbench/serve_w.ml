(* serve-mixed: a closed loop.  One client submits generated batches to
   one long-lived Runner and Pool and waits for every record before it
   sends the next batch. *)

module Sv = Ape_serve

(* The timed loop runs the scheduler over an inline pool (no worker
   domain; each job runs on the client's domain when it is submitted)
   with a window of one job, so jobs are served one at a time and each
   record is emitted as soon as its job ends, as with one worker.  On a
   2-vCPU host shared with other load, a second busy domain made the
   figures swing: three 35 s runs of one seed with two workers read 45,
   61 and 76 items/s, and six interleaved 20 s pairs read 42-60 items/s
   with one worker domain against 59-71 inline.  The determinism check
   still runs the scheduler's own pools of 1 and min(nproc, 2) worker
   domains. *)
let config = { Sv.Scheduler.default with Sv.Scheduler.queue = 1 }

(* The worker count of the determinism check: min(nproc, 2). *)
let check_workers () = Int.min (Domain.recommended_domain_count ()) 2

let deck_dir = ".perfbench-work"

type state = { runner : Sv.Runner.t; pool : Ape_util.Pool.t }

let failed = function
  | Sv.Record.Failed _ | Sv.Record.Parse_error _ | Sv.Record.Timeout
  | Sv.Record.Overloaded | Sv.Record.Cancelled ->
    true
  | Sv.Record.Done | Sv.Record.Unmet -> false

let write_decks (batch : Gen.batch) =
  List.iter
    (fun (path, text) -> Out_channel.with_open_bin path (fun oc -> output_string oc text))
    batch.Gen.decks

let remove_decks (batch : Gen.batch) =
  List.iter (fun (path, _) -> Sys.remove path) batch.Gen.decks

let cleanup_dir () =
  if Sys.file_exists deck_dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat deck_dir f)) (Sys.readdir deck_dir);
    Sys.rmdir deck_dir
  end

let prepare_dir () =
  cleanup_dir ();
  Sys.mkdir deck_dir 0o755

(* One job's view from the client. *)
type job_obs = {
  record : Sv.Record.t;
  latency : float;  (** batch submission to this record's emit, s *)
  render : float;  (** rendering its result line, s *)
}

type batch_obs = { jobs : job_obs list; parse : float; wall : float }

(* Submit one batch (parse included) and wait for all its records. *)
let run_batch ?pool config runner (batch : Gen.batch) =
  write_decks batch;
  let text = Gen.batch_text batch in
  let out = Buffer.create 4096 in
  let t0 = Work.now () in
  let parsed, parse = Work.timed (fun () -> Sv.Job.parse_batch text) in
  let jobs = ref [] in
  let emit record =
    let latency = Work.now () -. t0 in
    let line, render =
      Work.timed (fun () -> Sv.Record.render ~deterministic:false record)
    in
    Buffer.add_string out line;
    Buffer.add_char out '\n';
    jobs := { record; latency; render } :: !jobs
  in
  ignore (Sv.Scheduler.run_batch ?pool config runner ~batch:"perfbench" ~emit parsed);
  let wall = Work.now () -. t0 in
  remove_decks batch;
  { jobs = List.rev !jobs; parse; wall }

let item_of (j : job_obs) =
  let status = j.record.Sv.Record.status in
  {
    Work.kind = j.record.Sv.Record.kind;
    ms = j.latency *. 1e3;
    failed = failed status;
    met = status = Sv.Record.Done;
  }

let setup () =
  prepare_dir ();
  let runner = Sv.Runner.create Work.proc in
  let pool = Ape_util.Pool.create ~workers:0 in
  (* A fixed warm-up job, so set-up time does not depend on the seed. *)
  let warm = Gen.serve_batch ~seed:0 ~deck_dir (-1) in
  let first = { warm with Gen.jobs = [ List.hd warm.Gen.jobs ] } in
  ignore (run_batch ~pool config runner first);
  { runner; pool }

let dispose st = Ape_util.Pool.shutdown st.pool

(* One generated batch renders byte-identically under the deterministic
   rendering at jobs 1 and at min(nproc, 2) jobs, each on a fresh
   runner and a pool the scheduler owns. *)
let deterministic_render ~seed =
  let batch = Gen.serve_batch ~seed ~deck_dir (-2) in
  let render jobs =
    let config = { Sv.Scheduler.default with Sv.Scheduler.jobs } in
    let b = run_batch config (Sv.Runner.create Work.proc) batch in
    List.map (fun j -> Sv.Record.render ~deterministic:true j.record) b.jobs
  in
  render 1 = render (check_workers ())

(* met_ratio counts the first twenty batches: 600 items. *)
let min_passes = 20

let finish ~setups ~timed_s ~layer ~seed st passes =
  dispose st;
  let layer = layer () in
  let render_ok = deterministic_render ~seed in
  cleanup_dir ();
  let items batches = List.concat_map (fun b -> List.map item_of b.jobs) batches in
  {
    Work.setups;
    items = items (List.concat passes);
    scored = items (Work.leading min_passes passes);
    timed_s;
    checks = [ ("serve.deterministic_render_jobs_1_vs_n", render_ok) ];
    layer;
  }

let next_batch st ~seed b =
  run_batch ~pool:st.pool config st.runner (Gen.serve_batch ~seed ~deck_dir b)

let untraced ~seed ~seconds =
  let setup = Work.setup ~dispose setup in
  let st = Work.state setup in
  let passes, timed_s, setups =
    Work.passes ~seconds ~min_passes setup (fun b -> [ next_batch st ~seed b ])
  in
  finish ~setups ~timed_s ~layer:(fun () -> []) ~seed st passes

let kinds = [ "estimate"; "synth"; "mc"; "sim"; "verify" ]

(* Odd batches run with counters on and give the counter figures; even
   ones are the untraced baseline for the overhead.  Every figure comes
   from the records and counters of the serve run itself. *)
let traced ~seed ~seconds =
  let setup = Work.setup ~dispose setup in
  let st = Work.state setup in
  let tr = Trace.create () in
  let lookups0, hits0 = Sv.Runner.cache_stats st.runner in
  let traced_jobs = ref [] in
  let traced_wall = ref [] and untraced_wall = ref [] in
  Ape_obs.reset ();
  let batch b =
    let traced = b mod 2 = 1 in
    if traced then Ape_obs.enable ();
    let obs = next_batch st ~seed b in
    Ape_obs.disable ();
    if not traced then untraced_wall := obs.wall :: !untraced_wall
    else begin
      traced_wall := obs.wall :: !traced_wall;
      List.iter
        (fun j ->
          let item = List.length !traced_jobs in
          let root = Trace.add tr ~item "serve.job" ~start:0. ~stop:j.latency in
          root.Trace.charged <- Float.min j.latency j.record.Sv.Record.seconds;
          traced_jobs := j :: !traced_jobs)
        obs.jobs
    end;
    [ obs ]
  in
  let passes, timed_s, setups = Work.passes ~seconds ~min_passes setup batch in
  let batches = List.concat passes in
  let lookups1, hits1 = Sv.Runner.cache_stats st.runner in
  let layer () =
    let snap = Ape_obs.snapshot () in
    let jobs = !traced_jobs in
    let all_jobs = List.concat_map (fun b -> b.jobs) batches in
    let service j = j.record.Sv.Record.seconds in
    let service_of kind jobs =
      List.filter_map
        (fun j -> if j.record.Sv.Record.kind = kind then Some (service j) else None)
        jobs
    in
    let service_ms kind = ("serve.service_ms." ^ kind, Work.p50_ms (service_of kind all_jobs)) in
    (* One estimator sizing in a job: an estimate job is one, and
       each Monte Carlo die re-sizes once ([mc.sample_seconds]).  The
       counter keeps a sum and a count, so this is a mean. *)
    let estimate_ms =
      let est = service_of "estimate" jobs in
      let dies_s, dies =
        match List.assoc_opt "mc.sample_seconds" snap.Ape_obs.histograms with
        | Some h -> (h.Ape_obs.s_sum, h.Ape_obs.s_count)
        | None -> (0., 0)
      in
      1e3 *. Stats.ratio (Stats.sum est +. dies_s) (float_of_int (List.length est + dies))
    in
    let busy = Stats.sum (List.map service all_jobs) in
    let wall = Stats.sum (List.map (fun b -> b.wall) batches) in
    List.map service_ms kinds
    @ [
        ( "serve.queue_wait_ms",
          Work.p50_ms (List.map (fun j -> Float.max 0. (j.latency -. service j)) all_jobs) );
        ("serve.worker_busy_share", Stats.ratio busy wall);
        ("serve.parse_ms", Work.p50_ms (List.map (fun b -> b.parse) batches));
        ("serve.render_us", Work.p50_ms (List.map (fun j -> j.render) all_jobs) *. 1e3);
        ( "synth.est_cache.hit_ratio",
          Stats.ratio (float_of_int (hits1 - hits0)) (float_of_int (lookups1 - lookups0)) );
        ("core.estimate.self_ms", estimate_ms);
        ("trace.coverage", Trace.coverage (Trace.spans tr));
        (* Medians: the first, cold batch is an untraced one. *)
        ("trace.overhead_pct", Work.overhead_pct ~traced:(Stats.median !traced_wall)
            ~untraced:(Stats.median !untraced_wall));
      ]
    @ Work.spice_layer snap ~items:(List.length jobs)
  in
  finish ~setups ~timed_s ~layer ~seed st passes

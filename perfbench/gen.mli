(** Seeded input generators for the three workloads.

    Every input is a pure function of the workload seed and an index
    (pass or batch number): the program under test receives only the
    generated inputs, never the seed. *)

module S := Ape_synth
module E := Ape_estimator

val stream : seed:int -> salt:string -> int -> Ape_util.Rng.t
(** An independent random source for [(seed, salt, index)]. *)

(** {1 synth-tables} *)

val table1_rows : Ape_process.Process.t -> S.Opamp_problem.row list
(** The paper's ten Table 1 specs, each with an area budget of 1.3× its
    APE estimate (as [ape synth] derives it). *)

type synth_item = { row : int; mode : S.Opamp_problem.mode; anneal_seed : int }

val synth_pass : seed:int -> int -> synth_item list
(** Pass [k]: every row in [Wide] mode and in [Ape_centered 0.2] mode,
    row by row, each with a fresh annealing seed. *)

val synth_warmup : synth_item
(** The set-up's warm-up item; fixed, so set-up time does not depend on
    the seed. *)

(** {1 verify-sweep} *)

type verify_item =
  | Level of Ape_check.Tolerance.level  (** one [ape verify] catalog level *)
  | Point of E.Opamp.spec  (** one seeded opamp from the calibration box *)

val points_per_pass : int

val grid_point : Ape_util.Rng.t -> E.Opamp.spec
(** An opamp spec drawn from [Ape_calib.Grid.default]'s box the way the
    calibration grid draws it: log-uniform gain/UGF/I_bias/C_L, a
    buffer with a log-uniform Z_out half the time, simple or Wilson
    bias. *)

val verify_pass : seed:int -> int -> verify_item list
(** The four catalog levels, then {!points_per_pass} fresh seeded
    points. *)

val verify_warmup : verify_item
(** Fixed, like {!synth_warmup}. *)

(** {1 serve-mixed} *)

type batch = {
  jobs : Ape_serve.Job.t list;
  decks : (string * string) list;  (** netlist files the sim jobs read *)
}

val serve_batch : seed:int -> deck_dir:string -> int -> batch
(** Batch [b], 30 jobs in the per-kind counts of the repository's
    smoke batch ([examples/jobs/smoke30.jobs]): 12 estimate jobs over
    random specs, 8 quick synth jobs (four shared problem fingerprints,
    each twice, with fresh seeds), 7 estimate-level Monte Carlo jobs
    with 30 dies over random specs, 2 sims of freshly drawn RC ladders,
    and one verify of the device and basic levels without slew. *)

val batch_text : batch -> string
(** The batch as a job file, one canonical form per line. *)

(** JSON-lines result records — schema [ape-serve/1].

    Every job produces exactly one line on the result stream, and every
    batch is terminated by one summary line, so a consumer can [tail -f]
    the stream and always knows which batch a record belongs to.

    {b Determinism.}  [~deterministic:true] omits every field whose
    value depends on scheduling rather than on the job spec — wall-clock
    seconds and cache statistics — so that a fixed-seed batch renders
    bit-identically at any [--jobs].  The CI gate diffs exactly this
    rendering. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values render as [null] *)
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val float_opt : float option -> json

val json_to_string : json -> string
(** Compact one-line JSON.  Floats print as the shortest decimal that
    round-trips ({!Ape_util.Units.to_exact}), so equal values render
    byte-identically. *)

type status =
  | Done  (** the job ran and its own success criterion held *)
  | Unmet  (** ran to completion but the spec/yield/check failed *)
  | Failed of string  (** the engine raised (infeasible, no convergence) *)
  | Parse_error of string  (** the spec never became a job *)
  | Overloaded  (** shed by the backpressure policy *)
  | Timeout  (** queue deadline expired before a worker started it *)
  | Cancelled  (** dropped by fail-fast or daemon shutdown *)

val status_name : status -> string
(** ["ok" | "unmet" | "failed" | "parse-error" | "overloaded" |
    "timeout" | "cancelled"]. *)

type t = {
  id : string;
  kind : string;  (** job kind, or ["-"] for records without a job *)
  status : status;
  seconds : float;  (** wall-clock of the run; 0 for unrun jobs *)
  payload : (string * json) list;  (** kind-specific results *)
}

val render : deterministic:bool -> t -> string
(** One line, no trailing newline:
    [{"schema":"ape-serve/1","id":...,"kind":...,"status":...,
      "seconds":...,"payload":{...}} ].  [deterministic] drops
    ["seconds"]. *)

type summary = {
  batch : string;  (** batch label: file name, ["-"] for stdin *)
  jobs : int;  (** records emitted, summary excluded *)
  ok : int;
  unmet : int;
  failed : int;  (** [Failed] + [Parse_error] *)
  overloaded : int;
  timed_out : int;
  cancelled : int;
  seconds : float;
  cache_lookups : int;  (** estimate-cache traffic of this batch *)
  cache_hits : int;
}

val summarize : batch:string -> seconds:float -> cache_lookups:int ->
  cache_hits:int -> t list -> summary

val render_summary : deterministic:bool -> summary -> string
(** The batch-terminating line:
    [{"schema":"ape-serve/1","batch":...,"summary":{...}}].
    [deterministic] drops ["seconds"], ["cache_lookups"],
    ["cache_hits"] and ["cache_hit_rate"] (hit counts race across
    concurrent jobs sharing a cache). *)

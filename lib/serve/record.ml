type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let float_opt = function Some v -> Float v | None -> Null

type status =
  | Done
  | Unmet
  | Failed of string
  | Parse_error of string
  | Overloaded
  | Timeout
  | Cancelled

let status_name = function
  | Done -> "ok"
  | Unmet -> "unmet"
  | Failed _ -> "failed"
  | Parse_error _ -> "parse-error"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Cancelled -> "cancelled"

type t = {
  id : string;
  kind : string;
  status : status;
  seconds : float;
  payload : (string * json) list;
}

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Floats print through [Units.to_exact]: the shortest decimal form
   that round-trips, which is both valid JSON and bit-stable — the
   determinism diff gate compares these characters. *)
let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (Ape_util.Units.to_exact f)
    else Buffer.add_string buf "null"
  | Str s -> escape buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

let to_line fields =
  json_to_string (Obj (("schema", Str "ape-serve/1") :: fields))

let render ~deterministic r =
  let error =
    match r.status with
    | Failed msg | Parse_error msg -> [ ("error", Str msg) ]
    | _ -> []
  in
  to_line
    ([ ("id", Str r.id);
       ("kind", Str r.kind);
       ("status", Str (status_name r.status));
     ]
    @ error
    @ (if deterministic then [] else [ ("seconds", Float r.seconds) ])
    @ [ ("payload", Obj r.payload) ])

type summary = {
  batch : string;
  jobs : int;
  ok : int;
  unmet : int;
  failed : int;
  overloaded : int;
  timed_out : int;
  cancelled : int;
  seconds : float;
  cache_lookups : int;
  cache_hits : int;
}

let summarize ~batch ~seconds ~cache_lookups ~cache_hits records =
  let count pred = List.length (List.filter pred records) in
  {
    batch;
    jobs = List.length records;
    ok = count (fun r -> r.status = Done);
    unmet = count (fun r -> r.status = Unmet);
    failed =
      count (fun r ->
          match r.status with Failed _ | Parse_error _ -> true | _ -> false);
    overloaded = count (fun r -> r.status = Overloaded);
    timed_out = count (fun r -> r.status = Timeout);
    cancelled = count (fun r -> r.status = Cancelled);
    seconds;
    cache_lookups;
    cache_hits;
  }

let render_summary ~deterministic s =
  let cache =
    if deterministic then []
    else
      [ ("cache_lookups", Int s.cache_lookups);
        ("cache_hits", Int s.cache_hits);
        ( "cache_hit_rate",
          if s.cache_lookups = 0 then Float 0.
          else
            Float (float_of_int s.cache_hits /. float_of_int s.cache_lookups)
        );
      ]
  in
  to_line
    [ ("batch", Str s.batch);
      ( "summary",
        Obj
          ([ ("jobs", Int s.jobs);
             ("ok", Int s.ok);
             ("unmet", Int s.unmet);
             ("failed", Int s.failed);
             ("overloaded", Int s.overloaded);
             ("timeout", Int s.timed_out);
             ("cancelled", Int s.cancelled);
           ]
          @ (if deterministic then [] else [ ("seconds", Float s.seconds) ])
          @ cache) );
    ]

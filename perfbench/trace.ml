type span = {
  id : int;
  parent : int option;
  item : int;
  name : string;
  start : float;
  mutable stop : float;
  mutable charged : float;
}

type t = { mutable next : int; mutable stack : span list; mutable all : span list }

let create () = { next = 0; stack = []; all = [] }
let now = Ape_util.Clock.now_s

let with_span t ~item name f =
  let parent = match t.stack with s :: _ -> Some s.id | [] -> None in
  let s =
    { id = t.next; parent; item; name; start = now (); stop = nan; charged = 0. }
  in
  t.next <- t.next + 1;
  t.all <- s :: t.all;
  t.stack <- s :: t.stack;
  Fun.protect f ~finally:(fun () ->
      s.stop <- now ();
      t.stack <- List.tl t.stack)

let add t ~item name ~start ~stop =
  let s = { id = t.next; parent = None; item; name; start; stop; charged = 0. } in
  t.next <- t.next + 1;
  t.all <- s :: t.all;
  s

let charge t dt =
  match t.stack with s :: _ -> s.charged <- s.charged +. dt | [] -> ()

let spans t = List.rev t.all
let duration s = s.stop -. s.start

(* Each span's total child time: its children's durations plus what
   was charged to it. *)
let child_time spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
        let acc = Option.value ~default:0. (Hashtbl.find_opt tbl p) in
        Hashtbl.replace tbl p (acc +. duration s)
      | None -> ())
    spans;
  fun s -> Option.value ~default:0. (Hashtbl.find_opt tbl s.id) +. s.charged

let self_times spans =
  let child_time = child_time spans in
  List.map (fun s -> (s, Float.max 0. (duration s -. child_time s))) spans

let coverage spans =
  let child_time = child_time spans in
  let roots = List.filter (fun s -> s.parent = None) spans in
  let total = List.fold_left (fun acc s -> acc +. duration s) 0. roots in
  let inside =
    List.fold_left
      (fun acc s -> acc +. Float.min (duration s) (child_time s))
      0. roots
  in
  if total > 0. then inside /. total else 0.

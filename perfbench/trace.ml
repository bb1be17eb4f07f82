(* In-memory spans recorded by the benchmark around its calls into each
   layer: name, start, end, parent span and the request id they serve.
   Spans are gathered under one lock (the traced run measures what that
   costs), then written out as JSON lines together with per-name totals
   and self times (a span minus the time its children cover). *)

type span = {
  id : int;
  name : string;
  rid : int;  (* request id shared by every span of one request; 0 = none *)
  parent : int;  (* enclosing span id; 0 = root *)
  t0 : float;
  t1 : float;
}

let lock = Mutex.create ()
let next_id = ref 1
let spans : span list ref = ref []

(* The current (parent span, request id) of each thread. *)
let contexts : (int, int * int) Hashtbl.t = Hashtbl.create 16

let self () = Thread.id (Thread.self ())

let get_context () =
  Mutex.protect lock (fun () -> Option.value ~default:(0, 0) (Hashtbl.find_opt contexts (self ())))

let set_context c = Mutex.protect lock (fun () -> Hashtbl.replace contexts (self ()) c)

let with_request rid f =
  let saved = get_context () in
  set_context (fst saved, rid);
  Fun.protect ~finally:(fun () -> set_context saved) f

let span name f =
  let ((_, rid) as saved), id =
    Mutex.protect lock (fun () ->
        let id = !next_id in
        incr next_id;
        let c = Option.value ~default:(0, 0) (Hashtbl.find_opt contexts (self ())) in
        Hashtbl.replace contexts (self ()) (id, snd c);
        (c, id))
  in
  let t0 = Bx.now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Bx.now () in
      Mutex.protect lock (fun () ->
          Hashtbl.replace contexts (self ()) saved;
          spans := { id; name; rid; parent = fst saved; t0; t1 } :: !spans))
    f

let all () = Mutex.protect lock (fun () -> !spans)

let dur_ms s = (s.t1 -. s.t0) *. 1000.

(* Durations (ms) of every span with this name, in no particular order. *)
let durations name =
  Array.of_list
    (List.filter_map (fun s -> if s.name = name then Some (dur_ms s) else None) (all ()))

(* Per request id, the summed duration of the spans with this name. *)
let per_request name =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.name = name then
        Hashtbl.replace tbl s.rid
          (dur_ms s +. Option.value ~default:0. (Hashtbl.find_opt tbl s.rid)))
    (all ());
  tbl

(* Per request id, the longest span with this name. *)
let per_request_max name =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.name = name then
        Hashtbl.replace tbl s.rid
          (Float.max (dur_ms s) (Option.value ~default:0. (Hashtbl.find_opt tbl s.rid))))
    (all ());
  tbl

(* Name -> (count, total ms, self ms). *)
let summary spans =
  let child_ms = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ms s.parent
          (dur_ms s +. Option.value ~default:0. (Hashtbl.find_opt child_ms s.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let c, total, self =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name)
      in
      let d = dur_ms s in
      let kids = Option.value ~default:0. (Hashtbl.find_opt child_ms s.id) in
      Hashtbl.replace by_name s.name (c + 1, total +. d, self +. Float.max 0. (d -. kids)))
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* Write every span (one JSON object per line) and the per-name summary. *)
let write path =
  let spans = List.sort (fun a b -> Int.compare a.id b.id) (all ()) in
  let oc = open_out path in
  List.iter
    (fun (name, (count, total, self)) ->
      output_string oc
        (Bx.json_obj
           [
             ("summary", Bx.json_string name);
             ("count", string_of_int count);
             ("total_ms", Bx.json_float total);
             ("self_ms", Bx.json_float self);
           ]);
      output_char oc '\n')
    (summary spans);
  List.iter
    (fun s ->
      output_string oc
        (Bx.json_obj
           [
             ("id", string_of_int s.id);
             ("name", Bx.json_string s.name);
             ("rid", string_of_int s.rid);
             ("parent", string_of_int s.parent);
             ("start", Bx.json_float s.t0);
             ("end", Bx.json_float s.t1);
           ]);
      output_char oc '\n')
    spans;
  close_out oc

(* Inputs: the generated corpus, the timed set-up phases, and the seeded
   request streams of each workload. *)

module Engine = Xk_core.Engine
module Index = Xk_index.Index
module Rng = Xk_datagen.Rng

(* Corpus size of every workload: the paper-shaped DBLP generator at
   scale 1.0 (179,405 nodes, 18,721 terms). *)
let dblp_scale = 1.0

(* Every set-up phase is a span (so the traced run attributes set-up) and
   a timed sample (so every run can report its median). *)
let phase_samples : (string, float list) Hashtbl.t = Hashtbl.create 16

let phase name f =
  let t0 = Bx.now () in
  let r = Trace.span name f in
  let d = Bx.now () -. t0 in
  Hashtbl.replace phase_samples name
    (d :: Option.value ~default:[] (Hashtbl.find_opt phase_samples name));
  r

let phase_median name =
  match Hashtbl.find_opt phase_samples name with
  | None | Some [] -> nan
  | Some l -> Bx.median (Array.of_list l)

(* Generate, print to XML, parse it back and label it: the program only
   ever sees the printed corpus.  The corpus is the generator's own
   (fixed); the workload seed drives the requests and mutations. *)
type corpus = {
  doc : Xk_xml.Xml_tree.document;
  xml_path : string;
  xml_bytes : int;
  label : Xk_encoding.Labeling.t;
  correlated : string list list;
}

let make_corpus ~dir =
  let gen =
    phase "datagen.generate" (fun () ->
        Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled dblp_scale))
  in
  let xml_path = Filename.concat dir "corpus.xml" in
  phase "xml.print" (fun () -> Xk_xml.Xml_print.to_file xml_path gen.doc);
  let doc = phase "xml.parse" (fun () -> Xk_xml.Xml_parser.parse_file_exn xml_path) in
  let label = phase "encoding.label" (fun () -> Xk_encoding.Labeling.label doc) in
  {
    doc;
    xml_path;
    xml_bytes = (Unix.stat xml_path).Unix.st_size;
    label;
    correlated = gen.correlated_queries;
  }

(* ------------------------------------------------------------------ *)
(* Requests *)

type cls = Topk | Complete

type req = { r : Engine.request; cls : cls }

let topk words = { r = Engine.topk_request ~k:10 words; cls = Topk }

let complete semantics words =
  { r = Engine.complete_request ~semantics words; cls = Complete }

let words_of q = q.r.Engine.req_words

(* The non-control terms whose df lies in a +-15% window of [target];
   the window widens until inhabited. *)
let near_df idx ~target =
  let rec go pct =
    let lo = max 1 (target * (100 - pct) / 100) and hi = target * (100 + pct) / 100 + 1 in
    let pool = Xk_workload.Workload.terms_in_df_range idx ~lo ~hi in
    if Array.length pool > 3 then Array.map (Index.term idx) pool
    else if pct >= 1000 then invalid_arg "near_df: no usable terms"
    else go (pct * 2)
  in
  go 15

let rec distinct_terms rng candidates ~n acc =
  if n = 0 then acc
  else
    let w = candidates.(Rng.int rng (Array.length candidates)) in
    if List.mem w acc then distinct_terms rng candidates ~n acc
    else distinct_terms rng candidates ~n:(n - 1) (w :: acc)

(* The hot_topk popularity model.  Queries come in groups of one shape —
   k in 2..4 keywords, one high-df term (an eighth or a thirty-second of
   the corpus maximum) plus low-df terms (df ~10 or ~100), the Fig. 9/10
   workload shape — and one group of the generator's planted correlated
   sets.  Zipf (s = 1) ranks the groups, every group holding two ranks,
   interleaved; a draw picks a rank, then a query of that group
   uniformly.  The seed chooses the keywords; the shape at each rank is
   the same for every seed, which keeps seed-to-seed spread small. *)
type hot_pool = {
  groups : string list array array;
  zipf : Xk_datagen.Zipf.t;
}

let hot_pool ?(per_group = 24) ~seed idx ~correlated =
  let rng = Rng.create (seed * 7919 + 17) in
  let maxdf = Xk_workload.Workload.max_df idx in
  let shapes =
    List.concat_map
      (fun high -> List.concat_map (fun low -> List.map (fun k -> (k, high, low)) [ 2; 3; 4 ]) [ 10; 100 ])
      [ maxdf / 8; maxdf / 32 ]
  in
  let near = Hashtbl.create 4 in
  let candidates target =
    match Hashtbl.find_opt near target with
    | Some c -> c
    | None ->
        let c = near_df idx ~target in
        Hashtbl.replace near target c;
        c
  in
  let groups =
    List.map
      (fun (k, high, low) ->
        Array.init per_group (fun _ ->
            let lows = distinct_terms rng (candidates low) ~n:(k - 1) [] in
            distinct_terms rng (candidates high) ~n:1 lows))
      shapes
    @ [ Array.of_list correlated ]
  in
  let groups = Array.of_list groups in
  { groups; zipf = Xk_datagen.Zipf.make ~n:(2 * Array.length groups) ~exponent:1.0 }

(* A Zipf-ranked group, then one of its queries uniformly. *)
let pick pool rng =
  let g = pool.groups.(Xk_datagen.Zipf.sample pool.zipf rng mod Array.length pool.groups) in
  g.(Rng.int rng (Array.length g))

(* Every request of the given modes a pool can produce. *)
let pool_requests pool modes =
  List.concat_map
    (fun g -> List.concat_map (fun q -> List.map (fun mode -> mode q) modes) (Array.to_list g))
    (Array.to_list pool.groups)

(* The hot_topk mix: 70% top-10, 15% complete ELCA, 15% complete SLCA. *)
let hot_draw pool rng =
  let q = pick pool rng in
  let u = Rng.float rng in
  if u < 0.70 then topk q
  else if u < 0.85 then complete Engine.Elca q
  else complete Engine.Slca q

let hot_requests pool = pool_requests pool [ topk; complete Engine.Elca; complete Engine.Slca ]

(* The live_rw reader's mix: half top-10, half complete ELCA. *)
let live_draw pool rng =
  let q = pick pool rng in
  if Rng.bool rng then topk q else complete Engine.Elca q

let live_requests pool = pool_requests pool [ topk; complete Engine.Elca ]

(* The cold_rpc mix: two distinct keywords uniform over the whole
   vocabulary, half top-10 and half complete ELCA. *)
let cold_draw idx rng =
  let n = Index.term_count idx in
  let a = Rng.int rng n in
  let rec other () =
    let b = Rng.int rng n in
    if b = a then other () else b
  in
  let words = [ Index.term idx a; Index.term idx (other ()) ] in
  if Rng.bool rng then topk words else complete Engine.Elca words

(* Per-client request streams: client [c] of a run with seed [seed]
   draws from its own generator, so the inputs depend on the seed only. *)
let client_rng ~seed ~client = Rng.create ((seed * 1_000_003) + (client * 7_777) + 1)

(* ------------------------------------------------------------------ *)
(* Answers *)

let hits_equal (q : req) (a : Xk_baselines.Hit.t list) (b : Xk_baselines.Hit.t list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
         x.score = y.score && (q.cls = Topk || x.node = y.node))
       a b

let reference engine (q : req) = Engine.run_request engine q.r

let outcome_hits = function
  | Xk_exec.Query_service.Ok h -> Some h
  | _ -> None

(* Canonical request key, for tables of distinct requests. *)
let key (q : req) =
  String.concat " " (words_of q)
  ^
  match (q.r.Engine.req_mode, q.r.Engine.req_semantics) with
  | Engine.Topk _, _ -> "|topk"
  | Engine.Complete _, Engine.Elca -> "|elca"
  | Engine.Complete _, Engine.Slca -> "|slca"

(* Shared helpers for the test suites: random corpora, random queries and
   tolerant result comparison. *)

let random_doc ?config seed =
  let rng = Xk_datagen.Rng.create seed in
  Xk_datagen.Random_tree.generate ?config rng

let random_engine ?config seed = Xk_core.Engine.create (random_doc ?config seed)

(* A query of [k] distinct keywords from the random-tree alphabet. *)
let random_query rng ~k ~alphabet =
  let ks = Xk_datagen.Rng.sample rng ~n:alphabet ~k in
  Array.to_list (Array.map Xk_datagen.Random_tree.keyword ks)

let sort_hits (hits : Xk_baselines.Hit.t list) =
  List.sort Xk_baselines.Hit.compare_node hits

let score_tolerance = 1e-9

(* Same node sets with matching scores. *)
let same_hits (a : Xk_baselines.Hit.t list) (b : Xk_baselines.Hit.t list) =
  let a = sort_hits a and b = sort_hits b in
  List.length a = List.length b
  && List.for_all2
       (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
         x.node = y.node && Float.abs (x.score -. y.score) < score_tolerance)
       a b

let pp_hits hits =
  String.concat "; "
    (List.map
       (fun (h : Xk_baselines.Hit.t) -> Printf.sprintf "(%d, %.6f)" h.node h.score)
       (sort_hits hits))

let check_same_hits msg expected actual =
  if not (same_hits expected actual) then
    Alcotest.failf "%s:\n  expected %s\n  actual   %s" msg (pp_hits expected)
      (pp_hits actual)

(* Top-K validation robust to ties: the returned score sequence must equal
   the oracle's best-K scores, and each returned node must carry its true
   score. *)
let check_topk msg ~k (full : Xk_baselines.Hit.t list)
    (topk : Xk_baselines.Hit.t list) =
  let expected_scores =
    List.filteri (fun i _ -> i < k) (Xk_baselines.Hit.sort_desc full)
    |> List.map (fun (h : Xk_baselines.Hit.t) -> h.score)
  in
  let actual_scores = List.map (fun (h : Xk_baselines.Hit.t) -> h.score) topk in
  if List.length expected_scores <> List.length actual_scores then
    Alcotest.failf "%s: expected %d results, got %d (full=%s, topk=%s)" msg
      (List.length expected_scores)
      (List.length actual_scores)
      (pp_hits full) (pp_hits topk);
  List.iter2
    (fun e a ->
      if Float.abs (e -. a) > score_tolerance then
        Alcotest.failf "%s: score sequences differ\n  expected %s\n  actual %s"
          msg
          (String.concat ", " (List.map (Printf.sprintf "%.6f") expected_scores))
          (String.concat ", " (List.map (Printf.sprintf "%.6f") actual_scores)))
    expected_scores actual_scores;
  (* Per-node score fidelity. *)
  List.iter
    (fun (h : Xk_baselines.Hit.t) ->
      match List.find_opt (fun (f : Xk_baselines.Hit.t) -> f.node = h.node) full with
      | Some f ->
          if Float.abs (f.score -. h.score) > score_tolerance then
            Alcotest.failf "%s: node %d score %.9f, oracle says %.9f" msg h.node
              h.score f.score
      | None -> Alcotest.failf "%s: node %d is not a result at all" msg h.node)
    topk

(* A random tree of [nodes] elements, up to eight deep, in which "rare"
   occurs at [rare] random elements and "common" independently at each
   element with probability [common_p]: an uncorrelated low/high-frequency
   keyword pair, the shape of Fig. 10(a)'s low-correlation queries. *)
let skewed_engine ~seed ~nodes ~rare ~common_p =
  let rng = Xk_datagen.Rng.create seed in
  let rare_at = Xk_datagen.Rng.sample rng ~n:nodes ~k:rare in
  let buf = Buffer.create (nodes * 24) in
  let count = ref 0 in
  let rec element depth =
    let id = !count in
    incr count;
    Buffer.add_string buf "<e>";
    if Array.mem id rare_at then Buffer.add_string buf "rare ";
    if Xk_datagen.Rng.float rng < common_p then Buffer.add_string buf "common ";
    Buffer.add_string buf "filler";
    let children = if depth >= 8 then 0 else Xk_datagen.Rng.int rng 4 in
    for _ = 1 to children do
      if !count < nodes then element (depth + 1)
    done;
    Buffer.add_string buf "</e>"
  in
  Buffer.add_string buf "<r>";
  while !count < nodes do
    element 2
  done;
  Buffer.add_string buf "</r>";
  Xk_core.Engine.of_string (Buffer.contents buf)

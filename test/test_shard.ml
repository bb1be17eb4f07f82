(* Sharded scatter/gather: the partition must be invisible.

   The load-bearing property is exact parity - for any document, any
   shard count and any partitioning, sharded execution returns exactly
   (nodes, bit-identical scores, same order) what the unsharded engine
   returns, for complete ELCA/SLCA and for top-K.  Around it: anytime
   degradation under per-shard tick budgets (a Partial is a true prefix
   of the real top-K), manifest/segment persistence with typed per-shard
   failures, node-numbering round-trips and the root edge cases that make
   cross-shard gathering interesting. *)

open Xk_exec

let check = Alcotest.check
let tc = Alcotest.test_case

let hits_identical (a : Xk_baselines.Hit.t list) (b : Xk_baselines.Hit.t list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
         x.node = y.node && x.score = y.score)
       a b

let pp_outcome = Query_service.outcome_label

(* Top-K comparison robust to score ties: the gather selects canonical
   ties (score desc, node asc) while the unsharded join's emission order
   at equal scores is an internal artifact — so equality is checked as
   bit-identical score sequences plus true membership of every returned
   node, mirroring Tutil.check_topk but without tolerance. *)
let same_topk ~(full : Xk_baselines.Hit.t list) (a : Xk_baselines.Hit.t list)
    (b : Xk_baselines.Hit.t list) =
  let scores hs = List.map (fun (h : Xk_baselines.Hit.t) -> h.score) hs in
  scores a = scores b
  && List.for_all
       (fun (h : Xk_baselines.Hit.t) ->
         List.exists
           (fun (f : Xk_baselines.Hit.t) -> f.node = h.node && f.score = h.score)
           full)
       (a @ b)

(* One engine/sharding pair per trial keeps the property honest: nothing
   is shared between the sharded and unsharded sides but the document. *)
let with_sharded ?assignment ?strategy ~shards seed f =
  let doc = Tutil.random_doc seed in
  let engine = Xk_core.Engine.create doc in
  let sharded = Xk_index.Sharding.partition ?assignment ?strategy ~shards doc in
  let sx = Shard_exec.create ~domains:2 sharded in
  Fun.protect ~finally:(fun () -> Shard_exec.shutdown sx) (fun () ->
      f doc engine sx)

(* --- Exact parity --------------------------------------------------- *)

(* Requests paired with how to compare them: complete results are
   node-exact, top-K results are tie-robust against the complete set of
   the same semantics. *)
let requests_of words =
  Xk_core.Engine.
    [
      (complete_request ~semantics:Elca words, `Complete);
      (complete_request ~semantics:Slca words, `Complete);
      (topk_request ~semantics:Elca ~k:1 words, `Topk Elca);
      (topk_request ~semantics:Elca ~k:4 words, `Topk Elca);
      (topk_request ~semantics:Slca ~k:3 words, `Topk Slca);
      (topk_request ~semantics:Elca ~algorithm:Hybrid ~k:3 words, `Topk Elca);
    ]

let check_one engine sx name words (req, kind) =
  let expected = Xk_core.Engine.run_request engine req in
  match Shard_exec.exec sx req with
  | Query_service.Ok actual ->
      let same =
        match kind with
        | `Complete -> hits_identical expected actual
        | `Topk sem ->
            let full =
              Xk_core.Engine.run_request engine
                (Xk_core.Engine.complete_request ~semantics:sem words)
            in
            same_topk ~full expected actual
      in
      if same then Ok ()
      else
        Error
          (Printf.sprintf "%s: expected [%s], got [%s]" name
             (Tutil.pp_hits expected) (Tutil.pp_hits actual))
  | o -> Error (Printf.sprintf "%s: outcome %s" name (pp_outcome o))

(* Raw ints sanitized in-property: QCheck's int shrinker does not respect
   [int_range] bounds, and an out-of-range input turns a counterexample
   report into an [Invalid_argument] crash. *)
let parity_prop =
  QCheck.Test.make ~count:120
    ~name:"sharded scatter/gather = unsharded engine (exact)"
    QCheck.(triple (int_bound 1_000_000) small_nat small_nat)
    (fun (seed, shards_raw, strat) ->
      let shards = 1 + (shards_raw mod 8) in
      let strategy =
        match strat mod 3 with
        | 0 -> None
        | 1 -> Some Xk_index.Sharding.Round_robin
        | _ -> Some Xk_index.Sharding.Hash
      in
      with_sharded ?strategy ~shards seed (fun _doc engine sx ->
          let rng = Xk_datagen.Rng.create (seed + 7919) in
          List.for_all
            (fun words ->
              List.for_all
                (fun rk ->
                  match
                    check_one engine sx
                      (Printf.sprintf "shards=%d" shards)
                      words rk
                  with
                  | Ok () -> true
                  | Error msg -> QCheck.Test.fail_report msg)
                (requests_of words))
            [
              Tutil.random_query rng ~k:2 ~alphabet:26;
              Tutil.random_query rng ~k:3 ~alphabet:26;
              Tutil.random_query rng ~k:1 ~alphabet:26;
            ]))

(* Explicit random assignments (not just the built-in strategies), and the
   batch path. *)
let parity_assignment_prop =
  QCheck.Test.make ~count:60
    ~name:"sharded parity under arbitrary assignments, batched"
    QCheck.(pair (int_bound 1_000_000) small_nat)
    (fun (seed, shards_raw) ->
      let shards = 2 + (shards_raw mod 5) in
      let doc = Tutil.random_doc seed in
      let subtrees = List.length doc.Xk_xml.Xml_tree.root.children in
      QCheck.assume (subtrees > 0);
      let rng = Xk_datagen.Rng.create (seed lxor 0x5f5f) in
      let assignment =
        Array.init subtrees (fun _ -> Xk_datagen.Rng.int rng shards)
      in
      with_sharded ~assignment ~shards seed (fun _doc engine sx ->
          let words = Tutil.random_query rng ~k:2 ~alphabet:26 in
          let rks = requests_of words in
          let outcomes = Shard_exec.exec_batch sx (List.map fst rks) in
          List.for_all2
            (fun (req, kind) o ->
              let expected = Xk_core.Engine.run_request engine req in
              match o with
              | Query_service.Ok a ->
                  let same =
                    match kind with
                    | `Complete -> hits_identical expected a
                    | `Topk sem ->
                        let full =
                          Xk_core.Engine.run_request engine
                            (Xk_core.Engine.complete_request ~semantics:sem
                               words)
                        in
                        same_topk ~full expected a
                  in
                  same
                  || QCheck.Test.fail_reportf "batch mismatch: %s vs %s"
                       (Tutil.pp_hits expected) (Tutil.pp_hits a)
              | o ->
                  QCheck.Test.fail_reportf "batch outcome %s" (pp_outcome o))
            rks outcomes))

(* --- Anytime degradation under per-shard tick budgets ---------------- *)

let partial_prefix_prop =
  QCheck.Test.make ~count:150
    ~name:"per-shard tick budgets: Partial is a prefix of the true top-K"
    QCheck.(quad (int_bound 1_000_000) small_nat (int_bound 400) small_nat)
    (fun (seed, shards_raw, ticks_raw, k_raw) ->
      let shards = 1 + (shards_raw mod 5) in
      let ticks = 1 + abs ticks_raw in
      let k = 1 + (k_raw mod 4) in
      with_sharded ~shards seed (fun _doc engine sx ->
          let rng = Xk_datagen.Rng.create (seed + 13) in
          let words = Tutil.random_query rng ~k:2 ~alphabet:26 in
          let req = Xk_core.Engine.topk_request ~k words in
          let full =
            Xk_core.Engine.run_request engine
              (Xk_core.Engine.complete_request ~semantics:Elca words)
          in
          let truth =
            Xk_core.Engine.(
              query_topk ~semantics:Elca ~algorithm:Topk_join engine words ~k)
          in
          (* Score-sequence prefix + true membership: canonical tie
             selection in the gather may pick different ids than the
             unsharded join's internal emission order. *)
          let is_prefix hs =
            let scores l = List.map (fun (h : Xk_baselines.Hit.t) -> h.score) l in
            scores hs
            = List.filteri (fun i _ -> i < List.length hs) (scores truth)
            && List.for_all
                 (fun (h : Xk_baselines.Hit.t) ->
                   List.exists
                     (fun (f : Xk_baselines.Hit.t) ->
                       f.node = h.node && f.score = h.score)
                     full)
                 hs
          in
          let budget_for _shard = Xk_resilience.Budget.create ~ticks () in
          match Shard_exec.exec ~budget_for sx req with
          | Query_service.Ok hs ->
              same_topk ~full truth hs
              || QCheck.Test.fail_reportf "budgeted Ok differs: %s vs %s"
                   (Tutil.pp_hits truth) (Tutil.pp_hits hs)
          | Query_service.Partial hs ->
              (hs <> [] && is_prefix hs)
              || QCheck.Test.fail_reportf
                   "Partial [%s] is not a prefix of [%s]" (Tutil.pp_hits hs)
                   (Tutil.pp_hits truth)
          | Query_service.Timeout -> true
          | o -> QCheck.Test.fail_reportf "outcome %s" (pp_outcome o)))

(* --- Node numbering -------------------------------------------------- *)

let mapping_roundtrip () =
  List.iter
    (fun (seed, shards) ->
      let doc = Tutil.random_doc seed in
      let sharded = Xk_index.Sharding.partition ~shards doc in
      let total = Xk_index.Sharding.total_nodes sharded in
      check Alcotest.int "total nodes" (Xk_xml.Xml_tree.node_count doc) total;
      check Alcotest.(pair int int) "root locates to shard 0" (0, 0)
        (Xk_index.Sharding.locate sharded 0);
      for g = 1 to total - 1 do
        let shard, local = Xk_index.Sharding.locate sharded g in
        let g' = Xk_index.Sharding.to_global sharded ~shard local in
        if g' <> g then
          Alcotest.failf "node %d -> shard %d/%d -> %d" g shard local g'
      done;
      (match Xk_index.Sharding.locate sharded total with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "locate past the end accepted");
      (* Every shard's numbering covers its index. *)
      for s = 0 to Xk_index.Sharding.count sharded - 1 do
        let idx = Xk_index.Sharding.index sharded s in
        let n =
          Xk_encoding.Labeling.node_count (Xk_index.Index.label idx)
        in
        for local = 1 to n - 1 do
          let g = Xk_index.Sharding.to_global sharded ~shard:s local in
          let s', local' = Xk_index.Sharding.locate sharded g in
          if s' <> s || local' <> local then
            Alcotest.failf "shard %d local %d -> %d -> shard %d local %d" s
              local g s' local'
        done
      done)
    [ (11, 1); (11, 3); (42, 4); (42, 7); (99, 2) ]

(* --- Root edge cases -------------------------------------------------- *)

let doc_of_string s = (Xk_xml.Xml_parser.parse_string_exn s).root

let parity_doc name xml shards assignment words =
  let doc = { Xk_xml.Xml_tree.root = doc_of_string xml } in
  let engine = Xk_core.Engine.create doc in
  let sharded = Xk_index.Sharding.partition ?assignment ~shards doc in
  let sx = Shard_exec.create ~domains:2 sharded in
  Fun.protect ~finally:(fun () -> Shard_exec.shutdown sx) (fun () ->
      List.iter
        (fun rk ->
          match check_one engine sx name words rk with
          | Ok () -> ()
          | Error msg -> Alcotest.fail msg)
        (requests_of words))

let root_edge_cases () =
  (* Keywords split across shards: the root is the only node containing
     both, and the gather must reconstruct it from the summaries. *)
  parity_doc "split keywords"
    "<r><a>apple orchard</a><b>banana grove</b></r>" 2 (Some [| 0; 1 |])
    [ "apple"; "banana" ];
  (* Root attributes carry a keyword: indexed at the root node itself,
     kept by shard 0 only. *)
  parity_doc "root attribute keyword"
    "<r name='apple'><a>banana</a><b>cherry apple</b></r>" 2 (Some [| 1; 1 |])
    [ "apple"; "banana" ];
  (* A keyword-complete subtree forbids the root SLCA but not deep hits. *)
  parity_doc "keyword-complete subtree"
    "<r><a><x>apple</x><y>banana</y></a><b>apple</b></r>" 2 (Some [| 0; 1 |])
    [ "apple"; "banana" ];
  (* More shards than subtrees: trailing shards are empty. *)
  parity_doc "more shards than subtrees" "<r><a>apple banana</a></r>" 5 None
    [ "apple"; "banana" ];
  (* Unknown keyword: empty everywhere. *)
  parity_doc "unknown keyword" "<r><a>apple</a><b>banana</b></r>" 2 None
    [ "apple"; "zeppelin" ];
  (* Duplicate and case-folded query words collapse identically. *)
  parity_doc "case folding and duplicates"
    "<r><a>Apple apple</a><b>APPLE banana</b></r>" 3 None
    [ "Apple"; "apple"; "APPLE"; "banana" ]

(* --- Root summary against a reference ------------------------------- *)

let with_tmpdir f =
  let dir = Filename.temp_file "xk_shard" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* The row-at-a-time summary: climb every posting to its top-level
   ancestor, group occurrences in a hash table, then rescan every posting
   for the maxima.  [Sharding.root_summary] must agree with it exactly. *)
let reference_root_summary sharding ~shard words :
    Xk_index.Sharding.root_summary =
  let open Xk_index in
  let idx = Sharding.index sharding shard in
  let lab = Index.label idx in
  let damping = Index.damping idx in
  let nw = List.length words in
  let ids = Array.of_list (List.map (Index.term_id idx) words) in
  let best_all = Array.make nw neg_infinity in
  let best_free = Array.make nw neg_infinity in
  let coverage : (int, bool array) Hashtbl.t = Hashtbl.create 64 in
  let top_of jl r =
    Xk_encoding.Labeling.ancestor_at lab (Jlist.node jl r) ~depth:2
  in
  Array.iteri
    (fun i id ->
      Option.iter
        (fun id ->
          let jl = Index.jlist idx id in
          for r = 0 to Jlist.length jl - 1 do
            Option.iter
              (fun top ->
                let mask =
                  match Hashtbl.find_opt coverage top with
                  | Some m -> m
                  | None ->
                      let m = Array.make nw false in
                      Hashtbl.add coverage top m;
                      m
                in
                mask.(i) <- true)
              (top_of jl r)
          done)
        id)
    ids;
  let complete mask = Array.for_all Fun.id mask in
  let full_subtree =
    nw > 0 && Hashtbl.fold (fun _ m acc -> acc || complete m) coverage false
  in
  Array.iteri
    (fun i id ->
      Option.iter
        (fun id ->
          let jl = Index.jlist idx id in
          for r = 0 to Jlist.length jl - 1 do
            let damped =
              Jlist.score jl r
              *. Xk_score.Damping.apply damping (Jlist.row_len jl r - 1)
            in
            if damped > best_all.(i) then best_all.(i) <- damped;
            let free =
              match top_of jl r with
              | None -> true
              | Some top -> not (complete (Hashtbl.find coverage top))
            in
            if free && damped > best_free.(i) then best_free.(i) <- damped
          done)
        id)
    ids;
  {
    rs_best_all = best_all;
    rs_best_free = best_free;
    rs_full_subtree = full_subtree;
  }

let pp_floats a =
  String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") a))

(* [None] when every shard's summary equals the reference, else a report
   of the first mismatch. *)
let summary_mismatch sharding words =
  let rec go shard =
    if shard >= Xk_index.Sharding.count sharding then None
    else
      let got = Xk_index.Sharding.root_summary sharding ~shard words in
      let want = reference_root_summary sharding ~shard words in
      if
        got.rs_best_all = want.rs_best_all
        && got.rs_best_free = want.rs_best_free
        && got.rs_full_subtree = want.rs_full_subtree
      then go (shard + 1)
      else
        Some
          (Printf.sprintf
             "shard %d of %d, words [%s]: all [%s] vs [%s], free [%s] vs \
              [%s], full %b vs %b"
             shard
             (Xk_index.Sharding.count sharding)
             (String.concat " " words) (pp_floats got.rs_best_all)
             (pp_floats want.rs_best_all) (pp_floats got.rs_best_free)
             (pp_floats want.rs_best_free) got.rs_full_subtree
             want.rs_full_subtree)
  in
  go 0

(* The budget contract [Shard_run] and the RPC server depend on: an
   exhausted budget stops the summary whenever it has any row to look
   at.  [Some report] names a shard that summarized past it. *)
let starved_summary_escapes sharding words =
  let open Xk_index in
  let has_rows idx w =
    match Index.term_id idx w with
    | Some id -> Jlist.length (Index.jlist idx id) > 0
    | None -> false
  in
  List.find_map
    (fun shard ->
      let budget = Xk_resilience.Budget.create ~ticks:0 () in
      match Sharding.root_summary ~budget sharding ~shard words with
      | exception Xk_resilience.Budget.Expired -> None
      | _ when List.exists (has_rows (Sharding.index sharding shard)) words ->
          Some
            (Printf.sprintf "shard %d summarized [%s] past a zero-tick budget"
               shard (String.concat " " words))
      | _ -> None)
    (List.init (Sharding.count sharding) Fun.id)

(* 0-4 alphabet keywords, sometimes with a word no document contains. *)
let random_words rng =
  let words =
    Tutil.random_query rng ~k:(Xk_datagen.Rng.int rng 5) ~alphabet:26
  in
  if Xk_datagen.Rng.int rng 4 = 0 then "zeppelin" :: words else words

let summary_reference_prop =
  QCheck.Test.make ~count:150
    ~name:"root_summary = posting-walk reference (random docs, 1-8 shards)"
    QCheck.(pair (int_bound 1_000_000) small_nat)
    (fun (seed, shards_raw) ->
      let shards = 1 + (shards_raw mod 8) in
      let doc = Tutil.random_doc seed in
      let sharding = Xk_index.Sharding.partition ~shards doc in
      let rng = Xk_datagen.Rng.create (seed + 31) in
      List.for_all
        (fun _ ->
          match summary_mismatch sharding (random_words rng) with
          | None -> true
          | Some msg -> QCheck.Test.fail_report msg)
        [ 1; 2; 3; 4 ])

(* The shapes that make the root interesting, under every subset of
   their keywords and several partitions: a root-attribute keyword, text
   directly under the root, keyword-complete subtrees, and a document
   whose every keyword sits at the root alone. *)
let summary_root_edge_cases () =
  let docs =
    [
      "<r name='apple'><a>banana</a><b>cherry apple</b></r>";
      "<r>apple <a>banana</a> cherry<b>apple banana</b>banana</r>";
      "<r><a><x>apple</x><y>banana</y></a><b>apple</b><c>banana \
       cherry</c></r>";
      "<r name='apple banana'>cherry</r>";
    ]
  in
  let rec subsets = function
    | [] -> [ [] ]
    | w :: ws ->
        let rest = subsets ws in
        rest @ List.map (fun s -> w :: s) rest
  in
  List.iter
    (fun xml ->
      let doc = { Xk_xml.Xml_tree.root = doc_of_string xml } in
      List.iter
        (fun shards ->
          let sharding = Xk_index.Sharding.partition ~shards doc in
          List.iter
            (fun words ->
              List.iter
                (Option.iter (Alcotest.failf "%s: %s" xml))
                [
                  summary_mismatch sharding words;
                  starved_summary_escapes sharding words;
                ])
            (subsets [ "apple"; "banana"; "cherry"; "zeppelin" ]))
        [ 1; 2; 3 ])
    docs

(* A live store's snapshot: the delta shard beside several sealed
   generations, every document its own top-level subtree. *)
let summary_live_snapshot () =
  with_tmpdir (fun dir ->
      let ok what = function
        | Ok v -> v
        | Error e ->
            Alcotest.failf "%s: %s" what (Xk_index.Live.error_message e)
      in
      let live =
        ok "create"
          (Xk_index.Live.create ~fsync:false ~auto_compact:150 ~root_tag:"lib"
             dir)
      in
      Fun.protect
        ~finally:(fun () -> Xk_index.Live.close live)
        (fun () ->
          let rng = Xk_datagen.Rng.create 4242 in
          let kw () =
            Xk_datagen.Random_tree.keyword (Xk_datagen.Rng.int rng 12)
          in
          let doc () =
            Xk_xml.Xml_tree.(
              elem "book"
                [
                  elem "title" [ text (kw () ^ " " ^ kw ()) ];
                  elem "body" [ elem "p" [ text (kw ()) ] ];
                ])
          in
          for _ = 1 to 13 do
            ignore
              (ok "add"
                 (Xk_index.Live.mutate live
                    (List.init 40 (fun _ -> Xk_index.Live.Add (doc ())))))
          done;
          ignore
            (ok "edit"
               (Xk_index.Live.mutate live
                  [ Xk_index.Live.Replace (3, doc ()); Remove 7; Remove 401 ]));
          let snap = Xk_index.Live.snapshot live in
          let sharding = Xk_index.Snapshot.sharding snap in
          check Alcotest.bool ">= 500 documents" true
            (Xk_index.Snapshot.doc_count snap >= 500);
          check Alcotest.bool "delta plus sealed generations" true
            (Xk_index.Sharding.count sharding >= 3);
          for _ = 1 to 40 do
            Option.iter Alcotest.fail
              (summary_mismatch sharding (random_words rng))
          done))

let summary_budget_prop =
  QCheck.Test.make ~count:100
    ~name:"root_summary raises Expired on a zero-tick budget when it has rows"
    QCheck.(pair (int_bound 1_000_000) small_nat)
    (fun (seed, shards_raw) ->
      let shards = 1 + (shards_raw mod 6) in
      let sharding =
        Xk_index.Sharding.partition ~shards (Tutil.random_doc seed)
      in
      let rng = Xk_datagen.Rng.create (seed + 97) in
      match starved_summary_escapes sharding (random_words rng) with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* --- Persistence ------------------------------------------------------ *)

let flip_last_byte path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string data in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let shard_io_roundtrip () =
  let seed = 2024 in
  let doc = Tutil.random_doc seed in
  let sharded = Xk_index.Sharding.partition ~shards:3 doc in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "corpus.shards" in
      Xk_index.Shard_io.save sharded path;
      check Alcotest.bool "manifest sniffs as manifest" true
        (Xk_index.Shard_io.is_manifest path);
      check Alcotest.bool "segment does not sniff as manifest" false
        (Xk_index.Shard_io.is_manifest
           (Xk_index.Shard_io.segment_path path ~shard:0));
      let reloaded =
        match Xk_index.Shard_io.load_result doc path with
        | Ok s -> s
        | Error e -> Alcotest.failf "reload: %s" (Xk_index.Shard_io.error_message e)
      in
      check Alcotest.int "shard count survives" 3
        (Xk_index.Sharding.count reloaded);
      check Alcotest.(array int) "assignment survives"
        (Xk_index.Sharding.assignment sharded)
        (Xk_index.Sharding.assignment reloaded);
      (* Reloaded shards answer exactly like the in-memory ones. *)
      let engine = Xk_core.Engine.create doc in
      let sx = Shard_exec.create ~domains:2 reloaded in
      Fun.protect ~finally:(fun () -> Shard_exec.shutdown sx) (fun () ->
          let rng = Xk_datagen.Rng.create 5 in
          for _ = 1 to 5 do
            let words = Tutil.random_query rng ~k:2 ~alphabet:26 in
            List.iter
              (fun rk ->
                match check_one engine sx "reloaded" words rk with
                | Ok () -> ()
                | Error msg -> Alcotest.fail msg)
              (requests_of words)
          done))

let shard_io_failures () =
  let doc = Tutil.random_doc 77 in
  let sharded = Xk_index.Sharding.partition ~shards:3 doc in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "corpus.shards" in
      Xk_index.Shard_io.save sharded path;
      (* A corrupted shard segment surfaces as a typed per-shard error
         naming the shard - even with fault injection active, because
         media corruption survives every retry. *)
      flip_last_byte (Xk_index.Shard_io.segment_path path ~shard:1);
      (match Xk_index.Shard_io.load_result doc path with
      | Error
          (Xk_index.Shard_io.Shard
            { shard = 1; failures = [ (_, { error = Corrupted _; _ }) ] }) ->
          ()
      | Error e ->
          Alcotest.failf "corrupt segment: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "corrupt segment loaded");
      (* Restore, then corrupt the manifest itself. *)
      Xk_index.Shard_io.save sharded path;
      flip_last_byte path;
      (match Xk_index.Shard_io.load_result doc path with
      | Error (Xk_index.Shard_io.Manifest _) -> ()
      | Error (Xk_index.Shard_io.Shard _ as e) ->
          Alcotest.failf "corrupt manifest: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "corrupt manifest loaded");
      (* A missing segment is a per-shard failure too. *)
      Xk_index.Shard_io.save sharded path;
      Sys.remove (Xk_index.Shard_io.segment_path path ~shard:2);
      (match Xk_index.Shard_io.load_result doc path with
      | Error
          (Xk_index.Shard_io.Shard
            { shard = 2; failures = [ (_, { error = Io_failed _; _ }) ] }) ->
          ()
      | Error e ->
          Alcotest.failf "missing segment: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "missing segment loaded");
      (* Garbage manifest. *)
      let oc = open_out_bin path in
      output_string oc "not a manifest at all";
      close_out oc;
      check Alcotest.bool "garbage is not a manifest" false
        (Xk_index.Shard_io.is_manifest path);
      match Xk_index.Shard_io.load_result doc path with
      | Error (Xk_index.Shard_io.Manifest { error = Corrupted _; _ }) -> ()
      | Error e ->
          Alcotest.failf "garbage manifest: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "garbage manifest loaded")

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* v3 open-path faults: a torn directory, a corrupted mapped column and
   an injected map failure each surface as the right typed error, and a
   single damaged copy is invisible behind replica fallback. *)
let shard_io_v3_faults () =
  let doc = Tutil.random_doc 909 in
  let sharded = Xk_index.Sharding.partition ~shards:2 doc in
  let flip_at path pos =
    let ic = open_in_bin path in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xA5));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  in
  let layout_of seg =
    match Xk_index.Index_io.layout seg with
    | Ok l -> l
    | Error e ->
        Alcotest.failf "layout %s: %s" seg (Xk_index.Index_io.error_message e)
  in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "corpus.shards" in
      let resave () = Xk_index.Shard_io.save ~replicas:2 sharded path in
      resave ();
      let files =
        match Xk_index.Shard_io.replica_files path with
        | Ok files -> files
        | Error e ->
            Alcotest.failf "replica_files: %s"
              (Xk_index.Shard_io.error_message e)
      in
      check Alcotest.(option int) "shard segments are v3" (Some 3)
        (Xk_index.Index_io.format_version files.(0).(0));
      (* Torn directory region: the flip defeats the directory checksum.
         One damaged copy falls back to the replica... *)
      flip_at files.(0).(0) (layout_of files.(0).(0)).Xk_index.Index_io.l3_dir_off;
      (match
         Xk_index.Shard_io.load_result ~retries:1 ~backoff_ms:0.1 doc path
       with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "torn directory should fall back: %s"
            (Xk_index.Shard_io.error_message e));
      (* ...and with both copies torn the shard is typed corruption. *)
      flip_at files.(0).(1)
        ((layout_of files.(0).(1)).Xk_index.Index_io.l3_dir_off + 8);
      (match
         Xk_index.Shard_io.load_result ~retries:1 ~backoff_ms:0.1 doc path
       with
      | Error
          (Xk_index.Shard_io.Shard
            {
              shard = 0;
              failures =
                [ (_, { error = Corrupted _; _ }); (_, { error = Corrupted _; _ }) ];
            }) ->
          ()
      | Error e ->
          Alcotest.failf "torn directories: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "shard with two torn directories loaded");
      (* Corrupted mapped column: the lazy open defers column checks, so
         paranoid callers pass [verify_columns] and the damage is caught
         at open time - behind fallback first, then as typed corruption
         once the replica is damaged too. *)
      resave ();
      let lay0 = layout_of files.(0).(0) in
      check Alcotest.bool "shard carries rows" true
        (lay0.Xk_index.Index_io.l3_total_rows > 0);
      flip_at files.(0).(0) lay0.Xk_index.Index_io.l3_nodes_off;
      (match
         Xk_index.Shard_io.load_result ~verify_columns:true ~retries:1
           ~backoff_ms:0.1 doc path
       with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "corrupt column should fall back: %s"
            (Xk_index.Shard_io.error_message e));
      flip_at files.(0).(1)
        (layout_of files.(0).(1)).Xk_index.Index_io.l3_tfs_off;
      (match
         Xk_index.Shard_io.load_result ~verify_columns:true ~retries:1
           ~backoff_ms:0.1 doc path
       with
      | Error
          (Xk_index.Shard_io.Shard
            {
              shard = 0;
              failures =
                [ (_, { error = Corrupted _; _ }); (_, { error = Corrupted _; _ }) ];
            }) ->
          ()
      | Error e ->
          Alcotest.failf "corrupt columns: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "eager verify accepted corrupt columns");
      (* The same damage without [verify_columns] opens fine and trips
         the per-term checksum on first decode as a [Segment_fault] -
         the query-time form the executor's failover handles. *)
      let solo = Filename.concat dir "solo.seg" in
      let label = Xk_encoding.Labeling.label doc in
      Xk_index.Index_io.save (Xk_index.Index.build label) solo;
      flip_at solo (layout_of solo).Xk_index.Index_io.l3_tfs_off;
      (match Xk_index.Index_io.load_result ~retries:1 label solo with
      | Error e ->
          Alcotest.failf "lazy open should defer column checks: %s"
            (Xk_index.Index_io.load_error_message e)
      | Ok lazy_idx -> (
          match
            for id = 0 to Xk_index.Index.term_count lazy_idx - 1 do
              ignore (Xk_index.Index.raw_rows lazy_idx id)
            done
          with
          | () -> Alcotest.fail "corrupt column decoded without a fault"
          | exception Xk_index.Index_io.Segment_fault _ -> ()));
      (* Injected map failure: the primary cannot be mapped at all; the
         loader classifies it as an IO failure without burning retries
         and serves from the replica. *)
      resave ();
      Fun.protect ~finally:Xk_resilience.Fault_injection.reset (fun () ->
          Xk_resilience.Fault_injection.mark_unmappable ~path:files.(1).(0);
          (match Xk_index.Shard_io.load_result doc path with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "map failure should fall back: %s"
                (Xk_index.Shard_io.error_message e));
          Xk_resilience.Fault_injection.mark_unmappable ~path:files.(1).(1);
          match Xk_index.Shard_io.load_result doc path with
          | Error
              (Xk_index.Shard_io.Shard
                {
                  shard = 1;
                  failures =
                    [
                      (_, { error = Io_failed _; attempts = 1 });
                      (_, { error = Io_failed _; attempts = 1 });
                    ];
                }) ->
              ()
          | Error e ->
              Alcotest.failf "unmappable replicas: wrong error %s"
                (Xk_index.Shard_io.error_message e)
          | Ok _ -> Alcotest.fail "unmappable shard loaded"))

(* Replicated segments: save writes N verified copies per shard, the
   loader falls back across them, and a shard is lost only when every
   copy fails. *)
let shard_io_replicas () =
  let doc = Tutil.random_doc 404 in
  let sharded = Xk_index.Sharding.partition ~shards:3 doc in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "corpus.shards" in
      Xk_index.Shard_io.save ~replicas:2 sharded path;
      (* The manifest records a [shard][replica] grid and every file in
         it exists; replica 0 is the primary segment path. *)
      let files =
        match Xk_index.Shard_io.replica_files path with
        | Ok files -> files
        | Error e ->
            Alcotest.failf "replica_files: %s"
              (Xk_index.Shard_io.error_message e)
      in
      check Alcotest.int "one replica row per shard" 3 (Array.length files);
      Array.iteri
        (fun s row ->
          check Alcotest.int "two replicas per shard" 2 (Array.length row);
          check Alcotest.string "replica 0 is the primary segment"
            (Xk_index.Shard_io.segment_path path ~shard:s)
            row.(0);
          check Alcotest.string "replica 1 carries the rN infix"
            (Xk_index.Shard_io.replica_path path ~shard:s ~replica:1)
            row.(1);
          Array.iter
            (fun f -> check Alcotest.bool "replica file exists" true
                (Sys.file_exists f))
            row)
        files;
      (* Losing one copy is invisible: corrupt the primary of shard 1
         and the loader serves from replica 1. *)
      flip_last_byte files.(1).(0);
      (match Xk_index.Shard_io.load_result doc path with
      | Ok reloaded ->
          check Alcotest.(array int) "fallback load keeps the assignment"
            (Xk_index.Sharding.assignment sharded)
            (Xk_index.Sharding.assignment reloaded)
      | Error e ->
          Alcotest.failf "one corrupt replica should fall back: %s"
            (Xk_index.Shard_io.error_message e));
      (* Losing every copy is a typed per-shard error carrying each
         replica's failure: corrupt the survivor too. *)
      flip_last_byte files.(1).(1);
      (match Xk_index.Shard_io.load_result doc path with
      | Error
          (Xk_index.Shard_io.Shard
            {
              shard = 1;
              failures =
                [ (_, { error = Corrupted _; _ }); (_, { error = Corrupted _; _ }) ];
            }) ->
          ()
      | Error e ->
          Alcotest.failf "all replicas corrupt: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "shard with no clean replica loaded");
      (* Removed copies classify as IO failures, one entry per file. *)
      Sys.remove files.(1).(0);
      Sys.remove files.(1).(1);
      (match Xk_index.Shard_io.load_result doc path with
      | Error
          (Xk_index.Shard_io.Shard
            {
              shard = 1;
              failures =
                [ (_, { error = Io_failed _; _ }); (_, { error = Io_failed _; _ }) ];
            }) ->
          ()
      | Error e ->
          Alcotest.failf "all replicas missing: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "shard with no replica files loaded");
      (* A copy that lands damaged surfaces at save time, not at
         failover time: persistent read corruption on one replica path
         defeats the post-save verification no matter the retries. *)
      let path2 = Filename.concat dir "damaged.shards" in
      Xk_resilience.Fault_injection.mark_corrupt
        ~path:(Xk_index.Shard_io.replica_path path2 ~shard:0 ~replica:1);
      Fun.protect ~finally:Xk_resilience.Fault_injection.reset (fun () ->
          match Xk_index.Shard_io.save ~replicas:2 sharded path2 with
          | () -> Alcotest.fail "save verified a damaged replica"
          | exception Xk_index.Shard_io.Verify_failed msg ->
              check Alcotest.bool "verify error names the replica" true
                (contains msg ".r1.seg"));
      (* A legacy v1 manifest is typed corruption telling the operator
         to rebuild, not a crash. *)
      let legacy = Filename.concat dir "legacy.shards" in
      let oc = open_out_bin legacy in
      output_string oc "XKSHM001";
      close_out oc;
      check Alcotest.bool "legacy magic still sniffs as manifest" true
        (Xk_index.Shard_io.is_manifest legacy);
      match Xk_index.Shard_io.load_result doc legacy with
      | Error (Xk_index.Shard_io.Manifest { error = Corrupted msg; _ }) ->
          check Alcotest.bool "legacy error says to rebuild" true
            (contains msg "legacy")
      | Error e ->
          Alcotest.failf "legacy manifest: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "legacy manifest loaded")

(* --- Legacy manifest fixtures ----------------------------------------- *)

(* The "v1 is refused, v2 still loads" claims pinned by committed bytes,
   not by round-trips through today's writer.

   [v2_manifest_bytes] is a version-2 manifest (no endpoint records):
   magic "XKSHM002" | version 2 | payload length 53 | payload CRC |
   payload = 2 shards, 3 subtrees, assignment [0; 1; 0], then one
   replica per shard with basenames fixture.shards.00{0,1}.seg.  If the
   decoder's v2 layout ever drifts, this literal stops loading. *)
let v2_manifest_bytes =
  "XKSHM002\x025\x9c\xa0\x88\xb9\x0a\x02\x03\x00\x01\x00\x01\x16fixture.shards.000.seg\x01\x16fixture.shards.001.seg"

(* A version-1 manifest: bare magic, then the pre-replica payload shape
   (assignment only).  Only the magic matters — v1 is typed corruption
   with a rebuild hint no matter the rest. *)
let v1_manifest_bytes = "XKSHM001\x01\x05\x2a\x02\x03\x00\x01\x00"

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let fixture_doc =
  {
    Xk_xml.Xml_tree.root =
      Xk_xml.Xml_tree.element "lib"
        [
          Xk_xml.Xml_tree.elem "a" [ Xk_xml.Xml_tree.text "kw0 kw1" ];
          Xk_xml.Xml_tree.elem "b" [ Xk_xml.Xml_tree.text "kw1 kw2" ];
          Xk_xml.Xml_tree.elem "c" [ Xk_xml.Xml_tree.text "kw0 kw2" ];
        ];
  }

let shard_io_legacy_fixtures () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "fixture.shards" in
      (* Segments come from today's writer — the fixture pins the
         manifest layout; segment framing has its own tests. *)
      let sharded =
        Xk_index.Sharding.partition ~shards:2 ~assignment:[| 0; 1; 0 |]
          fixture_doc
      in
      Xk_index.Shard_io.save sharded path;
      write_file path v2_manifest_bytes;
      check Alcotest.bool "v2 sniffs as manifest" true
        (Xk_index.Shard_io.is_manifest path);
      (match Xk_index.Shard_io.load_result fixture_doc path with
      | Ok loaded ->
          check Alcotest.int "v2 shard count" 2
            (Xk_index.Sharding.count loaded);
          check
            (Alcotest.array Alcotest.int)
            "v2 assignment" [| 0; 1; 0 |]
            (Xk_index.Sharding.assignment loaded)
      | Error e ->
          Alcotest.failf "committed v2 bytes no longer load: %s"
            (Xk_index.Shard_io.error_message e));
      write_file path v1_manifest_bytes;
      check Alcotest.bool "v1 still sniffs as manifest" true
        (Xk_index.Shard_io.is_manifest path);
      match Xk_index.Shard_io.load_result fixture_doc path with
      | Error (Xk_index.Shard_io.Manifest { error = Corrupted msg; _ }) ->
          check Alcotest.bool "v1 error says to rebuild" true
            (contains msg "legacy" && contains msg "rebuild")
      | Error e ->
          Alcotest.failf "committed v1 bytes: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "committed v1 bytes loaded")

(* --- Aggregated stats ------------------------------------------------- *)

let cache_aggregate () =
  let s a b c d e =
    {
      Xk_index.Shard_cache.hits = a;
      misses = b;
      evictions = c;
      entries = d;
      capacity = e;
    }
  in
  let total = Xk_index.Shard_cache.aggregate [ s 1 2 3 4 5; s 10 20 30 40 50 ] in
  check Alcotest.int "hits" 11 total.Xk_index.Shard_cache.hits;
  check Alcotest.int "misses" 22 total.misses;
  check Alcotest.int "evictions" 33 total.evictions;
  check Alcotest.int "entries" 44 total.entries;
  check Alcotest.int "capacity" 55 total.capacity;
  check Alcotest.bool "zero is neutral" true
    (Xk_index.Shard_cache.aggregate [] = Xk_index.Shard_cache.zero_stats);
  (* Live aggregation over a sharded index: querying populates some
     shard's caches, and the aggregate sees it. *)
  let doc = Tutil.random_doc 3 in
  let sharded = Xk_index.Sharding.partition ~shards:3 doc in
  let sx = Shard_exec.create ~domains:2 sharded in
  Fun.protect ~finally:(fun () -> Shard_exec.shutdown sx) (fun () ->
      (* Query a term that certainly occurs, so some shard materializes a
         list shape and its cache counts a miss. *)
      let word =
        let idx = Xk_index.Sharding.index sharded 0 in
        Xk_index.Index.term idx 0
      in
      ignore (Shard_exec.exec sx (Xk_core.Engine.complete_request [ word ]));
      let stats = Shard_exec.stats sx in
      check Alcotest.int "shards" 3 stats.Shard_exec.shards;
      check Alcotest.int "queries" 1 stats.queries;
      check Alcotest.int "completed" 1 stats.completed;
      if stats.cache.Xk_index.Shard_cache.misses = 0 then
        Alcotest.fail "aggregated cache stats saw no activity");
  (* Size reports aggregate flavour-wise. *)
  let reports = Xk_index.Sharding.size_reports sharded in
  let agg = Xk_index.Sharding.size_report sharded in
  let sum f = Array.fold_left (fun a r -> a + f r) 0 reports in
  check Alcotest.int "join-based inverted lists aggregate"
    (sum (fun r -> r.Xk_index.Index_sizes.join_based.inverted_lists))
    agg.Xk_index.Index_sizes.join_based.inverted_lists;
  check Alcotest.int "rdil auxiliary aggregate"
    (sum (fun r -> r.Xk_index.Index_sizes.rdil.auxiliary))
    agg.Xk_index.Index_sizes.rdil.auxiliary

(* --- Admission control ------------------------------------------------ *)

module Chaos = Xk_resilience.Chaos

(* A 20-request burst against [max_queue = 1].  Every attempt first waits
   in its chaos hook until the whole burst has been submitted, so the
   first admitted request is still in flight when the others arrive and
   the workers cannot drain the burst before admission sees it. *)
let admission () =
  let doc = Tutil.random_doc 21 in
  let sharded = Xk_index.Sharding.partition ~shards:2 doc in
  let sx = Shard_exec.create ~domains:2 ~max_queue:1 sharded in
  let burst = 20 in
  let latch _ms =
    let t0 = Unix.gettimeofday () in
    while
      (Shard_exec.stats sx).Shard_exec.queries < burst
      && Unix.gettimeofday () -. t0 < 10.
    do
      Unix.sleepf 0.001
    done
  in
  let any = { Chaos.t_shard = None; t_replica = None } in
  Fun.protect
    ~finally:(fun () ->
      Chaos.clear ();
      Shard_exec.shutdown sx)
    (fun () ->
      let rng = Xk_datagen.Rng.create 4 in
      let words = Tutil.random_query rng ~k:2 ~alphabet:26 in
      let reqs =
        List.init burst (fun _ -> Xk_core.Engine.complete_request words)
      in
      Chaos.install ~sleep:latch
        [ Chaos.Slow { target = any; from_tick = 0; ms = 1. } ];
      let outcomes = Shard_exec.exec_batch sx reqs in
      Chaos.clear ();
      let rejected =
        List.length
          (List.filter (fun o -> o = Query_service.Rejected) outcomes)
      in
      let okd =
        List.length
          (List.filter
             (fun o -> match o with Query_service.Ok _ -> true | _ -> false)
             outcomes)
      in
      if rejected = 0 then
        Alcotest.fail "max_queue=1 never rejected a 20-request burst";
      if okd = 0 then Alcotest.fail "admission starved every request";
      let stats = Shard_exec.stats sx in
      check Alcotest.int "rejections counted" rejected stats.Shard_exec.rejected;
      (* The service recovered: a fresh request is admitted. *)
      match Shard_exec.exec sx (Xk_core.Engine.complete_request words) with
      | Query_service.Ok _ -> ()
      | o -> Alcotest.failf "post-burst request came back %s" (pp_outcome o))

(* --- Executor lifecycle on the shared pool ------------------------------ *)

let first_term sharded =
  Xk_index.Index.term (Xk_index.Sharding.index sharded 0) 0

(* A hedged 2-replica executor on the shared pool.  Every attempt sleeps
   in its chaos hook: the first for 100 ms, the second for 150 ms.  The
   hedge fires after 1 ms, so the primary wins and the losing hedge is
   still inside its hook when [exec] returns.  [shutdown] must wait for
   it: once it returns, every hook that started has finished, and no
   hook of this executor starts later. *)
let shutdown_drains_hedges () =
  let sharded = Xk_index.Sharding.partition ~shards:1 (Tutil.random_doc 17) in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  let sleep _ms =
    let n = Atomic.fetch_and_add started 1 in
    Unix.sleepf (if n mod 2 = 0 then 0.1 else 0.15);
    Atomic.incr finished
  in
  let any = { Chaos.t_shard = None; t_replica = None } in
  Chaos.install ~sleep [ Chaos.Slow { target = any; from_tick = 0; ms = 1. } ];
  Fun.protect ~finally:Chaos.clear (fun () ->
      let sx = Shard_exec.create ~replicas:2 ~hedge_delay_ms:1. sharded in
      let req = Xk_core.Engine.complete_request [ first_term sharded ] in
      (match Shard_exec.exec sx req with
      | Query_service.Ok _ -> ()
      | o -> Alcotest.failf "hedged request came back %s" (pp_outcome o));
      let hedges = (Shard_exec.stats sx).Shard_exec.hedges in
      Shard_exec.shutdown sx;
      let ticks = Chaos.tick () and hooks = Atomic.get started in
      check Alcotest.int "every started hook finished" hooks
        (Atomic.get finished);
      Unix.sleepf 0.2;
      check Alcotest.int "no attempt after shutdown" ticks (Chaos.tick ());
      check Alcotest.int "no hook after shutdown" hooks (Atomic.get started);
      (* With one worker the watcher only runs once the primary is done,
         so the hedge cannot fire; with two it must. *)
      if Shard_exec.domains sx >= 2 && hedges = 0 then
        Alcotest.fail "the hedge never fired")

(* Executors on the shared pool are independent: shutting one down
   leaves another answering, with the unsharded engine's hits. *)
let shutdown_leaves_others_serving () =
  let doc = Tutil.random_doc 23 in
  let engine = Xk_core.Engine.create doc in
  let sharded = Xk_index.Sharding.partition ~shards:2 doc in
  let words = [ first_term sharded ] in
  let req = Xk_core.Engine.complete_request words in
  let a = Shard_exec.create sharded and b = Shard_exec.create sharded in
  Fun.protect
    ~finally:(fun () ->
      Shard_exec.shutdown a;
      Shard_exec.shutdown b)
    (fun () ->
      ignore (Shard_exec.exec a req);
      Shard_exec.shutdown a;
      check Alcotest.int "one worker per core"
        (Domain.recommended_domain_count ())
        (Shard_exec.domains b);
      match Shard_exec.exec b req with
      | Query_service.Ok hits ->
          Tutil.check_same_hits "survivor's answer"
            (Xk_core.Engine.query engine words)
            hits
      | o -> Alcotest.failf "survivor came back %s" (pp_outcome o))

let exec_after_shutdown_raises () =
  let sharded = Xk_index.Sharding.partition ~shards:2 (Tutil.random_doc 29) in
  let req = Xk_core.Engine.complete_request [ first_term sharded ] in
  List.iter
    (fun sx ->
      Shard_exec.shutdown sx;
      match Shard_exec.exec sx req with
      | exception Invalid_argument _ -> ()
      | o -> Alcotest.failf "exec after shutdown came back %s" (pp_outcome o))
    [ Shard_exec.create sharded; Shard_exec.create ~domains:1 sharded ]

let suite =
  [
    ( "shard.parity",
      [
        QCheck_alcotest.to_alcotest parity_prop;
        QCheck_alcotest.to_alcotest parity_assignment_prop;
        QCheck_alcotest.to_alcotest partial_prefix_prop;
      ] );
    ( "shard.summary",
      [
        QCheck_alcotest.to_alcotest summary_reference_prop;
        QCheck_alcotest.to_alcotest summary_budget_prop;
        tc "root edge cases" `Quick summary_root_edge_cases;
        tc "live snapshot" `Quick summary_live_snapshot;
      ] );
    ( "shard.structure",
      [
        tc "node mapping round-trips" `Quick mapping_roundtrip;
        tc "root edge cases" `Quick root_edge_cases;
        tc "aggregated stats" `Quick cache_aggregate;
        tc "admission control" `Quick admission;
      ] );
    ( "shard.lifecycle",
      [
        tc "shutdown drains hedges" `Quick shutdown_drains_hedges;
        tc "shutdown leaves others serving" `Quick
          shutdown_leaves_others_serving;
        tc "exec after shutdown raises" `Quick exec_after_shutdown_raises;
      ] );
    ( "shard.io",
      [
        tc "manifest + segments round-trip" `Quick shard_io_roundtrip;
        tc "typed per-shard failures" `Quick shard_io_failures;
        tc "v3 open-path faults" `Quick shard_io_v3_faults;
        tc "replica fallback and loss" `Quick shard_io_replicas;
        tc "committed v1/v2 manifest bytes" `Quick shard_io_legacy_fixtures;
      ] );
  ]

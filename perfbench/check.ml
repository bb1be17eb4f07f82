(* Correctness and paper-ordering gates, run before any timing.  A failed
   gate raises [Bx.Gate_failed]: the run ends without a result line. *)

module Engine = Xk_core.Engine
module Hit = Xk_baselines.Hit

(* Served answers must match the sequential unsharded engine: node-exact
   for complete requests, score-exact for top-K (at equal scores the
   top-K emission order is unspecified).  Returns the reference table. *)
let parity ~what engine (serve : Work.req -> Xk_exec.Query_service.outcome) reqs =
  let refs = Hashtbl.create 256 in
  List.iter
    (fun (q : Work.req) ->
      let k = Work.key q in
      if not (Hashtbl.mem refs k) then begin
        let expected = Work.reference engine q in
        Hashtbl.replace refs k expected;
        let got = serve q in
        match Work.outcome_hits got with
        | Some hits ->
            Bx.gate (Work.hits_equal q expected hits) "%s: {%s} differs from the engine" what k
        | None ->
            Bx.gate false "%s: {%s} answered %s" what k
              (Xk_exec.Query_service.outcome_label got)
      end)
    reqs;
  refs

let score_tolerance = 1e-9

let close a b = Float.abs (a -. b) < score_tolerance

(* The engine against the definitional oracle, for a sample of requests:
   the same nodes and scores for complete requests, the oracle's best-K
   scores for top-K. *)
let oracle ~what engine (reqs : Work.req list) =
  List.iter
    (fun (q : Work.req) ->
      let words = Work.words_of q in
      let semantics = q.r.Engine.req_semantics in
      let truth = Engine.query ~semantics ~algorithm:Engine.Oracle engine words in
      let got = Engine.run_request engine q.r in
      let ok =
        match q.cls with
        | Work.Complete ->
            let a = List.sort Hit.compare_node truth and b = List.sort Hit.compare_node got in
            List.length a = List.length b
            && List.for_all2 (fun (x : Hit.t) (y : Hit.t) -> x.node = y.node && close x.score y.score) a b
        | Work.Topk ->
            let best = List.map (fun (h : Hit.t) -> h.score) (Hit.top_k 10 truth) in
            let scores = List.map (fun (h : Hit.t) -> h.score) got in
            List.length best = List.length scores && List.for_all2 close best scores
      in
      Bx.gate ok "%s: {%s} differs from the oracle" what (Work.key q))
    reqs

(* Median wall time (ms) of [f] over [runs] runs after one warm-up run. *)
let time_ms ~runs f =
  ignore (f ());
  let ts = Array.init runs (fun _ ->
    let t0 = Bx.now () in
    ignore (f ());
    Bx.ms_since t0)
  in
  Bx.median ts

(* The paper's orderings, as same-run ratios on this corpus:
   - Fig. 9: the join-based algorithm beats the indexed-lookup baseline
     on complete ELCA for k = 3 keywords at low frequency 1000 (high =
     the corpus maximum); reported as indexed / join;
   - Fig. 10(b): top-K join beats complete-then-sort on the correlated
     DBLP sets {cpa1 cpb1} and {cpa3 cpb3}; reported as the smaller of
     the two complete / top-K ratios.
   Either ratio at or below 1 fails the run. *)
let paper_orderings ~seed engine =
  let idx = Engine.index engine in
  let rng = Xk_datagen.Rng.create (seed + 9) in
  let high = Xk_workload.Workload.max_df idx in
  let qs = Xk_workload.Workload.random_queries rng idx ~k:3 ~high ~low:1000 ~n:6 in
  let total algorithm =
    List.fold_left
      (fun acc q ->
        acc
        +. time_ms ~runs:3 (fun () -> Engine.query ~algorithm engine q))
      0. qs
  in
  let join = total Engine.Join_based in
  let indexed = total Engine.Index_based in
  let fig9 = indexed /. join in
  let fig10 =
    List.fold_left
      (fun acc q ->
        let tk = time_ms ~runs:5 (fun () -> Engine.query_topk ~algorithm:Engine.Topk_join engine q ~k:10) in
        let cs =
          time_ms ~runs:5 (fun () ->
              Engine.query_topk ~algorithm:Engine.Complete_then_sort engine q ~k:10)
        in
        Float.min acc (cs /. tk))
      infinity
      [ [ "cpa1"; "cpb1" ]; [ "cpa3"; "cpb3" ] ]
  in
  Bx.log "paper orderings: fig9 indexed/join %.2f (join %.2f ms, indexed %.2f ms), fig10 complete/topk %.2f"
    fig9 join indexed fig10;
  Bx.gate (fig9 > 1.) "Fig. 9 ordering flipped: indexed/join = %.3f" fig9;
  Bx.gate (fig10 > 1.) "Fig. 10(b) ordering flipped: complete/topk = %.3f" fig10;
  (fig9, fig10)

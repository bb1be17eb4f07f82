(* Hybrid index discussion of Section V-D: with both the JDewey-ordered
   and the score-ordered lists available, choose the top-K join or the
   complete join from join-cardinality estimation - "the top-K algorithm
   should only be used when the result size is estimated to be large".

   The estimator is the textbook equi-join cardinality over per-level key
   domains: at level l with W_l nodes, the expected number of matched
   values is prod_i |C_i(l)| / W_l^(k-1), where |C_i(l)| is the number of
   distinct JDewey numbers (runs) list i has at level l.  The per-level
   estimates are summed; keyword correlation shows up directly as the
   ratio of actual to independent co-occurrence, so correlated keywords
   yield large estimates and route to the top-K join, matching Figure 10's
   crossover. *)

let estimate_results (lists : Xk_index.Jlist.t array) ~level_width =
  let k = Array.length lists in
  if k = 0 || Array.exists (fun jl -> Xk_index.Jlist.length jl = 0) lists then 0.
  else begin
    let lmin =
      Array.fold_left (fun m jl -> min m (Xk_index.Jlist.max_len jl)) max_int
        lists
    in
    let total = ref 0. in
    for l = 1 to lmin do
      let w = float_of_int (max 1 (level_width l)) in
      let est = ref 1. in
      Array.iter
        (fun jl ->
          let c = Xk_index.Jlist.column jl ~level:l in
          est := !est *. float_of_int (Xk_index.Column.num_runs c))
        lists;
      total := !total +. (!est /. (w ** float_of_int (k - 1)))
    done;
    !total
  end

type choice = Use_topk | Use_complete

(* Prefer the top-K join only when the expected result count comfortably
   exceeds K.  Below that it cannot stop early: every column ends in the
   same level join the complete evaluation runs, after the sorted accesses
   and bucket work that found nothing to emit, so the complete join is the
   cheaper route. *)
let default_margin = 4.

let choose ?(margin = default_margin) (lists : Xk_index.Jlist.t array)
    ~level_width ~k:want =
  let est = estimate_results lists ~level_width in
  if est >= margin *. float_of_int want then Use_topk else Use_complete

let topk ?stats ?margin ?(semantics = Join_query.Elca) ?budget
    (slists : Xk_index.Score_list.t array) damping ~level_width ~k:want :
    Join_query.hit list =
  let jls = Array.map Xk_index.Score_list.jlist slists in
  match choose ?margin jls ~level_width ~k:want with
  | Use_topk ->
      Topk_keyword.topk ?stats ~semantics ?budget slists damping ~k:want
  | Use_complete -> (
      (* The complete route has no confirmed prefix mid-run; on expiry the
         anytime contract degrades to the empty partial result. *)
      match Join_query.run ?budget jls damping semantics with
      | exception Xk_resilience.Budget.Expired -> []
      | all ->
          let sorted =
            List.sort
              (fun (a : Join_query.hit) b ->
                let c = Float.compare b.score a.score in
                if c <> 0 then c
                else
                  let c = Int.compare a.level b.level in
                  if c <> 0 then c else Int.compare a.value b.value)
              all
          in
          List.filteri (fun i _ -> i < want) sorted)

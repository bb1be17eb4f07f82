(* Algorithm 1: the join-based evaluation of complete ELCA/SLCA result
   sets (Sections III-B through III-F).

   Columns are joined bottom-up, from the deepest level every list reaches
   up to the root.  A matched JDewey number N at level l:

   - ELCA: is a result iff every list still has an un-erased row inside
     N's run (the |Ak| > |B2| + |B3| range check of Section III-E);
   - SLCA: is a result iff no run of N contains an erased row (Section
     III-F's ancestor pruning);

   and either way N's full runs are erased from every list, implementing
   the exclusion of subtrees that already contain all keywords. *)

type semantics = Elca | Slca

type hit = { level : int; value : int; score : float }

let max_alive_damped (jl : Xk_index.Jlist.t) damping (erased : Erased.t)
    (run : Xk_index.Column.run) ~level =
  let best = ref neg_infinity in
  Erased.iter_alive erased ~lo:run.start_row ~hi:(run.start_row + run.count)
    (fun lo hi ->
      for r = lo to hi - 1 do
        let v =
          Xk_index.Jlist.score jl r
          *. Xk_score.Damping.apply damping (Xk_index.Jlist.row_len jl r - level)
        in
        if v > !best then best := v
      done);
  !best

let max_damped (jl : Xk_index.Jlist.t) damping (run : Xk_index.Column.run)
    ~level =
  let best = ref neg_infinity in
  for r = run.start_row to run.start_row + run.count - 1 do
    let v =
      Xk_index.Jlist.score jl r
      *. Xk_score.Damping.apply damping (Xk_index.Jlist.row_len jl r - level)
    in
    if v > !best then best := v
  done;
  !best

(* SLCA's ancestor pruning (Section III-F): a run holding a row erased by a
   deeper match witnesses a strict descendant that contains every keyword. *)
let run_clean (erased : Erased.t) (r : Xk_index.Column.run) =
  Erased.covered erased ~lo:r.start_row ~hi:(r.start_row + r.count) = 0

let match_score (lists : Xk_index.Jlist.t array) damping
    (erased : Erased.t array) semantics (m : Level_join.match_) ~level =
  let k = Array.length lists in
  match semantics with
  | Elca ->
      (* Range check: every list needs an alive row in N's run. *)
      let score = ref 0. and ok = ref true in
      for i = 0 to k - 1 do
        if !ok then begin
          let best =
            max_alive_damped lists.(i) damping erased.(i) m.runs.(i) ~level
          in
          if best = neg_infinity then ok := false
          else score := !score +. best
        end
      done;
      if !ok then !score else neg_infinity
  | Slca ->
      if Array.for_all2 run_clean erased m.runs then begin
        let score = ref 0. in
        for i = 0 to k - 1 do
          score := !score +. max_damped lists.(i) damping m.runs.(i) ~level
        done;
        !score
      end
      else neg_infinity

(* The exclusion: erase every match's full runs from every list, in one
   batch per list (matches arrive in ascending row order). *)
let exclude (erased : Erased.t array) (matches : Level_join.match_ list) =
  let kills = Array.make (Array.length erased) [] in
  List.iter
    (fun (m : Level_join.match_) ->
      Array.iteri
        (fun i (r : Xk_index.Column.run) ->
          kills.(i) <- (r.start_row, r.start_row + r.count) :: kills.(i))
        m.runs)
    matches;
  Array.iteri (fun i e -> Erased.add_batch e (List.rev kills.(i))) erased

let run ?(plan = Level_join.Dynamic) ?join_stats
    ?(budget = Xk_resilience.Budget.unlimited)
    (lists : Xk_index.Jlist.t array) damping semantics : hit list =
  let k = Array.length lists in
  if k = 0 then Xk_util.Err.invalid "Join_query.run: no lists";
  if Array.exists (fun jl -> Xk_index.Jlist.length jl = 0) lists then []
  else begin
    let lmin =
      Array.fold_left (fun m jl -> min m (Xk_index.Jlist.max_len jl)) max_int
        lists
    in
    let erased = Array.init k (fun _ -> Erased.create ()) in
    let out = ref [] in
    for level = lmin downto 1 do
      let cols = Array.map (fun jl -> Xk_index.Jlist.column jl ~level) lists in
      let matches = Level_join.join ?stats:join_stats ~budget ~plan cols in
      (* Exclusions of this level are applied in one batch once the level's
         matches are scored (Section III-E); matches at one level never
         share rows, so checks within the level only depend on deeper
         levels. *)
      List.iter
        (fun (m : Level_join.match_) ->
          Xk_resilience.Budget.check budget;
          let score = match_score lists damping erased semantics m ~level in
          if score > neg_infinity then
            out := { level; value = m.value; score } :: !out)
        matches;
      exclude erased matches
    done;
    List.rev !out
  end

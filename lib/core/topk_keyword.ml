(* Join-based top-K keyword search (Section IV-C).

   Inverted lists are read in descending damped-score order: per list, rows
   are grouped by sequence length (Figure 7) and the column order is
   recovered by merging the group cursors (within a group the damping
   factor is a common constant, so the local-score order is the damped
   order at every level).

   Columns are processed bottom-up, each through the top-K star join of
   Section IV-B: pulled entries land in a hash bucket keyed by the JDewey
   number, a value whose k slots fill becomes a generated result, and
   generated results are emitted as soon as their score reaches the
   threshold of all unseen results - the star-join bound within the
   current column combined with the static per-column ceilings of the
   shallower columns (including the paper's column-skip rule, which the
   precomputed ceilings implement implicitly) and a dynamic ceiling over
   the rows still alive.

   A column stops pulling as soon as one list's cursors drain: from then
   on only values with an alive row in that list can complete, and with
   both orders of every list at hand (the hybrid setting of Section V-D)
   they are exactly the matches of the level's JDewey star join (Section
   III-B/C), which the dynamic plan finds at the cost of the shortest
   column.  The column is finished from that match list - every value not
   yet generated is scored as Algorithm 1 scores it - and the same list
   then applies the range exclusion of Section III-E before the next
   column starts.  So a column costs its shortest list, not a scan of the
   longest one; a column that ends early, because the K results were
   emitted, needs no join at all.

   Semantic pruning: cursors start at each group's first alive row (see
   {!frontier}) and skip rows erased at deeper levels. *)

type threshold = Classic | Tight

type stats = {
  mutable pulled : int;
  mutable dead_skipped : int;
  mutable columns : int;
  mutable generated : int;
  mutable early_exit_level : int; (* 0 when every column was processed *)
}

let new_stats () =
  { pulled = 0; dead_skipped = 0; columns = 0; generated = 0; early_exit_level = 0 }

type hit = Join_query.hit = { level : int; value : int; score : float }

type semantics = Join_query.semantics = Elca | Slca

type cursor = {
  rows : int array;
  dfactor : float; (* d(group_len - level) *)
  mutable pos : int;
}

type entry = { slots : float array; mutable mask : int; mutable filled : int }

(* The alive-row frontier: per list and per score-ordered group, the
   position of the group's first un-erased row.  Rows are in descending
   local score within a group and erasure only grows during a query, so
   each position only moves forward - over the whole query every row is
   passed at most once. *)
type frontier = { lists : Xk_index.Score_list.t array; first : int array array }

let frontier slists =
  {
    lists = slists;
    first =
      Array.map
        (fun sl -> Array.make (Array.length (Xk_index.Score_list.groups sl)) 0)
        slists;
  }

let advance f (erased : Erased.t array) =
  Array.iteri
    (fun i sl ->
      let first = f.first.(i) in
      Array.iteri
        (fun gi (g : Xk_index.Score_list.group) ->
          let p = ref first.(gi) in
          while
            !p < Array.length g.rows && Erased.is_dead erased.(i) g.rows.(!p)
          do
            incr p
          done;
          first.(gi) <- !p)
        (Xk_index.Score_list.groups sl))
    f.lists

(* A group's best damped score at any column <= level is its first alive
   row's, times the group's constant damping factor at the column closest
   to its depth: the factor is positive, so it keeps the row order, and
   the maximum over the groups is the maximum over every alive row. *)
let ceiling f damping ~level =
  let total = ref 0. and any_empty = ref false in
  Array.iteri
    (fun i sl ->
      let jl = Xk_index.Score_list.jlist sl in
      let best = ref neg_infinity in
      Array.iteri
        (fun gi (g : Xk_index.Score_list.group) ->
          let p = f.first.(i).(gi) in
          if p < Array.length g.rows then begin
            let v =
              Xk_index.Jlist.score jl g.rows.(p)
              *. Xk_score.Damping.apply damping (max 0 (g.len - level))
            in
            if v > !best then best := v
          end)
        (Xk_index.Score_list.groups sl);
      if !best = neg_infinity then any_empty := true
      else total := !total +. !best)
    f.lists;
  if !any_empty then neg_infinity else !total

let topk ?stats ?(threshold = Tight) ?(semantics = Elca)
    ?(budget = Xk_resilience.Budget.unlimited)
    (slists : Xk_index.Score_list.t array) damping ~k:want : hit list =
  let stats = match stats with Some s -> s | None -> new_stats () in
  let k = Array.length slists in
  if k = 0 then Xk_util.Err.invalid "Topk_keyword.topk: no lists";
  let jls = Array.map Xk_index.Score_list.jlist slists in
  if Array.exists (fun jl -> Xk_index.Jlist.length jl = 0) jls then []
  else begin
    let lmin =
      Array.fold_left (fun m jl -> min m (Xk_index.Jlist.max_len jl)) max_int
        jls
    in
    (* Static per-column ceilings: up(l) = sum_i ms_i(l); up_prefix(l) =
       max_{l' <= l} up(l') bounds every result of columns 1..l. *)
    let up = Array.make (lmin + 1) neg_infinity in
    for level = 1 to lmin do
      let s = ref 0. in
      Array.iter
        (fun sl ->
          s := !s +. Xk_index.Score_list.max_damped sl ~level)
        slists;
      up.(level) <- !s
    done;
    let up_prefix = Array.make (lmin + 1) neg_infinity in
    for level = 1 to lmin do
      up_prefix.(level) <- Float.max up_prefix.(level - 1) up.(level)
    done;
    let erased = Array.init k (fun _ -> Erased.create ()) in
    let front = frontier slists in
    let blocked : hit Xk_util.Heap.t = Xk_util.Heap.create () in
    let out = ref [] and emitted = ref 0 in
    let finished = ref false in
    let level = ref lmin in
    (* Anytime execution: the budget is polled at column entry, on every
       pull and per match of a column's finish; once it trips, the loops
       unwind and the results already emitted - each confirmed against the
       unseen-results threshold - are returned as a valid prefix of the
       full top-K. *)
    while not !finished && !level >= 1 && Xk_resilience.Budget.alive budget do
      let l = !level in
      stats.columns <- stats.columns + 1;
      advance front erased;
      (* Dynamic refinement of the cross-column ceilings: with the
         exclusions applied so far, no future result can beat the sum of
         the per-list best damped scores over still-alive rows (each row
         peaks at the future column closest to its own depth).  The static
         ceilings ignore erasure; on correlated data almost everything
         below the current column is already dead and this bound collapses
         right after the deepest column - which is what lets the top-K
         join stop early where the complete join keeps scanning. *)
      let dyn_below =
        if l <= 1 then neg_infinity else ceiling front damping ~level:(l - 1)
      in
      (* Fresh cursors: every group of length >= l participates, starting
         at its first alive row. *)
      let cursors =
        Array.mapi
          (fun i sl ->
            let cs = ref [] in
            Array.iteri
              (fun gi (g : Xk_index.Score_list.group) ->
                if g.len >= l then
                  cs :=
                    {
                      rows = g.rows;
                      dfactor = Xk_score.Damping.apply damping (g.len - l);
                      pos = front.first.(i).(gi);
                    }
                    :: !cs)
              (Xk_index.Score_list.groups sl);
            Array.of_list (List.rev !cs))
          slists
      in
      (* Best cursor per list (highest next damped score), cached and
         refreshed only for the list just pulled from - this sits on the
         per-pull hot path. *)
      let cbest = Array.make k (-1) in
      let cscore = Array.make k neg_infinity in
      let refresh i =
        let best = ref (-1) and bs = ref neg_infinity in
        Array.iteri
          (fun ci c ->
            if c.pos < Array.length c.rows then begin
              let s = Xk_index.Jlist.score jls.(i) c.rows.(c.pos) *. c.dfactor in
              if s > !bs then begin
                bs := s;
                best := ci
              end
            end)
          cursors.(i);
        cbest.(i) <- !best;
        cscore.(i) <- !bs
      in
      for i = 0 to k - 1 do
        refresh i
      done;
      let list_next i = cscore.(i) in
      let bucket : (int, entry) Hashtbl.t = Hashtbl.create 256 in
      (* Values already generated this column: a value can recur in a
         cursor stream (several occurrences per list), and must not be
         generated twice. *)
      let completed : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      let group_max = Array.make (1 lsl k) neg_infinity in
      let column_threshold () =
        match threshold with
        | Classic ->
            (* HRJN-style: one advancing cursor, static maxima elsewhere. *)
            let best = ref neg_infinity in
            for i = 0 to k - 1 do
              let s = list_next i in
              if s > neg_infinity then begin
                let t = ref s in
                for j = 0 to k - 1 do
                  if j <> i then
                    t := !t +. Xk_index.Score_list.max_damped slists.(j) ~level:l
                done;
                if !t > !best then best := !t
              end
            done;
            !best
        | Tight ->
            let case1 = ref 0. in
            for j = 0 to k - 1 do
              case1 := !case1 +. list_next j
            done;
            let best = ref !case1 in
            for p = 1 to (1 lsl k) - 2 do
              if group_max.(p) > neg_infinity then begin
                let t = ref group_max.(p) in
                for j = 0 to k - 1 do
                  if p land (1 lsl j) = 0 then t := !t +. list_next j
                done;
                if !t > !best then best := !t
              end
            done;
            !best
      in
      let below_bound =
        if l > 1 then Float.min up_prefix.(l - 1) dyn_below else neg_infinity
      in
      let generate (h : hit) =
        stats.generated <- stats.generated + 1;
        Xk_util.Heap.push blocked h.score h
      in
      let global_threshold () = Float.max (column_threshold ()) below_bound in
      let flush () =
        let rec go () =
          if !emitted < want then
            match Xk_util.Heap.peek blocked with
            | Some (score, h) when score >= global_threshold () ->
                ignore (Xk_util.Heap.pop blocked);
                out := h :: !out;
                incr emitted;
                go ()
            | Some _ | None -> ()
        in
        go ()
      in
      let drained () = Array.exists (fun b -> b < 0) cbest in
      let rr = ref 0 in
      while
        !emitted < want && (not (drained ())) && Xk_resilience.Budget.alive budget
      do
        (* List choice (Section IV-B): round-robin until K results are
           generated, then the list with the highest next score. *)
        let i =
          if !emitted + Xk_util.Heap.size blocked < want then begin
            let i = !rr mod k in
            incr rr;
            i
          end
          else begin
            let best = ref 0 in
            for j = 1 to k - 1 do
              if cscore.(j) > cscore.(!best) then best := j
            done;
            !best
          end
        in
        let c = cursors.(i).(cbest.(i)) in
        let row = c.rows.(c.pos) in
        c.pos <- c.pos + 1;
        refresh i;
        stats.pulled <- stats.pulled + 1;
        if Erased.is_dead erased.(i) row then
          stats.dead_skipped <- stats.dead_skipped + 1
        else begin
          let value = (Xk_index.Jlist.seq jls.(i) row).(l - 1) in
          if not (Hashtbl.mem completed value) then begin
            let e =
              match Hashtbl.find_opt bucket value with
              | Some e -> e
              | None ->
                  let e =
                    { slots = Array.make k neg_infinity; mask = 0; filled = 0 }
                  in
                  Hashtbl.add bucket value e;
                  e
            in
            if e.slots.(i) = neg_infinity then begin
              e.slots.(i) <- Xk_index.Jlist.score jls.(i) row *. c.dfactor;
              e.mask <- e.mask lor (1 lsl i);
              e.filled <- e.filled + 1;
              if e.filled = k then begin
                let total = Array.fold_left ( +. ) 0. e.slots in
                Hashtbl.remove bucket value;
                Hashtbl.add completed value ();
                (* A pulled row is alive, so an ELCA's range check already
                   holds; an SLCA must also have no erased row in any run. *)
                let accept =
                  match semantics with
                  | Elca -> true
                  | Slca ->
                      let clean = ref true in
                      Array.iteri
                        (fun j jl ->
                          match
                            Xk_index.Column.find
                              (Xk_index.Jlist.column jl ~level:l)
                              value
                          with
                          | Some r ->
                              if not (Join_query.run_clean erased.(j) r) then
                                clean := false
                          | None -> clean := false)
                        jls;
                      !clean
                in
                if accept then generate { level = l; value; score = total }
              end
              else begin
                let partial = ref 0. in
                Array.iter
                  (fun v -> if v > neg_infinity then partial := !partial +. v)
                  e.slots;
                if !partial > group_max.(e.mask) then
                  group_max.(e.mask) <- !partial
              end
            end
          end
        end;
        flush ()
      done;
      (* A list drained: only values with an alive row in it can still
         complete, and those are the matches of the level join.  Every
         match not generated yet is scored as Algorithm 1 scores it, the
         column's cursors are closed and the blocked results are flushed
         against the shallower columns' ceiling alone; the same matches
         then apply the range exclusion before moving up.  The join and
         the scoring are budgeted: on expiry nothing more is flushed, the
         kills are discarded and the outer loop unwinds with the
         confirmed results. *)
      let rec finish = function
        | [] -> true
        | (m : Level_join.match_) :: rest ->
            Xk_resilience.Budget.alive budget
            && begin
                 if not (Hashtbl.mem completed m.value) then begin
                   let score =
                     Join_query.match_score jls damping erased semantics m
                       ~level:l
                   in
                   if score > neg_infinity then
                     generate { level = l; value = m.value; score }
                 end;
                 finish rest
               end
      in
      let finished_matches =
        if !emitted >= want || Xk_resilience.Budget.exhausted budget then None
        else
          let cols =
            Array.map (fun jl -> Xk_index.Jlist.column jl ~level:l) jls
          in
          match Level_join.join ~budget ~plan:Level_join.Dynamic cols with
          | exception Xk_resilience.Budget.Expired -> None
          | matches when finish matches ->
              Array.fill cscore 0 k neg_infinity;
              flush ();
              Some matches
          | _ -> None
      in
      if !emitted >= want then begin
        stats.early_exit_level <- l;
        finished := true
      end
      else
        Option.iter
          (fun matches ->
            Join_query.exclude erased matches;
            level := l - 1)
          finished_matches
    done;
    (* All columns processed: no unseen results remain - but a tripped
       budget means blocked results were never confirmed, so they stay
       unemitted and the prefix property is preserved. *)
    while
      !emitted < want
      && not (Xk_util.Heap.is_empty blocked)
      && not (Xk_resilience.Budget.exhausted budget)
    do
      match Xk_util.Heap.pop blocked with
      | Some (_, h) ->
          out := h :: !out;
          incr emitted
      | None -> ()
    done;
    List.rev !out
  end

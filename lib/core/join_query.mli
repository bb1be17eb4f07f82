(** Algorithm 1: join-based evaluation of the complete ELCA / SLCA result
    set (paper Sections III-B..III-F), bottom-up over JDewey columns with
    range-checked exclusion. *)

type semantics = Elca | Slca

type hit = {
  level : int;  (** tree depth of the result node (1 = root) *)
  value : int;  (** its JDewey number at that depth *)
  score : float;
}

val max_alive_damped :
  Xk_index.Jlist.t ->
  Xk_score.Damping.t ->
  Erased.t ->
  Xk_index.Column.run ->
  level:int ->
  float
(** Best damped local score among the un-erased rows of a run -
    [neg_infinity] when none survive (the |Ak| > |B2|+|B3| range check). *)

val run_clean : Erased.t -> Xk_index.Column.run -> bool
(** SLCA's ancestor pruning: [true] iff the run contains no erased row.  A
    value is an SLCA iff its run in every list is clean. *)

val match_score :
  Xk_index.Jlist.t array ->
  Xk_score.Damping.t ->
  Erased.t array ->
  semantics ->
  Level_join.match_ ->
  level:int ->
  float
(** The result score of a level-[level] match under the exclusions applied
    so far: per list the best damped witness, summed in list order from
    [0.] - or [neg_infinity] when the match is not a result (ELCA: some
    list has no alive row in its run; SLCA: some run is not
    {!run_clean}).  The one result check shared by {!run} and the top-K
    join's column finish. *)

val exclude : Erased.t array -> Level_join.match_ list -> unit
(** The range exclusion of a level: erase every match's full runs.  The
    matches must be ascending, as {!Level_join.join} returns them. *)

val run :
  ?plan:Level_join.plan ->
  ?join_stats:Level_join.stats ->
  ?budget:Xk_resilience.Budget.t ->
  Xk_index.Jlist.t array ->
  Xk_score.Damping.t ->
  semantics ->
  hit list
(** All results, deepest level first; scores follow Section II-B (per
    keyword the best damped non-excluded witness, summed).  Raises
    {!Xk_resilience.Budget.Expired} if the budget runs out: a complete
    result set has no valid partial prefix. *)

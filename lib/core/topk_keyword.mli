(** Join-based top-K keyword search (paper Section IV-C): score-ordered
    length-grouped columns, a per-column top-K star join, cross-column
    ceilings (static, plus a dynamic alive-row refinement kept
    incrementally by a {!frontier}), and the range-checked exclusion.

    A column pulls in score order only until one list's cursors drain;
    the level's JDewey star join ({!Level_join}, dynamic plan) then
    finishes it: the remaining results are exactly its matches, scored by
    {!Join_query.match_score}, and the same matches apply the exclusion.
    A column therefore costs about its shortest list. *)

type threshold = Classic | Tight

type semantics = Join_query.semantics = Elca | Slca

type hit = Join_query.hit = { level : int; value : int; score : float }

type stats = {
  mutable pulled : int;        (** sorted accesses (including dead rows) *)
  mutable dead_skipped : int;  (** erased rows encountered by cursors *)
  mutable columns : int;       (** columns entered *)
  mutable generated : int;     (** results completed in the bucket *)
  mutable early_exit_level : int;
      (** the level at which K results were out (0 = ran to the root) *)
}

val new_stats : unit -> stats

val topk :
  ?stats:stats ->
  ?threshold:threshold ->
  ?semantics:semantics ->
  ?budget:Xk_resilience.Budget.t ->
  Xk_index.Score_list.t array ->
  Xk_score.Damping.t ->
  k:int ->
  hit list
(** The K best results, best first, identical (up to ties) to running
    {!Join_query.run} and keeping the K top scores - property-tested in
    [test/test_core.ml].

    Anytime: every emitted result was confirmed against the
    unseen-results threshold, so when the budget expires mid-run the
    function returns early with the results emitted so far - a valid
    prefix of the full top-K under the same scores (never raises
    [Budget.Expired]).  Use [Budget.exhausted] to detect the partial
    case. *)

(** {2 Alive-row frontier}

    The dynamic ceiling's state, exposed for tests: per list and per
    score-ordered group, the position of the group's first alive row.
    Positions only move forward, since erasure only grows within a query. *)

type frontier

val frontier : Xk_index.Score_list.t array -> frontier
(** Every position at its group's first row. *)

val advance : frontier -> Erased.t array -> unit
(** Move every position past the erased rows at its group's head; the
    erased sets are aligned with the lists and must only have grown since
    the previous call. *)

val ceiling : frontier -> Xk_score.Damping.t -> level:int -> float
(** The bound on any result of columns [1..level] under the erasure the
    frontier was last advanced to: per list the best alive row's score,
    damped to the column closest to its depth, summed in list order from
    [0.] - [neg_infinity] when some list has no alive row.  Bit-identical
    to the maximum over a full rescan of every alive row. *)

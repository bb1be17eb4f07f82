(** Concurrent query serving: one shared {!Xk_core.Engine.t}, one
    {!Xk_util.Domain_pool} handle, batches of heterogeneous requests
    executed in parallel.

    Sharing is safe because the engine's only mutable query-path state —
    the index's per-term shape caches — sits behind sharded locks
    ({!Xk_index.Shard_cache}); every [Ok] result is bit-identical to the
    sequential {!Xk_core.Engine.query_batch} on the same batch.
    [exec_batch] may itself be called concurrently from several client
    domains: their requests interleave on the pool.

    Resilience: every request resolves to an {!outcome}.  Exceptions
    raised by a request (including injected faults) are captured with
    their backtrace and delivered as [Failed] — worker domains never die
    and the service stays usable.  Deadlines degrade anytime top-K
    requests to [Partial] prefixes; complete evaluations report
    [Timeout].  With [max_queue] set, requests beyond the in-flight bound
    are refused up front as [Rejected]. *)

type t

(** Per-request result of a batch execution. *)
type outcome =
  | Ok of Xk_baselines.Hit.t list  (** ran to completion *)
  | Partial of Xk_baselines.Hit.t list
      (** deadline expired; a confirmed prefix of the full top-K *)
  | Degraded of {
      hits : Xk_baselines.Hit.t list;
          (** confirmed prefix over the reachable shards only *)
      missing_shards : int list;  (** shards whose replicas all failed *)
      coverage : float;  (** fraction of top-level subtrees reachable *)
    }
      (** replicated serving lost at least one whole shard; the missing
          shards' upper bounds are pinned to [+inf], so every reported
          hit is provably in the true top-K {e of the reachable data}
          and no full-corpus confirmation is claimed *)
  | Timeout  (** deadline expired with no partial result available *)
  | Rejected  (** refused by admission control, never executed *)
  | Failed of { message : string; backtrace : string }
      (** the request raised; the worker survived *)

val hits : outcome -> Xk_baselines.Hit.t list
(** The hits carried by [Ok]/[Partial]/[Degraded]; [[]] otherwise. *)

val is_failure : outcome -> bool
(** [true] only for [Failed] — the hard-failure predicate used for exit
    codes (timeouts, rejections and degraded service are service
    policy, not errors). *)

val outcome_label : outcome -> string
(** ["ok"], ["partial"], ["degraded"], ["timeout"], ["rejected"] or
    ["failed"]. *)

val create : ?domains:int -> ?max_queue:int -> Xk_core.Engine.t -> t
(** A service over the engine.  Without [domains], requests run on a
    handle on the process-wide pool ({!Xk_util.Domain_pool.shared}): one
    worker per core, since the caller only blocks in [exec_batch].  The
    workers are spawned by the first job of the process, so creating a
    service spawns no domain.  [domains] gives the service a private
    pool of that many workers instead.  [max_queue] bounds the number
    of admitted in-flight requests (queued + executing); absent means
    unbounded.  Raises [Invalid_argument] when [max_queue < 1]. *)

val engine : t -> Xk_core.Engine.t
val domains : t -> int

val exec_batch :
  ?deadline_ms:float ->
  t ->
  Xk_core.Engine.request list ->
  outcome list
(** Execute every request on the pool and return outcomes in request
    order.  Blocks until the whole batch settles.  [deadline_ms] applies
    per request, to each one that does not carry its own
    [req_deadline_ms]; the clock starts at admission, so queueing time
    counts against it. *)

val exec_batch_hits :
  ?deadline_ms:float ->
  t ->
  Xk_core.Engine.request list ->
  Xk_baselines.Hit.t list list
(** [exec_batch] projected through {!hits} — convenience for callers that
    only care about successful results. *)

type stats = {
  domains : int;
  batches : int;  (** [exec_batch] calls so far *)
  queries : int;  (** individual requests received (admitted or not) *)
  completed : int;  (** requests that finished [Ok] *)
  partials : int;  (** requests degraded to [Partial] *)
  timeouts : int;  (** requests that report [Timeout] *)
  rejected : int;  (** requests refused by admission control *)
  failed : int;  (** requests that raised ([Failed]) *)
  max_queue : int option;  (** the admission bound, if any *)
  cache : Xk_index.Shard_cache.stats;
      (** hit/miss/eviction counters of the engine's shape caches *)
}

val stats : t -> stats

val shutdown : t -> unit
(** Close the service and return once every request it submitted has
    run.  A private pool's workers are joined; the shared workers keep
    serving.  A later {!exec_batch} raises [Invalid_argument]. *)

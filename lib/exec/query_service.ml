(* Batched parallel query execution over one shared engine.  Each request
   becomes one pool job; futures preserve request order, so the output is
   positionally identical to the sequential Engine.query_batch reference.

   Resilience: every request comes back as an [outcome] rather than a bare
   hit list.  A job that raises is delivered as [Failed] (the worker domain
   survives); budget expiry surfaces as [Partial] (anytime top-K) or
   [Timeout]; when [max_queue] is set, requests beyond the in-flight bound
   are turned away as [Rejected] without ever reaching the pool. *)

type outcome =
  | Ok of Xk_baselines.Hit.t list
  | Partial of Xk_baselines.Hit.t list
  | Degraded of {
      hits : Xk_baselines.Hit.t list;
      missing_shards : int list;
      coverage : float;
    }
  | Timeout
  | Rejected
  | Failed of { message : string; backtrace : string }

let hits = function
  | Ok hs | Partial hs | Degraded { hits = hs; _ } -> hs
  | Timeout | Rejected | Failed _ -> []

let is_failure = function Failed _ -> true | _ -> false

let outcome_label = function
  | Ok _ -> "ok"
  | Partial _ -> "partial"
  | Degraded _ -> "degraded"
  | Timeout -> "timeout"
  | Rejected -> "rejected"
  | Failed _ -> "failed"

type stats = {
  domains : int;
  batches : int;
  queries : int;
  completed : int;
  partials : int;
  timeouts : int;
  rejected : int;
  failed : int;
  max_queue : int option;
  cache : Xk_index.Shard_cache.stats;
}

type t = {
  engine : Xk_core.Engine.t;
  pool : Xk_util.Domain_pool.t;
  max_queue : int option;
  in_flight : int Atomic.t;
  batches : int Atomic.t;
  queries : int Atomic.t;
  completed : int Atomic.t;
  partials : int Atomic.t;
  timeouts : int Atomic.t;
  rejected : int Atomic.t;
  failed : int Atomic.t;
}

let create ?domains ?max_queue engine =
  (match max_queue with
  | Some m when m < 1 -> Xk_util.Err.invalid "Query_service.create: max_queue < 1"
  | _ -> ());
  {
    engine;
    pool =
      (match domains with
      | Some domains -> Xk_util.Domain_pool.create ~domains ()
      | None -> Xk_util.Domain_pool.shared ());
    max_queue;
    in_flight = Atomic.make 0;
    batches = Atomic.make 0;
    queries = Atomic.make 0;
    completed = Atomic.make 0;
    partials = Atomic.make 0;
    timeouts = Atomic.make 0;
    rejected = Atomic.make 0;
    failed = Atomic.make 0;
  }

let engine t = t.engine
let domains t = Xk_util.Domain_pool.size t.pool

(* Admission: count the request in-flight; turn it away when the bound is
   already met.  The increment-then-check order means a racing admit can
   momentarily overshoot the bound by the number of concurrent submitters,
   never by more. *)
let admit t =
  let n = Atomic.fetch_and_add t.in_flight 1 in
  match t.max_queue with
  | Some m when n >= m ->
      Atomic.decr t.in_flight;
      false
  | _ -> true

let exec_batch ?deadline_ms t (reqs : Xk_core.Engine.request list) =
  Atomic.incr t.batches;
  ignore (Atomic.fetch_and_add t.queries (List.length reqs));
  let run (r : Xk_core.Engine.request) =
    if not (admit t) then begin
      Atomic.incr t.rejected;
      None
    end
    else begin
      (* The deadline clock starts at admission, so time spent queued
         behind other requests counts against it.  A per-request deadline
         overrides the batch-wide one. *)
      let budget =
        match (r.req_deadline_ms, deadline_ms) with
        | Some d, _ | None, Some d -> Xk_resilience.Budget.create ~deadline_ms:d ()
        | None, None -> Xk_resilience.Budget.unlimited
      in
      Some
        (Xk_util.Domain_pool.async t.pool (fun () ->
             Fun.protect
               ~finally:(fun () -> Atomic.decr t.in_flight)
               (fun () ->
                 Xk_resilience.Fault_injection.on_query ();
                 Xk_core.Engine.run_request_outcome ~budget t.engine r)))
    end
  in
  (* Submit everything before the first await so the pool pipelines. *)
  let futs = List.map run reqs in
  List.map
    (fun fut ->
      match fut with
      | None -> Rejected
      | Some fut -> (
          match Xk_util.Domain_pool.await fut with
          | Stdlib.Ok (Xk_core.Engine.Done hs) ->
              Atomic.incr t.completed;
              Ok hs
          | Stdlib.Ok (Xk_core.Engine.Partial hs) ->
              Atomic.incr t.partials;
              Partial hs
          | Stdlib.Ok Xk_core.Engine.Timed_out ->
              Atomic.incr t.timeouts;
              Timeout
          | Stdlib.Error (e, bt) ->
              Atomic.incr t.failed;
              Failed
                {
                  message = Printexc.to_string e;
                  backtrace = Printexc.raw_backtrace_to_string bt;
                }))
    futs

let exec_batch_hits ?deadline_ms t reqs =
  List.map hits (exec_batch ?deadline_ms t reqs)

let stats t =
  {
    domains = domains t;
    batches = Atomic.get t.batches;
    queries = Atomic.get t.queries;
    completed = Atomic.get t.completed;
    partials = Atomic.get t.partials;
    timeouts = Atomic.get t.timeouts;
    rejected = Atomic.get t.rejected;
    failed = Atomic.get t.failed;
    max_queue = t.max_queue;
    cache = Xk_index.Index.cache_stats (Xk_core.Engine.index t.engine);
  }

let shutdown t = Xk_util.Domain_pool.shutdown t.pool

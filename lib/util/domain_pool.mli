(** A pool of OCaml 5 domains consuming jobs from one shared MPMC queue
    guarded by a [Mutex]/[Condition] pair.

    Callers hold a {e handle} ([t]) on a set of worker domains.  A
    handle counts the jobs submitted through it until they finish, so
    {!shutdown} closes that handle and waits for exactly its jobs.
    There are two kinds:

    - a {e private} pool ({!create}) owns its workers and joins them on
      {!shutdown};
    - a handle on the {e shared} pool ({!shared}) reaches the one
      process-wide worker set, which is spawned by the first job
      submitted to it and never joined.  Any number of handles can
      serve from it at once, and shutting one down leaves the others
      running.

    The shared pool has [Domain.recommended_domain_count ()] workers,
    one per core: the submitting domain does no work of its own and only
    blocks in {!await}.

    Producers ({!submit}/{!async}) may run on any domain, including pool
    workers of {e other} pools; results come back through {!future}
    handles.  There is no work stealing: the queue is the single point of
    coordination, which keeps the pool small and obviously correct.  A
    job must not await another job of the same worker set, which could
    be queued behind it. *)

type t

val create : domains:int -> unit -> t
(** A private pool: spawn [domains] worker domains owned by the returned
    handle.  Raises [Invalid_argument] when [domains < 1]. *)

val shared : unit -> t
(** A fresh handle on the process-wide pool of
    [Domain.recommended_domain_count ()] workers.  Creating a handle
    spawns nothing: the first job submitted through any handle spawns
    the workers, exactly once even when several domains race.  Until
    then no idle domain takes part in the runtime's stop-the-world
    collections. *)

val size : t -> int
(** Number of worker domains behind the handle. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a fire-and-forget job.  An exception escaping the job is
    discarded (workers never die); use {!async} when the outcome matters.
    Raises [Invalid_argument] after {!shutdown}. *)

(** {1 Futures} *)

type 'a future

val async : t -> (unit -> 'a) -> 'a future
(** Enqueue a job and return a handle to its eventual result. *)

val await : 'a future -> ('a, exn * Printexc.raw_backtrace) result
(** Block until the job finishes.  An exception raised by the job is
    delivered as [Error] with the backtrace captured at the raise site —
    the worker domain itself never dies. *)

val await_exn : 'a future -> 'a
(** Like {!await} but re-raises the job's exception (with its original
    backtrace) in the awaiting domain. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Evaluate [f] over all elements on the pool, preserving order.  All
    jobs are submitted before the first await, so the pool pipelines
    them across workers. *)

val shutdown : t -> unit
(** Close the handle and return once every job submitted through it has
    run, including jobs those jobs submitted before the close.  A private
    pool then joins its workers; the shared workers keep serving other
    handles.  Idempotent; subsequent {!submit}/{!async} calls on this
    handle raise.  Must not be called from one of the handle's own
    jobs. *)

(* Worker domains over one Mutex/Condition-guarded MPMC queue, reached
   through handles.

   A [workers] set is the domains plus their queue.  Workers loop: wait
   for the queue to be non-empty (or the set to be closed), pop one job
   with the lock held, run it with the lock released, then settle it
   against its handle in the same critical section that pops the next
   job.  Closing the set flips [closed] and broadcasts; workers keep
   draining the queue until it is empty.

   A handle ([t]) is what callers hold.  It counts its own jobs
   ([pending], guarded by the workers' lock) from submit to completion,
   so [shutdown] on one handle closes it and waits for exactly its jobs,
   while other handles on the same workers keep serving.  A private
   pool is a handle that holds its workers' domains and closes and joins
   them on shutdown; the process-wide pool's workers are never joined.

   Every critical section goes through [Sync.with_lock]: a raising
   section (e.g. the closed-handle check in [submit]) releases its lock
   on the way out. *)

type job = unit -> unit

type workers = {
  lock : Mutex.t;
  has_work : Condition.t;
  jobs : (t * job) Queue.t;
  count : int;
  mutable closed : bool;
  spawned : bool Atomic.t; (* won by the one caller that spawns the domains *)
}

and t = {
  workers : workers;
  idle : Condition.t; (* broadcast under [workers.lock] when [pending] hits 0 *)
  mutable pending : int; (* submitted, not yet finished *)
  mutable accepting : bool;
  mutable owned : unit Domain.t array;
      (* a private pool's domains, joined by [shutdown]; [||] otherwise *)
}

let size t = t.workers.count

let settle h =
  h.pending <- h.pending - 1;
  if h.pending = 0 then Condition.broadcast h.idle

let worker w () =
  let rec loop finished =
    let next =
      Sync.with_lock w.lock (fun () ->
          Option.iter settle finished;
          while Queue.is_empty w.jobs && not w.closed do
            Condition.wait w.has_work w.lock
          done;
          Queue.take_opt w.jobs (* None: closed and drained, exit *))
    in
    match next with
    | None -> ()
    | Some (h, job) ->
        (try job () with _ -> ());
        loop (Some h)
  in
  loop None

let make_workers n =
  {
    lock = Mutex.create ();
    has_work = Condition.create ();
    jobs = Queue.create ();
    count = n;
    closed = false;
    spawned = Atomic.make false;
  }

(* Spawn the domains once per set: only the caller that flips [spawned]
   spawns, so racing submitters never double the workers. *)
let spawn_workers w =
  if (not (Atomic.get w.spawned)) && Atomic.compare_and_set w.spawned false true
  then Array.init w.count (fun _ -> Domain.spawn (worker w))
  else [||]

let handle workers =
  {
    workers;
    idle = Condition.create ();
    pending = 0;
    accepting = true;
    owned = [||];
  }

let create ~domains () =
  if domains < 1 then Err.invalid "Domain_pool.create: domains < 1";
  let h = handle (make_workers domains) in
  h.owned <- spawn_workers h.workers;
  h

(* The process-wide set, published once by compare-and-set: a losing
   racer drops its candidate and takes the winner's.  Its domains are
   spawned by the first [submit], not here: idle domains still take part
   in every stop-the-world collection, so a process that has not served
   a job yet does not pay for them. *)
let shared_workers : workers option Atomic.t = Atomic.make None

let rec shared_set () =
  match Atomic.get shared_workers with
  | Some w -> w
  | None ->
      let w = make_workers (Domain.recommended_domain_count ()) in
      if Atomic.compare_and_set shared_workers None (Some w) then w
      else shared_set ()

let shared () = handle (shared_set ())

let submit t job =
  let w = t.workers in
  Sync.with_lock w.lock (fun () ->
      if not t.accepting then
        Err.invalid "Domain_pool.submit: pool is shut down";
      t.pending <- t.pending + 1;
      Queue.push (t, job) w.jobs;
      Condition.signal w.has_work);
  (* A private set spawned at [create]; the shared set's first job
     spawns it, and the queued job waits for the workers. *)
  ignore (spawn_workers w : unit Domain.t array)

(* Futures: a one-shot mailbox with its own lock, filled by the worker
   and emptied by any number of awaiters. *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

let async t f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  submit t (fun () ->
      let outcome =
        match f () with
        | v -> Done v
        | exception e -> Failed (e, Printexc.get_raw_backtrace ())
      in
      Sync.with_lock fut.fm (fun () ->
          fut.state <- outcome;
          Condition.broadcast fut.fc));
  fut

let await fut =
  (* [settled] runs with [fut.fm] held; [Condition.wait] releases and
     reacquires it, so the single unlock in [with_lock] stays balanced. *)
  let rec settled () =
    match fut.state with
    | Pending ->
        Condition.wait fut.fc fut.fm;
        settled ()
    | Done v -> Ok v
    | Failed (e, bt) -> Error (e, bt)
  in
  Sync.with_lock fut.fm settled

let await_exn fut =
  match await fut with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let map_array t f xs =
  let futs = Array.map (fun x -> async t (fun () -> f x)) xs in
  Array.map await_exn futs

let shutdown t =
  let w = t.workers in
  let joinable =
    Sync.with_lock w.lock (fun () ->
        t.accepting <- false;
        while t.pending > 0 do
          Condition.wait t.idle w.lock
        done;
        let owned = t.owned in
        if Array.length owned > 0 then begin
          w.closed <- true;
          t.owned <- [||];
          Condition.broadcast w.has_work
        end;
        owned)
  in
  Array.iter Domain.join joinable

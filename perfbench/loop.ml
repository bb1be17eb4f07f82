(* The closed-loop load generator: each client role issues its next operation
   only when the previous one has completed, until the deadline.  Every
   operation's latency is recorded by the role itself.

   Readers are system threads of the calling domain: they spend their
   time waiting for the executor's pool, and one domain for all of them
   keeps the load generator off the cores the program runs on.  A role
   that computes (the live writer) gets a domain of its own. *)

type gc_delta = { minor_mb : float; major_collections : int }

(* Jiffies the hypervisor gave to other guests, and all jiffies, summed
   over CPUs (/proc/stat): the host's share of a window or a run. *)
let cpu_ticks () =
  match Bx.read_file "/proc/stat" with
  | None -> (0, 0)
  | Some s -> (
      match String.split_on_char ' ' (List.hd (String.split_on_char '\n' s)) with
      | "cpu" :: fields ->
          let ns = List.filter_map int_of_string_opt fields in
          let steal = match List.nth_opt ns 7 with Some v -> v | None -> 0 in
          (steal, List.fold_left ( + ) 0 ns)
      | _ -> (0, 0))

type role = Thread of (unit -> unit) | Domain of (unit -> unit)

(* A run is cut into [windows] equal windows.  A thread of its own reads
   the CPU counters at every window boundary, so each window knows the
   share of CPU time the hypervisor gave to other guests during it. *)
let windows = 20

type run = { t0 : float; width : float; steal : float array; gc : gc_delta }

let steal_share (s0, a0) (s1, a1) = float_of_int (s1 - s0) /. float_of_int (max 1 (a1 - a0))

(* Run every role concurrently for [seconds]. *)
let run ~seconds (roles : role list) =
  let g0 = Gc.quick_stat () in
  let ticks = Array.make (windows + 1) (cpu_ticks ()) in
  let t0 = Bx.now () in
  let deadline = t0 +. seconds in
  let width = seconds /. float_of_int windows in
  let sampler =
    Thread.create
      (fun () ->
        for i = 1 to windows do
          let d = t0 +. (width *. float_of_int i) -. Bx.now () in
          if d > 0. then Thread.delay d;
          ticks.(i) <- cpu_ticks ()
        done)
      ()
  in
  let until step () =
    while Bx.now () < deadline do
      step ()
    done
  in
  let joins =
    List.map
      (function
        | Thread step ->
            let th = Thread.create (until step) () in
            fun () -> Thread.join th
        | Domain step ->
            let d = Domain.spawn (until step) in
            fun () -> Domain.join d)
      roles
  in
  List.iter (fun join -> join ()) joins;
  Thread.join sampler;
  let g1 = Gc.quick_stat () in
  Bx.fact "host_steal_frac" (Printf.sprintf "%.4f" (steal_share ticks.(0) ticks.(windows)));
  {
    t0;
    width;
    steal = Array.init windows (fun i -> steal_share ticks.(i) ticks.(i + 1));
    gc =
      {
        minor_mb = (g1.minor_words -. g0.minor_words) *. float_of_int (Sys.word_size / 8) /. 1048576.;
        major_collections = g1.major_collections - g0.major_collections;
      };
  }

(* Per-class latency samples of one reader role. *)
type reads = {
  mutable topk : (float * float) list;  (* completion time, latency ms *)
  mutable complete : (float * float) list;
  mutable by_key : (string * float) list;  (* request key, latency *)
  mutable attempted : int;
  mutable failed : int;  (* any non-Ok outcome *)
  mutable wrong : int;  (* Ok, but not the reference answer *)
}

let new_reads () =
  { topk = []; complete = []; by_key = []; attempted = 0; failed = 0; wrong = 0 }

let record r ~traced (q : Work.req) ms =
  let s = (Bx.now (), ms) in
  (match q.cls with
  | Work.Topk -> r.topk <- s :: r.topk
  | Work.Complete -> r.complete <- s :: r.complete);
  if traced then r.by_key <- (Work.key q, ms) :: r.by_key

let merge rs =
  let all f = Array.of_list (List.concat_map f rs) in
  ( all (fun r -> r.topk),
    all (fun r -> r.complete),
    List.fold_left (fun a r -> a + r.attempted) 0 rs,
    List.fold_left (fun a r -> a + r.failed) 0 rs,
    List.fold_left (fun a r -> a + r.wrong) 0 rs )

(* One reader step: draw, time the call, count the outcome and compare
   with the reference answer when [check] knows it. *)
let read_step r ~traced ~next_rid ~draw ~serve ~check () =
  let q : Work.req = draw () in
  let call () = serve q in
  let t0 = Bx.now () in
  let outcome =
    if traced then
      Trace.with_request (next_rid ()) (fun () -> Trace.span "bench.request" call)
    else call ()
  in
  let ms = Bx.ms_since t0 in
  r.attempted <- r.attempted + 1;
  match Work.outcome_hits outcome with
  | None -> r.failed <- r.failed + 1
  | Some hits ->
      record r ~traced q ms;
      if not (check q hits) then r.wrong <- r.wrong + 1

(* Report the reader's metrics and their sample counts.  They count only
   the windows whose steal share is at most the median window's, or at
   most [quiet_steal]: on a shared 2-vCPU host the hypervisor lends our
   CPUs to other guests for seconds at a time (a run's steal share went
   from 0.01 to 0.27 within an hour), and throughput over those windows
   measures the host, not the program.  On a quiet host every window
   counts.  Throughput is the mean over the counted windows; percentiles
   are taken over every sample in them.  The p50s are end-to-end figures;
   p90 and p99 move by more than any usable bound from one run to the
   next and are per-layer figures. *)
let quiet_steal = 0.02

let report_reads (r : run) rs =
  let topk, complete, attempted, failed, wrong = merge rs in
  let window_of t = min (windows - 1) (max 0 (int_of_float ((t -. r.t0) /. r.width))) in
  let cut = Float.max quiet_steal (Bx.median r.steal) in
  let counted = Array.map (fun s -> s <= cut) r.steal in
  let served = Array.make windows 0 in
  Array.iter (fun (t, _) -> let w = window_of t in served.(w) <- served.(w) + 1) (Array.append topk complete);
  let rate keep =
    let ws = List.filter keep (List.init windows Fun.id) in
    ( Bx.mean (Array.of_list (List.map (fun w -> float_of_int served.(w) /. r.width) ws)),
      List.length ws )
  in
  let qps, n = rate (fun w -> counted.(w)) in
  Bx.e2e "qps" "1/s" qps;
  Bx.fact_int "counted_windows" n;
  Bx.fact "qps_all_windows" (Printf.sprintf "%.1f" (fst (rate (fun _ -> true))));
  List.iter
    (fun (cls, xs) ->
      let lat =
        Array.of_list
          (List.filter_map (fun (t, ms) -> if counted.(window_of t) then Some ms else None) (Array.to_list xs))
      in
      let pct tier p suffix =
        let name = cls ^ suffix in
        Bx.report tier name "ms" (Bx.percentile p lat);
        Bx.count_samples name (Array.length lat);
        Bx.count_samples (name ^ ".beyond") (Bx.beyond p (Array.length lat))
      in
      pct Bx.End_to_end 0.5 "_p50_ms";
      pct Bx.Layer 0.9 "_p90_ms";
      pct Bx.Layer 0.99 "_p99_ms")
    [ ("topk", topk); ("complete", complete) ];
  (attempted, failed, wrong)

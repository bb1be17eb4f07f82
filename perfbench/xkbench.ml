(* The serving-stack benchmark.  One run = one workload:

     xkbench.exe --workload hot_topk|cold_rpc|live_rw --seed N
                 --seconds S --trace 0|1 --xkq PATH

   Set up (three times; set-up time is their median), gate correctness
   and the paper's orderings, then drive a closed loop for S seconds.
   The last line of standard output is the result object; with --trace 1
   the run is split into an untraced and a traced half and reports the
   per-layer metrics instead of the end-to-end ones.  See README.md. *)

module Engine = Xk_core.Engine
module Index = Xk_index.Index
module Sharding = Xk_index.Sharding
module Shard_exec = Xk_exec.Shard_exec
module Live = Xk_index.Live
module Snapshot = Xk_index.Snapshot

let clients = 2
let setups = 3
let probe_requests = 60
let replay_requests = 300
let live_docs = 2000
let checked_per_client = 10_000

type opts = { workload : string; seed : int; seconds : float; trace : bool; xkq : string }

(* Set up [setups] times, tearing down all but the last; the median total
   is setup_s. *)
let repeat_setup setup teardown =
  let times = Array.make setups 0. in
  let rec go i prev =
    Option.iter
      (fun s ->
        teardown s;
        Gc.full_major ())
      prev;
    let t0 = Bx.now () in
    let s = setup () in
    times.(i) <- Bx.now () -. t0;
    if i + 1 < setups then go (i + 1) (Some s) else s
  in
  let s = go 0 None in
  Bx.e2e "setup_s" "s" (Bx.median times);
  Bx.count_samples "setup_s" setups;
  s

let engine_of_label label = Engine.of_index (Index.build label)

(* The first [n] distinct requests of a fresh stream. *)
let distinct_prefix draw n =
  let seen = Hashtbl.create n in
  let rec go acc k guard =
    if k = 0 || guard = 0 then List.rev acc
    else
      let q = draw () in
      if Hashtbl.mem seen (Work.key q) then go acc k (guard - 1)
      else (Hashtbl.replace seen (Work.key q) (); go (q :: acc) (k - 1) (guard - 1))
  in
  go [] n (100 * n)

let seeded_sample ~seed reqs n =
  let a = Array.of_list reqs in
  let rng = Xk_datagen.Rng.create (seed + 31) in
  List.init (min n (Array.length a)) (fun _ -> a.(Xk_datagen.Rng.int rng (Array.length a)))

(* The benchmark process plus the servers of the final set-up. *)
let rss_mb () = float_of_int (Bx.status_kb "VmHWM" + Fleet.hwm_kb ()) /. 1024.

(* ------------------------------------------------------------------ *)
(* Timed phases shared by the read-serving workloads *)

type serving = {
  readers : int;
  draw : int -> unit -> Work.req;  (* client -> next request *)
  serve : Work.req -> Xk_exec.Query_service.outcome;
  check : int -> Work.req -> Xk_baselines.Hit.t list -> bool;  (* client -> ... *)
  extra_roles : bool -> Loop.role list;  (* traced -> further roles *)
}

let rid_counter = Atomic.make 1_000_000
let next_rid () = Atomic.fetch_and_add rid_counter 1

(* One closed loop of the readers plus any extra roles. *)
let read_loop sv ~seconds ~traced =
  let rs = List.init sv.readers (fun _ -> Loop.new_reads ()) in
  let roles =
    List.mapi
      (fun c r ->
        let draw = sv.draw c in
        Loop.Thread (Loop.read_step r ~traced ~next_rid ~draw ~serve:sv.serve ~check:(sv.check c)))
      rs
    @ sv.extra_roles traced
  in
  (rs, Loop.run ~seconds roles)

(* The timed part of a run.  Untraced: the whole run is one loop.
   Traced: an untraced half, then a traced half; the difference is the
   tracing overhead, the traced half feeds the queueing estimate. *)
let timed sv ~o =
  (* Every run starts timing from the same heap state. *)
  Gc.full_major ();
  if not o.trace then begin
    let rs, r = read_loop sv ~seconds:o.seconds ~traced:false in
    (Loop.report_reads r rs, None)
  end
  else begin
    let rs, r = read_loop sv ~seconds:(o.seconds /. 2.) ~traced:false in
    let counts = Loop.report_reads r rs in
    let untraced = !Bx.metrics and samples = !Bx.samples in
    let rs2, r2 = read_loop sv ~seconds:(o.seconds /. 2.) ~traced:true in
    Bx.metrics := [];
    let a2, f2, w2 = Loop.report_reads r2 rs2 in
    let traced = !Bx.metrics in
    Bx.metrics := untraced;
    Bx.samples := samples;
    let get l n = (List.find (fun (m : Bx.metric) -> m.name = n) l).value in
    Bx.layer "trace.overhead_topk_p50_ms" "ms" (get traced "topk_p50_ms" -. get untraced "topk_p50_ms");
    Bx.layer "trace.overhead_qps" "1/s" (get untraced "qps" -. get traced "qps");
    Bx.layer "gc.minor_mb" "MB" r.gc.minor_mb;
    Bx.layer "gc.major_collections" "count" (float_of_int r.gc.major_collections);
    let a, f, w = counts in
    ((a + a2, f + f2, w + w2), Some (List.concat_map (fun (r : Loop.reads) -> r.by_key) rs2))
  end

(* Closed-loop latency minus the isolated latency of the same request,
   over the probed requests that the traced loop also served. *)
let queue_ms ~sample by_key =
  let isolated = Trace.per_request "exec.exec" in
  let loop = Hashtbl.create 256 in
  List.iter (fun (k, ms) -> Hashtbl.replace loop k (ms :: Option.value ~default:[] (Hashtbl.find_opt loop k))) by_key;
  let diffs =
    List.mapi (fun i q ->
           match (Hashtbl.find_opt isolated (i + 1), Hashtbl.find_opt loop (Work.key q)) with
           | Some iso, Some l -> Some (Bx.median (Array.of_list l) -. iso)
           | _ -> None)
      sample
    |> List.filter_map Fun.id
  in
  Bx.layer "exec.queue_ms" "ms" (Bx.median (Array.of_list diffs));
  Bx.count_samples "exec.queue_ms" (List.length diffs)

(* The set-up phases of the layers below the executor. *)
let setup_layers ~build =
  Bx.layer "xml.parse_s" "s" (Work.phase_median "xml.parse");
  Bx.layer "encoding.label_s" "s" (Work.phase_median "encoding.label");
  Bx.layer "index.build_s" "s" (Work.phase_median build)

let exec_counters exec =
  let st = Shard_exec.stats exec in
  Bx.layer "exec.failovers" "count" (float_of_int st.failovers);
  Bx.layer "exec.hedges" "count" (float_of_int st.hedges);
  Bx.fact "clean_run_zero_failovers" (string_of_bool (st.failovers = 0))

let error_frac (attempted, failed, _) =
  Bx.layer "error_frac" "ratio" (float_of_int failed /. float_of_int (max 1 attempted))

(* The traced run's per-layer probes, shared by every workload: [draw]
   is the workload's request generator, [target] completes the probe
   target with the sample and the replay stream.  Returns the replay's
   cache hit ratio. *)
let probe_layers ~o ~fig:(fig9, fig10) ~build ~draw ~replay_n ~by_key target =
  Bx.layer "core.fig9_indexed_over_join" "ratio" fig9;
  Bx.layer "core.fig10_complete_over_topk" "ratio" fig10;
  setup_layers ~build;
  let stream () =
    let rng = Work.client_rng ~seed:o.seed ~client:0 in
    fun () -> draw rng
  in
  let sample = distinct_prefix (stream ()) probe_requests in
  let replay =
    let next = stream () in
    List.init replay_n (fun _ -> next ())
  in
  let hit_ratio = Probe.layers (target ~sample ~replay) ~dir:(Bx.fresh_dir (o.workload ^ "-layers")) in
  queue_ms ~sample (Option.get by_key);
  hit_ratio

let live_probe ~o doc =
  let dir = Filename.concat (Bx.fresh_dir "live-probe") "store" in
  Live_work.probe ~dir ~seed:o.seed ~papers:(Live_work.papers doc) ~n:400 ~batches:40

(* ------------------------------------------------------------------ *)
(* hot_topk: one in-process shard, Zipf-skewed Fig. 9/10 requests *)

let hot_topk o =
  let setup () =
    let dir = Bx.fresh_dir "hot" in
    let c = Work.make_corpus ~dir in
    let sharding = Work.phase "index.build" (fun () -> Sharding.partition ~shards:1 c.doc) in
    let exec = Work.phase "exec.create" (fun () -> Shard_exec.create sharding) in
    let pool =
      Work.hot_pool ~seed:o.seed (Sharding.index sharding 0) ~correlated:c.correlated
    in
    Work.phase "index.warm" (fun () ->
        let idx = Sharding.index sharding 0 in
        Index.warm idx
          (List.filter_map (Index.term_id idx) (List.concat_map Work.words_of (Work.hot_requests pool))));
    (c, sharding, exec, pool)
  in
  let c, sharding, exec, pool = repeat_setup setup (fun (_, _, e, _) -> Shard_exec.shutdown e) in
  let engine = engine_of_label c.label in
  let all = Work.hot_requests pool in
  (* Served answers are gated on a sample here and compared with the
     reference one by one during the loop. *)
  let refs =
    Check.parity ~what:"hot_topk" engine (fun q -> Shard_exec.exec exec q.r)
      (seeded_sample ~seed:o.seed all 300)
  in
  List.iter
    (fun q -> if not (Hashtbl.mem refs (Work.key q)) then Hashtbl.replace refs (Work.key q) (Work.reference engine q))
    all;
  Check.oracle ~what:"hot_topk" engine (seeded_sample ~seed:o.seed all 3);
  let fig = Check.paper_orderings ~seed:o.seed engine in
  let idx = Sharding.index sharding 0 in
  Bx.fact_int "nodes" (Xk_encoding.Labeling.node_count c.label);
  Bx.fact_int "terms" (Index.term_count idx);
  Bx.fact_int "documents" (Sharding.subtree_count sharding);
  Bx.fact_int "distinct_query_terms"
    (List.length (List.sort_uniq compare (List.concat_map Work.words_of all)));
  Bx.fact_int "cache_capacity_per_shape" 8192;
  Bx.fact "roles" "2 readers";
  let cache0 = (Shard_exec.stats exec).cache in
  let sv =
    {
      readers = clients;
      draw = (fun client -> let rng = Work.client_rng ~seed:o.seed ~client in fun () -> Work.hot_draw pool rng);
      serve = (fun q -> Shard_exec.exec exec q.r);
      check = (fun _ q hits -> Work.hits_equal q (Hashtbl.find refs (Work.key q)) hits);
      extra_roles = (fun _ -> []);
    }
  in
  let counts, by_key = timed sv ~o in
  exec_counters exec;
  if o.trace then begin
    let cache1 = (Shard_exec.stats exec).cache in
    Bx.layer "live.read_cache_hit_ratio" "ratio"
      (Probe.hit_ratio ~before:cache0 ~after:cache1);
    ignore
      (probe_layers ~o ~fig ~build:"index.build" ~draw:(Work.hot_draw pool) ~replay_n:replay_requests
         ~by_key (fun ~sample ~replay ->
           { Probe.doc = c.doc; engine; sharding; exec; endpoints = None; manifest = None; sample; replay }));
    live_probe ~o c.doc
  end;
  error_frac counts;
  Shard_exec.shutdown exec;
  counts

(* ------------------------------------------------------------------ *)
(* cold_rpc: two shards behind `xkq serve-shard`, uniform k=2 requests *)

let cold_rpc o =
  let setup () =
    let dir = Bx.fresh_dir "cold" in
    let c = Work.make_corpus ~dir in
    let sharding = Work.phase "index.build" (fun () -> Sharding.partition ~shards:2 c.doc) in
    let manifest = Filename.concat dir "shards.manifest" in
    Work.phase "index.save" (fun () -> Xk_index.Shard_io.save sharding manifest);
    let servers =
      Work.phase "rpc.spawn" (fun () ->
          Array.init 2 (fun shard -> Fleet.spawn ~xkq:o.xkq ~corpus:c.xml_path ~manifest ~shard))
    in
    let gather =
      Work.phase "index.open" (fun () ->
          match Xk_index.Shard_io.load_result c.doc manifest with
          | Ok s -> s
          | Error e -> failwith (Xk_index.Shard_io.error_message e))
    in
    let endpoints = Array.map (fun (s : Fleet.server) -> [| (s.host, s.port) |]) servers in
    let exec = Work.phase "exec.create" (fun () -> Shard_exec.create ~endpoints gather) in
    (c, manifest, servers, gather, exec)
  in
  let c, manifest, servers, gather, exec =
    repeat_setup setup (fun (_, _, servers, _, exec) ->
        Shard_exec.shutdown exec;
        Array.iter Fleet.stop servers)
  in
  let engine = engine_of_label c.label in
  let idx = Engine.index engine in
  let gate_reqs =
    let rng = Xk_datagen.Rng.create (o.seed + 77) in
    List.init 200 (fun _ -> Work.cold_draw idx rng)
  in
  ignore (Check.parity ~what:"cold_rpc" engine (fun q -> Shard_exec.exec exec q.r) gate_reqs);
  Check.oracle ~what:"cold_rpc" engine (seeded_sample ~seed:o.seed gate_reqs 3);
  let fig = Check.paper_orderings ~seed:o.seed engine in
  Bx.fact_int "nodes" (Xk_encoding.Labeling.node_count c.label);
  Bx.fact_int "terms" (Index.term_count idx);
  Bx.fact_int "documents" (Sharding.subtree_count gather);
  Bx.fact_int "distinct_query_terms" (Index.term_count idx);
  Bx.fact_int "cache_capacity_per_shape" 8192;
  Bx.fact "roles" "2 readers";
  (* Answers are recorded and checked against the engine after the loop
     (the first [checked_per_client] of each client, so memory stays
     bounded): computing the reference inline would take client CPU from
     the shards. *)
  let answers = Array.init clients (fun _ -> ref []) and kept = Array.make clients 0 in
  let sv =
    {
      readers = clients;
      draw = (fun client -> let rng = Work.client_rng ~seed:o.seed ~client in fun () -> Work.cold_draw idx rng);
      serve = (fun q -> Shard_exec.exec exec q.r);
      check =
        (fun c q hits ->
          if kept.(c) < checked_per_client then begin
            kept.(c) <- kept.(c) + 1;
            answers.(c) := (q, hits) :: !(answers.(c))
          end;
          true);
      extra_roles = (fun _ -> []);
    }
  in
  let (attempted, failed, wrong), by_key = timed sv ~o in
  exec_counters exec;
  if o.trace then begin
    let endpoints = Array.map (fun (s : Fleet.server) -> (s.host, s.port)) servers in
    let hit_ratio =
      probe_layers ~o ~fig ~build:"index.build" ~draw:(Work.cold_draw idx)
        ~replay_n:(4 * replay_requests) ~by_key (fun ~sample ~replay ->
          { Probe.doc = c.doc; engine; sharding = gather; exec; endpoints = Some endpoints;
            manifest = Some manifest; sample; replay })
    in
    (* Reads are served out of process; the replay copy stands in. *)
    Bx.layer "live.read_cache_hit_ratio" "ratio" hit_ratio;
    live_probe ~o c.doc
  end;
  let mismatches =
    Array.fold_left
      (fun acc cell ->
        List.fold_left
          (fun acc (q, hits) -> if Work.hits_equal q (Work.reference engine q) hits then acc else acc + 1)
          acc !cell)
      0 answers
  in
  Bx.fact_int "answers_checked" (Array.fold_left ( + ) 0 kept);
  let counts = (attempted, failed, wrong + mismatches) in
  error_frac counts;
  Shard_exec.shutdown exec;
  counts

(* ------------------------------------------------------------------ *)
(* live_rw: one writer, one reader re-pinning the published snapshot *)

(* Every request of the pool answered through the snapshot's shards must
   match a from-scratch engine over the snapshot's document, and a sample
   must match the oracle. *)
let check_snapshot ~o ~what snap pool =
  let engine = Engine.create (Snapshot.document snap) in
  let exec = Shard_exec.create (Snapshot.sharding snap) in
  Fun.protect ~finally:(fun () -> Shard_exec.shutdown exec) (fun () ->
      let reqs = Work.live_requests pool in
      ignore (Check.parity ~what engine (fun q -> Shard_exec.exec exec q.r) reqs);
      Check.oracle ~what engine (seeded_sample ~seed:o.seed reqs 4));
  engine

let live_rw o =
  let setup () =
    let dir = Bx.fresh_dir "live" in
    let c = Work.make_corpus ~dir in
    let papers = Live_work.papers c.doc in
    let t = Live_work.preload ~dir:(Filename.concat dir "store") ~seed:o.seed ~papers ~n:live_docs in
    let snap = Live.snapshot t in
    let exec = Work.phase "exec.create" (fun () -> Shard_exec.create (Snapshot.sharding snap)) in
    (c, papers, t, snap, exec)
  in
  let c, papers, t, snap0, exec0 =
    repeat_setup setup (fun (_, _, t, _, exec) -> Shard_exec.shutdown exec; Live.close t)
  in
  let pool =
    let engine = Engine.create (Snapshot.document snap0) in
    let idx = Engine.index engine in
    let correlated =
      List.filter (fun q -> List.for_all (fun w -> Index.term_id idx w <> None) q) c.correlated
    in
    (* Four times the hot pool: on a 2,000-paper corpus the cost of a
       query swings more with its keywords, and seeds agree only when
       each group averages over more of them. *)
    Work.hot_pool ~per_group:96 ~seed:o.seed idx ~correlated
  in
  ignore (check_snapshot ~o ~what:"live_rw (initial)" snap0 pool);
  let fig = Check.paper_orderings ~seed:o.seed (engine_of_label c.label) in
  Bx.fact_int "documents" (Snapshot.doc_count snap0);
  Bx.fact_int "nodes" (Xk_xml.Xml_tree.node_count (Snapshot.document snap0));
  Bx.fact_int "distinct_query_terms"
    (List.length (List.sort_uniq compare (List.concat_map Work.words_of (Work.live_requests pool))));
  Bx.fact_int "auto_compact_docs" Live_work.auto_compact;
  Bx.fact_int "batch_ops" Live_work.batch_ops;
  Bx.fact "roles"
    (Printf.sprintf "1 reader, 1 writer (%.0f ms pause after each batch)" (Live_work.think_s *. 1000.));
  (* Reader state: the pinned executor, rebuilt when the LSN moves; the
     caches of every retired snapshot are summed. *)
  let cur = ref (Snapshot.lsn snap0, Snapshot.sharding snap0, exec0) in
  let retired = ref Xk_index.Shard_cache.zero_stats in
  let serve (q : Work.req) =
    let snap = Live.snapshot t in
    let lsn, sharding, exec = !cur in
    let exec =
      if Snapshot.lsn snap = lsn then exec
      else begin
        retired := Xk_index.Shard_cache.add_stats !retired (Sharding.cache_stats sharding);
        Shard_exec.shutdown exec;
        let e = Shard_exec.create (Snapshot.sharding snap) in
        cur := (Snapshot.lsn snap, Snapshot.sharding snap, e);
        e
      end
    in
    Shard_exec.exec exec q.r
  in
  let writes = ref [] in
  let side_wal = ref None in
  let c0 = ref 0 in
  let wrng = Xk_datagen.Rng.create (o.seed + 505) in
  let sv =
    {
      readers = 1;  (* and one writer *)
      draw = (fun client -> let rng = Work.client_rng ~seed:o.seed ~client in fun () -> Work.live_draw pool rng);
      serve;
      check = (fun _ _ _ -> true);
      extra_roles =
        (fun traced ->
          let w = Live_work.new_writes () in
          writes := (traced, w) :: !writes;
          if traced then begin
            side_wal := Some (Live_work.ok_wal (Xk_index.Wal.create ~base_lsn:0 (Live.dir t ^ ".side.wal")));
            c0 := Bx.wchar ()
          end;
          let step = Live_work.write_step w t wrng ~papers ~side_wal:(if traced then !side_wal else None) in
          [ Loop.Domain (fun () -> step (); Unix.sleepf Live_work.think_s) ]);
    }
  in
  let (attempted, failed, wrong), by_key = timed sv ~o in
  let w_attempted, w_failed =
    List.fold_left (fun (a, f) (_, (w : Live_work.writes)) -> (a + w.attempted, f + w.failed)) (0, 0) !writes
  in
  Bx.fact_int "write_batches" w_attempted;
  Bx.fact_int "write_compactions"
    (List.fold_left (fun a (_, (w : Live_work.writes)) -> a + List.length w.compacting) 0 !writes);
  let snap = Live.snapshot t in
  let final_engine = check_snapshot ~o ~what:"live_rw (final)" snap pool in
  let counts = (attempted + w_attempted, failed + w_failed, wrong) in
  let _, sharding, reader_exec = !cur in
  exec_counters reader_exec;
  Shard_exec.shutdown reader_exec;
  if o.trace then begin
    Bx.layer "live.read_cache_hit_ratio" "ratio"
      (Probe.hit_ratio ~before:Xk_index.Shard_cache.zero_stats
         ~after:(Xk_index.Shard_cache.add_stats !retired (Sharding.cache_stats sharding)));
    let exec = Shard_exec.create (Snapshot.sharding snap) in
    ignore
      (probe_layers ~o ~fig ~build:"live.preload" ~draw:(Work.live_draw pool) ~replay_n:replay_requests
         ~by_key (fun ~sample ~replay ->
           { Probe.doc = Snapshot.document snap; engine = final_engine; sharding = Snapshot.sharding snap;
             exec; endpoints = None; manifest = None; sample; replay }));
    Shard_exec.shutdown exec;
    let side = Option.get !side_wal in
    let side_bytes = (Unix.stat (Xk_index.Wal.path side)).Unix.st_size in
    Xk_index.Wal.close side;
    Live_work.report_writes (List.assoc true !writes) t ~wall:(o.seconds /. 2.)
      ~wchar_bytes:(Bx.wchar () - !c0 - side_bytes)
  end
  else Live.close t;
  error_frac counts;
  counts

(* ------------------------------------------------------------------ *)

let host_facts o =
  Bx.fact "workload" o.workload;
  Bx.fact_int "seed" o.seed;
  Bx.fact "seconds" (Printf.sprintf "%g" o.seconds);
  Bx.fact_int "nproc" (Domain.recommended_domain_count ());
  Bx.fact "ocaml" Sys.ocaml_version;
  Bx.fact "flambda" (Option.value ~default:"unknown" (Sys.getenv_opt "XKBENCH_FLAMBDA"));
  Bx.fact "flush_policy" "fsync on every WAL record and segment write (live store); no sync on the read path";
  Bx.fact "loop" "closed loop, one process"

let result ~correct ~attempted ~failed tier =
  let metrics = List.rev !Bx.metrics |> List.filter (fun (m : Bx.metric) -> m.tier = tier) in
  List.iter
    (fun (m : Bx.metric) -> Bx.gate (Float.is_finite m.value) "metric %s was not measured" m.name)
    metrics;
  let metrics =
    metrics
    |> List.map (fun (m : Bx.metric) ->
           (m.name, Bx.json_obj [ ("value", Bx.json_float m.value); ("unit", Bx.json_string m.unit_) ]))
  in
  Bx.json_obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", Bx.json_obj metrics);
    ]

let record ~o =
  let strs l = Bx.json_obj (List.rev_map (fun (k, v) -> (k, Bx.json_string v)) l) in
  let ints l = Bx.json_obj (List.rev_map (fun (k, v) -> (k, string_of_int v)) l) in
  Bx.json_obj
    [
      ("facts", strs !Bx.facts);
      ("samples", ints !Bx.samples);
      ( "phases_s",
        Bx.json_obj
          (Hashtbl.fold (fun k _ acc -> (k, Bx.json_float (Work.phase_median k)) :: acc) Work.phase_samples []) );
      ( "metrics",
        Bx.json_obj
          (List.rev_map (fun (m : Bx.metric) -> (m.name, Bx.json_float m.value)) !Bx.metrics) );
      ("trace", string_of_bool o.trace);
    ]

let main o =
  Bx.mkdir_p Bx.run_dir;
  host_facts o;
  let run =
    match o.workload with
    | "hot_topk" -> hot_topk
    | "cold_rpc" -> cold_rpc
    | "live_rw" -> live_rw
    | w -> failwith ("unknown workload " ^ w)
  in
  let attempted, failed, wrong = run o in
  Bx.e2e "peak_rss_mb" "MB" (rss_mb ());
  Fleet.stop_all ();
  Bx.fact_int "wrong_answers" wrong;
  let stem = Printf.sprintf "%s/%s-seed%d-trace%d" Bx.run_dir o.workload o.seed (Bool.to_int o.trace) in
  let rec_json = record ~o in
  Out_channel.with_open_bin (stem ^ ".json") (fun oc -> output_string oc (rec_json ^ "\n"));
  if o.trace then Trace.write (stem ^ ".spans.jsonl");
  print_endline ("record: " ^ rec_json);
  print_endline
    (result ~correct:(wrong = 0) ~attempted ~failed (if o.trace then Bx.Layer else Bx.End_to_end))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let xkq = ref "_build/default/bin/xkq.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "hot_topk | cold_rpc | live_rw");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
      ("--xkq", Arg.Set_string xkq, "path of the xkq executable (shard servers)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "xkbench --workload NAME --seed N --seconds S --trace 0|1";
  let o = { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; xkq = !xkq } in
  match main o with
  | () -> exit 0
  | exception Bx.Gate_failed msg ->
      Bx.log "gate failed: %s" msg;
      Fleet.stop_all ();
      exit 2

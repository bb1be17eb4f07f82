(* Per-layer probes for the traced run.  Each layer is timed from outside,
   by calling its public entry point on the workload's own requests under
   a span; the per-layer metrics are order statistics of those spans. *)

module Engine = Xk_core.Engine
module Sharding = Xk_index.Sharding
module Shard_run = Xk_exec.Shard_run
module Shard_exec = Xk_exec.Shard_exec
module Wire = Xk_rpc.Wire
module Frame = Xk_rpc.Frame

type target = {
  doc : Xk_xml.Xml_tree.document;
  engine : Engine.t;  (* sequential, unsharded *)
  sharding : Sharding.t;  (* the workload's partition, in process *)
  exec : Shard_exec.t;  (* the workload's executor *)
  endpoints : (string * int) array option;  (* remote shard servers, if any *)
  manifest : string option;  (* the saved shard set, if the workload has one *)
  sample : Work.req list;  (* distinct requests, probed one by one *)
  replay : Work.req list;  (* a prefix of the request stream, for the cache *)
}

let unlimited = Xk_resilience.Budget.unlimited

let shard_engines sharding =
  Array.init (Sharding.count sharding) (fun s -> Engine.of_index (Sharding.index sharding s))

let run_shard sharding engines s (q : Work.req) =
  Shard_run.run ~sharding ~engine:engines.(s) ~shard:s ~budget:unlimited
    ~words:(Shard_run.canonical_words q.r.Engine.req_words)
    q.r

let wire_query s (q : Work.req) : Wire.query =
  {
    q_shard = s;
    q_words = q.r.Engine.req_words;
    q_semantics = q.r.Engine.req_semantics;
    q_mode = q.r.Engine.req_mode;
    q_deadline_ms = None;
    q_ticks = None;
  }

(* Encode and decode one request and its reply through both codecs, as
   a client and a server do; returns the reply frame's size. *)
let codec_round_trip s q (res : Shard_run.result) =
  let frame_of kind payload =
    match Frame.decode (Frame.encode kind payload) with
    | Ok (_, p) -> p
    | Error e -> failwith (Frame.error_message e)
  in
  (match Wire.decode_query (frame_of Frame.Query (Wire.encode_query (wire_query s q))) with
  | Ok _ -> ()
  | Error e -> failwith (Frame.error_message e));
  let reply =
    Wire.encode_reply
      (Wire.Served { s_summary = res.sr_summary; s_outcome = res.sr_outcome; s_bound = res.sr_bound })
  in
  (match Wire.decode_reply (frame_of Frame.Reply reply) with
  | Ok _ -> ()
  | Error e -> failwith (Frame.error_message e));
  Frame.header_size + String.length reply

(* In-process shard servers over [sharding], for workloads that serve in
   process: the RPC layer is still measured on their requests. *)
let with_servers sharding f =
  let servers =
    Array.init (Sharding.count sharding) (fun s ->
        let srv = Xk_exec.Shard_server.create ~sharding ~shard:s ~replica:0 in
        match Xk_exec.Shard_server.serve ~port:0 srv with
        | Error m -> failwith m
        | Ok l ->
            (l, Domain.spawn (fun () ->
                 Xk_rpc.Server.run l ~handler:(Xk_exec.Shard_server.dispatch srv))))
  in
  let endpoints = Array.map (fun (l, _) -> (Xk_rpc.Server.host l, Xk_rpc.Server.port l)) servers in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun (l, d) -> Xk_rpc.Server.stop l; Domain.join d) servers)
    (fun () -> f endpoints)

let hit_ratio ~(before : Xk_index.Shard_cache.stats) ~(after : Xk_index.Shard_cache.stats) =
  let hits = after.hits - before.hits and misses = after.misses - before.misses in
  float_of_int hits /. float_of_int (max 1 (hits + misses))

let table_values tbl = Array.of_seq (Hashtbl.to_seq_values tbl)

let load doc manifest =
  match Xk_index.Shard_io.load_result doc manifest with
  | Ok s -> s
  | Error e -> failwith (Xk_index.Shard_io.error_message e)

(* Probe every request of the sample through each layer. *)
let per_request t endpoints =
  let engines = shard_engines t.sharding in
  let shards = Sharding.count t.sharding in
  let codec_us = ref [] and reply_bytes = ref [] in
  let topk_stats = ref [] in
  List.iteri
    (fun i (q : Work.req) ->
      Trace.with_request (i + 1) (fun () ->
          Trace.span "probe.request" (fun () ->
              let engine_span = match q.cls with Work.Topk -> "core.engine_topk" | Work.Complete -> "core.engine_complete" in
              ignore (Trace.span engine_span (fun () -> Engine.run_request_outcome t.engine q.r));
              let words = Shard_run.canonical_words q.r.Engine.req_words in
              for s = 0 to shards - 1 do
                ignore (Trace.span "index.root_summary" (fun () -> Sharding.root_summary t.sharding ~shard:s words))
              done;
              let results =
                Array.init shards (fun s -> Trace.span "exec.shard_run" (fun () -> run_shard t.sharding engines s q))
              in
              ignore (Trace.span "exec.exec" (fun () -> Shard_exec.exec t.exec q.r));
              Array.iteri
                (fun s (host, port) ->
                  ignore (Trace.span "rpc.call" (fun () -> Xk_rpc.Client.query ~host ~port (wire_query s q))))
                endpoints;
              let t0 = Bx.now () in
              let bytes = Array.mapi (fun s r -> codec_round_trip s q r) results in
              codec_us := ((Bx.now () -. t0) *. 1e6) :: !codec_us;
              reply_bytes := float_of_int (Array.fold_left ( + ) 0 bytes) :: !reply_bytes));
      match q.cls with
      | Work.Topk ->
          let st = Xk_core.Topk_keyword.new_stats () in
          ignore (Engine.query_topk ~semantics:q.r.Engine.req_semantics ~stats:st t.engine q.r.Engine.req_words ~k:10);
          topk_stats := st :: !topk_stats
      | Work.Complete -> ())
    t.sample;
  let med name = Bx.median (Trace.durations name) in
  Bx.layer "core.engine_topk_ms" "ms" (med "core.engine_topk");
  Bx.layer "core.engine_complete_ms" "ms" (med "core.engine_complete");
  Bx.layer "index.root_summary_ms" "ms" (med "index.root_summary");
  let run_max = Trace.per_request_max "exec.shard_run" in
  let run_sum = Trace.per_request "exec.shard_run" in
  let exec = Trace.per_request "exec.exec" in
  let engine =
    let a = Trace.per_request "core.engine_topk" and b = Trace.per_request "core.engine_complete" in
    Hashtbl.iter (fun k v -> Hashtbl.replace a k v) b;
    a
  in
  let calls = Trace.per_request "rpc.call" in
  let rids = List.of_seq (Hashtbl.to_seq_keys exec) in
  let over f = Array.of_list (List.map f rids) in
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  Bx.layer "exec.shard_run_ms" "ms" (Bx.median (table_values run_max));
  Bx.layer "exec.gather_self_ms" "ms" (Bx.median (over (fun k -> get exec k -. get run_max k)));
  Bx.layer "exec.overhead_ratio" "ratio"
    (Bx.sum (table_values exec) /. Bx.sum (table_values engine));
  (* Sum of per-shard service times over the executor's wall time: near
     the shard count when shards run in parallel, 1.0 or less when they
     run one after another.  Remote shards are served by their servers. *)
  let per_shard = if t.endpoints = None then run_sum else calls in
  Bx.layer "exec.shard_parallelism" "ratio"
    (Bx.sum (table_values per_shard) /. Bx.sum (table_values exec));
  Bx.layer "rpc.call_ms" "ms" (med "rpc.call");
  Bx.layer "rpc.hop_ms" "ms"
    (Bx.median (over (fun k -> (get calls k -. get run_sum k) /. float_of_int shards)));
  Bx.layer "rpc.codec_us" "us" (Bx.median (Array.of_list !codec_us));
  Bx.layer "rpc.reply_bytes" "bytes" (Bx.median (Array.of_list !reply_bytes));
  let stat f =
    Bx.mean (Array.of_list (List.map (fun st -> float_of_int (f st)) !topk_stats))
  in
  Bx.layer "core.topk_pulled" "count" (stat (fun st -> st.Xk_core.Topk_keyword.pulled));
  Bx.layer "core.topk_columns" "count" (stat (fun st -> st.Xk_core.Topk_keyword.columns));
  Bx.layer "core.topk_early_exit_level" "level" (stat (fun st -> st.Xk_core.Topk_keyword.early_exit_level));
  Bx.count_samples "probe.requests" (List.length t.sample)

(* Connection set-up cost: a ping round trip per endpoint. *)
let connect endpoints =
  let ts =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (host, port) ->
              Array.init 20 (fun _ ->
                  let t0 = Bx.now () in
                  Trace.span "rpc.connect" (fun () -> Xk_rpc.Client.ping ~host ~port ());
                  Bx.ms_since t0))
            endpoints))
  in
  Bx.layer "rpc.connect_ms" "ms" (Bx.median ts)

(* Replay the stream prefix through Shard_run on a freshly loaded copy
   (cold mmap open, lazy rows): the index layer's cache behaviour on this
   workload, and the cost of warming a request's terms. *)
let cache t manifest =
  let copy = load t.doc manifest in
  let engines = shard_engines copy in
  let before = Sharding.cache_stats copy in
  List.iter
    (fun q ->
      for s = 0 to Sharding.count copy - 1 do
        ignore (Trace.span "index.replay" (fun () -> run_shard copy engines s q))
      done)
    t.replay;
  let after = Sharding.cache_stats copy in
  let ratio = hit_ratio ~before ~after in
  Bx.layer "index.cache_hit_ratio" "ratio" ratio;
  Bx.layer "index.cache_evictions" "count" (float_of_int (after.evictions - before.evictions));
  Bx.count_samples "index.replay_requests" (List.length t.replay);
  let cold = load t.doc manifest in
  let ts =
    Array.of_list
      (List.map
         (fun q ->
           let t0 = Bx.now () in
           Trace.span "index.warm" (fun () ->
               for s = 0 to Sharding.count cold - 1 do
                 let idx = Sharding.index cold s in
                 Xk_index.Index.warm idx
                   (List.filter_map (Xk_index.Index.term_id idx) (Work.words_of q))
               done);
           Bx.ms_since t0)
         t.sample)
  in
  Bx.layer "index.warm_ms" "ms" (Bx.median ts);
  ratio

(* Every probe of the serving layers; returns the replay's hit ratio. *)
let layers t ~dir =
  let manifest =
    match t.manifest with
    | Some m -> m
    | None ->
        let m = Filename.concat dir "probe.manifest" in
        Work.phase "index.save" (fun () -> Xk_index.Shard_io.save t.sharding m);
        m
  in
  for _ = 1 to 3 do
    ignore (Work.phase "index.open" (fun () -> load t.doc manifest))
  done;
  Bx.layer "index.save_s" "s" (Work.phase_median "index.save");
  Bx.layer "index.open_ms" "ms" (Work.phase_median "index.open" *. 1000.);
  let probe endpoints =
    per_request t endpoints;
    connect endpoints
  in
  (match t.endpoints with
  | Some e -> probe e
  | None -> with_servers t.sharding probe);
  cache t manifest

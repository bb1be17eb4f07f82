(* The live store: paper-level documents under one root, a writer sending
   mutation batches and a reader re-pinning the published snapshot. *)

module Live = Xk_index.Live
module Snapshot = Xk_index.Snapshot
module Shard_exec = Xk_exec.Shard_exec
module Rng = Xk_datagen.Rng

let batch_ops = 16
let auto_compact = 384

(* The writer waits this long after each acknowledged batch before it
   sends the next.  A batch takes ~60 ms of CPU (the snapshot rebuild),
   so a writer without a pause keeps a core busy on its own; the reader
   and its executor would then share the other core, and any CPU the
   host takes away lands on the reads.  With the pause the writer needs
   about half a core. *)
let think_s = 0.06

(* dblp / conf / year / paper: the papers, re-rooted as top-level
   documents. *)
let papers (doc : Xk_xml.Xml_tree.document) =
  let children = function Xk_xml.Xml_tree.Element e -> e.children | Xk_xml.Xml_tree.Text _ -> [] in
  Array.of_list (List.concat_map children (List.concat_map children doc.root.children))

let subtree_bytes node =
  let b = Buffer.create 256 in
  Xk_index.Wal.encode_subtree b node;
  Buffer.length b

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Live.error_message e)

(* A fresh store preloaded with [n] papers drawn by the seed, then
   compacted: the state every run starts from. *)
let preload ~dir ~seed ~papers ~n =
  let t = ok "create" (Live.create ~fsync:true ~auto_compact ~root_tag:"dblp" dir) in
  let rng = Rng.create (seed + 404) in
  let picks = Rng.sample rng ~n:(Array.length papers) ~k:n in
  let rec go i =
    if i < n then begin
      let m = min 512 (n - i) in
      ignore (ok "preload" (Live.mutate t (List.init m (fun j -> Live.Add papers.(picks.(i + j))))));
      go (i + m)
    end
  in
  Work.phase "live.preload" (fun () -> go 0);
  ignore (Work.phase "live.compact" (fun () -> ok "compact" (Live.compact t)));
  t

(* ------------------------------------------------------------------ *)
(* Writer *)

type writes = {
  mutable lat : float list;  (* every acknowledged batch, ms *)
  mutable plain : float list;  (* batches that did not compact *)
  mutable compacting : float list;  (* batches whose sealed generations changed *)
  mutable wal_ms : float list;  (* side WAL append of the batch's records *)
  mutable publish : float list;  (* plain batch minus its WAL share *)
  mutable ops : int;
  mutable user_bytes : int;
  mutable attempted : int;
  mutable failed : int;
}

let new_writes () =
  { lat = []; plain = []; compacting = []; wal_ms = []; publish = [];
    ops = 0; user_bytes = 0; attempted = 0; failed = 0 }

(* 60% replace, 20% add, 20% remove, on distinct live documents. *)
let draw_batch rng ~papers ~live_ids =
  let n = Array.length live_ids in
  let picked = Hashtbl.create batch_ops in
  let rec fresh_id () =
    let id = live_ids.(Rng.int rng n) in
    if Hashtbl.mem picked id then fresh_id () else (Hashtbl.replace picked id (); id)
  in
  let paper () = papers.(Rng.int rng (Array.length papers)) in
  List.init batch_ops (fun _ ->
      let u = Rng.float rng in
      if u < 0.6 then Live.Replace (fresh_id (), paper ())
      else if u < 0.8 then Live.Add (paper ())
      else Live.Remove (fresh_id ()))

(* One batch.  With [side_wal], the batch's records are appended again
   to a separate log with the same fsync policy: the WAL's share of the
   batch, measured on its own. *)
let write_step w t rng ~papers ~side_wal () =
  let live_ids = Snapshot.doc_ids (Live.snapshot t) in
  let batch = draw_batch rng ~papers ~live_ids in
  let gens = Live.sealed_gens t in
  let t0 = Bx.now () in
  let r = Trace.span "live.mutate" (fun () -> Live.mutate t batch) in
  let ms = Bx.ms_since t0 in
  w.attempted <- w.attempted + 1;
  match r with
  | Error e ->
      Bx.log "mutate failed: %s" (Live.error_message e);
      w.failed <- w.failed + 1
  | Ok ids ->
      w.lat <- ms :: w.lat;
      w.ops <- w.ops + List.length batch;
      let records =
        List.map2
          (fun m id ->
            match m with
            | Live.Add n | Live.Replace (_, n) ->
                w.user_bytes <- w.user_bytes + subtree_bytes n;
                Xk_index.Wal.Insert { doc_id = id; subtree = n }
            | Live.Remove _ -> Xk_index.Wal.Delete { doc_id = id })
          batch ids
      in
      let compacted = Live.sealed_gens t <> gens in
      if compacted then w.compacting <- ms :: w.compacting else w.plain <- ms :: w.plain;
      Option.iter
        (fun wal ->
          let t1 = Bx.now () in
          Trace.span "live.wal_append" (fun () ->
              List.iter (fun op -> ignore (Xk_index.Wal.append wal op)) records);
          let wal_ms = Bx.ms_since t1 in
          w.wal_ms <- wal_ms :: w.wal_ms;
          if not compacted then w.publish <- (ms -. wal_ms) :: w.publish)
        side_wal

let ok_wal = function
  | Ok w -> w
  | Error e -> failwith (Xk_index.Wal.error_message e)

(* Reopen the store the run left behind: recovery cost, median of 3. *)
let recover dir =
  let ts =
    Array.init 3 (fun _ ->
        let t0 = Bx.now () in
        let t = ok "reopen" (Trace.span "live.open" (fun () -> Live.open_ ~fsync:true dir)) in
        let ms = Bx.ms_since t0 in
        Live.close t;
        ms)
  in
  Bx.median ts

(* Store bytes on disk over the serialized bytes of the live documents. *)
let space_amp t =
  let snap = Live.snapshot t in
  let live_bytes =
    List.fold_left
      (fun acc n -> acc + subtree_bytes n)
      0 (Snapshot.document snap).root.children
  in
  float_of_int (Bx.dir_bytes (Live.dir t)) /. float_of_int (max 1 live_bytes)

(* The write-side per-layer metrics; closes [t]. *)
let report_writes w t ~wall ~wchar_bytes =
  let arr l = Array.of_list l in
  let lat = arr w.lat in
  Bx.layer "write_p50_ms" "ms" (Bx.median lat);
  Bx.layer "write_p99_ms" "ms" (Bx.percentile 0.99 lat);
  Bx.count_samples "write_p99_ms" (Array.length lat);
  Bx.count_samples "write_p99_ms.beyond" (Bx.beyond 0.99 (Array.length lat));
  Bx.layer "writes_per_s" "1/s" (float_of_int w.ops /. wall);
  Bx.layer "live.wal_append_ms" "ms" (Bx.median (arr w.wal_ms));
  Bx.layer "live.publish_ms" "ms" (Bx.median (arr w.publish));
  Bx.layer "live.compact_ms" "ms" (Bx.median (arr w.compacting) -. Bx.median (arr w.plain));
  Bx.layer "live.compactions" "count" (float_of_int (List.length w.compacting));
  Bx.layer "live.write_amp" "ratio" (float_of_int wchar_bytes /. float_of_int (max 1 w.user_bytes));
  Bx.layer "space_amp" "ratio" (space_amp t);
  let dir = Live.dir t in
  Live.close t;
  Bx.layer "recover_ms" "ms" (recover dir)

(* Drive [t]'s writer alone for [batches] batches (the live layer's probe
   on workloads that do not write), then report its metrics. *)
let probe ~dir ~seed ~papers ~n ~batches =
  let t = preload ~dir ~seed ~papers ~n in
  let w = new_writes () in
  let rng = Rng.create (seed + 505) in
  let side = ok_wal (Xk_index.Wal.create ~base_lsn:0 (dir ^ ".side.wal")) in
  let t0 = Bx.now () and c0 = Bx.wchar () in
  for _ = 1 to batches do
    write_step w t rng ~papers ~side_wal:(Some side) ()
  done;
  let wall = Bx.now () -. t0 in
  let side_bytes = (Unix.stat (Xk_index.Wal.path side)).Unix.st_size in
  Xk_index.Wal.close side;
  report_writes w t ~wall ~wchar_bytes:(Bx.wchar () - c0 - side_bytes)

(* Shard servers as child processes: `xkq serve-shard` on an ephemeral
   port, one per shard.  Every child is stopped and reaped before the
   benchmark exits, also when it fails. *)

type server = { pid : int; host : string; port : int; out : in_channel }

let live : server list ref = ref []

(* Peak resident memory of the running servers, in kB. *)
let hwm_kb () =
  List.fold_left (fun acc s -> acc + Bx.status_kb ~pid:(string_of_int s.pid) "VmHWM") 0 !live

let stop s =
  if List.memq s !live then begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid);
    close_in_noerr s.out;
    live := List.filter (fun x -> x != s) !live
  end

let stop_all () = List.iter stop !live

let () = at_exit stop_all

(* "serving shard S replica R on HOST:PORT" *)
let parse_announce line =
  match List.rev (String.split_on_char ' ' (String.trim line)) with
  | addr :: _ -> (
      match String.rindex_opt addr ':' with
      | Some i ->
          ( String.sub addr 0 i,
            int_of_string (String.sub addr (i + 1) (String.length addr - i - 1)) )
      | None -> failwith ("serve-shard: bad announce line: " ^ line))
  | [] -> failwith "serve-shard: empty announce line"

(* Start a server for [shard] and wait until it answers a ping. *)
let spawn ~xkq ~corpus ~manifest ~shard =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process xkq
      [| xkq; "serve-shard"; corpus; "--index"; manifest; "--shard"; string_of_int shard; "--port"; "0" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let s0 = { pid; host = ""; port = 0; out } in
  live := s0 :: !live;
  match input_line out with
  | exception End_of_file ->
      stop s0;
      failwith (Printf.sprintf "serve-shard %d exited before announcing its port" shard)
  | line ->
      let host, port = parse_announce line in
      let s = { s0 with host; port } in
      live := s :: List.filter (fun x -> x != s0) !live;
      Xk_rpc.Client.ping ~host ~port ();
      s

(* Shared helpers: clocks, order statistics, the metric registry and the
   result record, process memory and the run directory. *)

let now = Unix.gettimeofday

let ms_since t0 = (now () -. t0) *. 1000.

(* Nearest-rank percentile of a sample ([p] in [0, 1]); nan when empty. *)
let percentile p (xs : float array) =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 0.5 xs

(* How many samples lie strictly beyond the nearest-rank percentile. *)
let beyond p n = n - int_of_float (Float.ceil (p *. float_of_int n))

let sum xs = Array.fold_left ( +. ) 0. xs

let mean xs =
  if Array.length xs = 0 then nan else sum xs /. float_of_int (Array.length xs)

(* ------------------------------------------------------------------ *)
(* Metrics: every value the run reports, tagged end-to-end or per-layer. *)

type tier = End_to_end | Layer

type metric = { name : string; value : float; unit_ : string; tier : tier }

let metrics : metric list ref = ref []

let report tier name unit_ value =
  metrics := { name; value; unit_; tier } :: !metrics

let e2e = report End_to_end
let layer = report Layer

(* Sample counts behind each percentile metric, recorded with the run. *)
let samples : (string * int) list ref = ref []
let count_samples name n = samples := (name, n) :: !samples

(* Free-form facts recorded with the run: host, flush policy, sizes. *)
let facts : (string * string) list ref = ref []
let fact name v = facts := (name, v) :: !facts
let fact_int name v = fact name (string_of_int v)

(* ------------------------------------------------------------------ *)
(* JSON output *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision, and never a bare nan/inf (not JSON). *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* ------------------------------------------------------------------ *)
(* Process memory *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))

(* A "Key:   123 kB" field of /proc/<pid>/status, in kB. *)
let status_kb ?(pid = "self") key =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.index_opt line ':' with
          | Some i when String.sub line 0 i = key -> (
              let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
              match String.split_on_char ' ' v with
              | n :: _ -> ( try int_of_string n with _ -> acc)
              | [] -> acc)
          | _ -> acc)
        0 (String.split_on_char '\n' s)

(* Bytes the process has passed to write(2) so far (/proc/self/io). *)
let wchar () =
  match read_file "/proc/self/io" with
  | None -> 0
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "wchar"; v ] -> ( try int_of_string (String.trim v) with _ -> acc)
          | _ -> acc)
        0 (String.split_on_char '\n' s)

(* ------------------------------------------------------------------ *)
(* Files: everything the run writes lives under [run_dir]. *)

let run_dir = ".bench_run"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh, empty directory under the run directory. *)
let fresh_dir name =
  let d = Filename.concat run_dir name in
  rm_rf d;
  mkdir_p d;
  d

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | st -> st.Unix.st_size

(* Gate failures end the run without a result line. *)
exception Gate_failed of string

let gate ok fmt =
  Printf.ksprintf (fun msg -> if not ok then raise (Gate_failed msg)) fmt

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

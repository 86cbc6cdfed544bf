(* Server processes for one run: spawned from the shipped psst binary,
   polled until they answer a Ping, measured (peak RSS), stopped, and —
   whatever happens to the ledger — never left running. *)

type proc = {
  name : string;
  pid : int;
  endpoint : Psst_proto.endpoint;
  log : string;
  mutable alive : bool;
}

let live : proc list ref = ref []

let reap p =
  if p.alive then begin
    (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error (_, _, _) -> ());
    p.alive <- false;
    live := List.filter (fun q -> q.pid <> p.pid) !live
  end

let signal p s = if p.alive then try Unix.kill p.pid s with Unix.Unix_error (_, _, _) -> ()

let kill p =
  signal p Sys.sigkill;
  reap p

let kill_all () = List.iter kill !live

let () =
  at_exit kill_all;
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)

(* Children must not inherit an armed fault plan. *)
let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not (String.starts_with ~prefix:"PSST_FAULT" kv))
  |> Array.of_list

let exec ~psst ~log args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close out; Unix.close devnull)
    (fun () ->
      Unix.create_process_env psst (Array.of_list (psst :: args)) (child_env ()) devnull out out)

let log_tail log =
  match In_channel.with_open_bin log In_channel.input_all with
  | s ->
    let n = String.length s in
    String.sub s (max 0 (n - 600)) (min n 600)
  | exception Sys_error _ -> ""

(* Run psst to completion (e.g. [psst shard]); fails with its log. *)
let run_tool ~psst ~log args =
  let pid = exec ~psst ~log args in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "psst %s failed:\n%s" (List.hd args) (log_tail log))

let spawn ~psst ~log ~name ~socket args =
  let args = args @ [ "--socket"; socket ] in
  let pid = exec ~psst ~log args in
  let p = { name; pid; endpoint = Psst_proto.Unix_socket socket; log; alive = true } in
  live := p :: !live;
  p

let exited p =
  p.alive
  && match Unix.waitpid [ Unix.WNOHANG ] p.pid with
     | 0, _ -> false
     | _ ->
       p.alive <- false;
       live := List.filter (fun q -> q.pid <> p.pid) !live;
       true
     | exception Unix.Unix_error (_, _, _) -> false

(* Poll with Ping until the server answers; fails if it exits first or
   the timeout passes. *)
let wait_ready ?(timeout = 120.) p =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if exited p then
      failwith (Printf.sprintf "%s exited during start-up:\n%s" p.name (log_tail p.log));
    if Unix.gettimeofday () > deadline then
      failwith (Printf.sprintf "%s not ready after %.0f s:\n%s" p.name timeout (log_tail p.log));
    match Psst_client.connect ~connect_timeout_ms:1000. p.endpoint with
    | c ->
      let ok = try Psst_client.ping c; true with _ -> false in
      Psst_client.close c;
      if not ok then (Thread.delay 0.005; go ())
    | exception Psst_client.Client_error _ ->
      Thread.delay 0.005;
      go ()
  in
  go ()

(* SIGTERM is a graceful drain; a server still running 30 s later is
   killed. *)
let stop p =
  signal p Sys.sigterm;
  let deadline = Unix.gettimeofday () +. 30. in
  while p.alive && not (exited p) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  kill p

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb p =
  let path = Printf.sprintf "/proc/%d/status" p.pid in
  match In_channel.with_open_bin path In_channel.input_all with
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           if String.starts_with ~prefix:"VmHWM:" line then
             Scanf.sscanf_opt (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                 float_of_int kb /. 1024.)
           else None)
    |> Option.value ~default:nan
  | exception Sys_error _ -> nan

(* One registry scrape through Get_stats. *)
let scrape p =
  let c = Psst_client.connect p.endpoint in
  Fun.protect ~finally:(fun () -> Psst_client.close c) (fun () ->
      Json.parse (Psst_client.stats_json c))

let counter j name =
  Option.value ~default:0. (Json.to_num (Json.member name (Json.member "counters" j)))

let histogram j name =
  let h = Json.member name (Json.member "histograms" j) in
  let get k = Option.value ~default:0. (Json.to_num (Json.member k h)) in
  (get "count", get "sum")

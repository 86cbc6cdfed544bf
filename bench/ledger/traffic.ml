(* Load generators. Every one runs in the ledger process, one OCaml
   thread and one connection per client; client threads spend their time
   blocked in socket I/O, and the servers are separate processes, so the
   load never competes with server threads for one runtime lock. *)

module Proto = Psst_proto

let now = Unix.gettimeofday

(* When a timed phase may end: at [deadline] once [min_ops] operations
   completed (so the tail percentiles the ledger reports have their ten
   samples beyond them), and at [hard] in any case. *)
type window = { deadline : float; hard : float; min_ops : int; completed : int Atomic.t }

let window ~seconds ~min_ops =
  let t = now () in
  { deadline = t +. seconds; hard = t +. (4. *. seconds) +. 30.; min_ops; completed = Atomic.make 0 }

let over w =
  let t = now () in
  t >= w.hard || (t >= w.deadline && Atomic.get w.completed >= w.min_ops)

type served = {
  query : int;  (** index into the stream or pool *)
  sent : float;
  latency : float;
  reply : Proto.reply option;  (** [None]: the transport failed *)
}

(* A served query failed when the reply is an error, a degraded answer,
   or missing. *)
let failed s =
  match s.reply with
  | Some (Proto.Answer { stats; _ }) -> stats.Proto.degraded
  | _ -> true

(* One closed-loop client: the next request goes out when the previous
   reply is in. [next i] names the query of the client's i-th request,
   [None] when the client has nothing left to send. *)
let closed_client endpoint (config : Query.config) queries w ~next =
  let c = ref (Psst_client.connect endpoint) in
  let out = ref [] in
  let rec go i =
    if not (over w) then
      match next i with
      | None -> ()
      | Some qi ->
        let sent = now () in
        let reply =
          match Psst_client.rpc !c (Proto.Run { id = i; query = queries.(qi); config }) with
          | r -> Some r
          | exception (End_of_file | Proto.Proto_error _ | Proto.Timed_out | Unix.Unix_error _) ->
            None
        in
        let s = { query = qi; sent; latency = now () -. sent; reply } in
        out := s :: !out;
        if not (failed s) then Atomic.incr w.completed;
        let connected =
          reply <> None
          ||
          (Psst_client.close !c;
           match Psst_client.connect endpoint with
           | fresh -> c := fresh; true
           | exception Psst_client.Client_error _ -> false)
        in
        if connected then go (i + 1)
  in
  Fun.protect ~finally:(fun () -> Psst_client.close !c) (fun () -> go 0);
  List.rev !out

(* One pass over [queries] on one connection, each answered before the
   next is sent (the untimed cache fill of the pool workloads). *)
let fill endpoint config queries =
  let c = Psst_client.connect endpoint in
  Fun.protect ~finally:(fun () -> Psst_client.close c) (fun () ->
      Array.mapi (fun i q -> Psst_client.rpc c (Proto.Run { id = i; query = q; config })) queries)

type ack = { at : float; ack_latency : float; result : (Psst_ingest.result, string) result }

(* The ingest writer: [Add_graphs] batches back to back on one
   connection until the window closes or the batches run out. *)
let ingest_writer endpoint batches w =
  let c = Psst_client.connect endpoint in
  let out = ref [] in
  let rec go b =
    if b < Array.length batches && not (over w) then begin
      let sent = now () in
      let result =
        match Psst_client.add_graphs c batches.(b) with
        | Ok r -> Ok r
        | Error (code, msg) -> Error (Proto.error_code_name code ^ ": " ^ msg)
        | exception (End_of_file | Proto.Proto_error _ | Unix.Unix_error _) ->
          Error "transport failed"
      in
      out := { at = sent; ack_latency = now () -. sent; result } :: !out;
      (match result with Ok _ -> Atomic.incr w.completed | Error _ -> ());
      go (b + 1)
    end
  in
  Fun.protect ~finally:(fun () -> Psst_client.close c) (fun () -> go 0);
  List.rev !out

(* Open loop: one thread sends on a fixed schedule whether or not replies
   are in, multiplexing sends and reads with [select] on one connection.
   Latency is timed from when each request was due, so a stall also
   charges the requests queued behind it; [late] records how far behind
   schedule the generator itself sent. *)
type open_result = { latencies : float array; late : float array; errors : int }

let open_loop endpoint (config : Query.config) queries ~rate ~seconds ~pick =
  let c = Psst_client.connect endpoint in
  Fun.protect ~finally:(fun () -> Psst_client.close c) (fun () ->
      let fd = Psst_client.descriptor c in
      let n = max 1 (int_of_float (rate *. seconds)) in
      let start = now () +. 0.01 in
      let due i = start +. (float_of_int i /. rate) in
      let lat = Array.make n nan and late = Array.make n 0. in
      let errors = ref 0 and sent = ref 0 and received = ref 0 in
      let receive () =
        (match Psst_client.read_reply c with
        | Proto.Answer { id; stats; _ } when id >= 0 && id < n ->
          lat.(id) <- now () -. due id;
          if stats.Proto.degraded then incr errors
        | _ -> incr errors);
        incr received
      in
      let give_up = start +. seconds +. 60. in
      while !received < n && now () < give_up do
        let t = now () in
        if !sent < n && t >= due !sent then begin
          late.(!sent) <- t -. due !sent;
          Psst_client.send c (Proto.Run { id = !sent; query = queries.(pick !sent); config });
          incr sent
        end
        else begin
          let wait = if !sent < n then Float.max 0. (due !sent -. t) else 1. in
          match Unix.select [ fd ] [] [] wait with
          | [], _, _ -> ()
          | _ -> receive ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        end
      done;
      errors := !errors + (n - !received);
      {
        latencies = Array.of_list (List.filter Float.is_finite (Array.to_list lat));
        late;
        errors = !errors;
      })

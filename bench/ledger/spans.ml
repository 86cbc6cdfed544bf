(* In-memory span recorder for the traced replay. Spans are recorded by
   the ledger around calls into each layer's public functions (the
   program itself carries no spans yet); they stay in memory until the
   run ends and are then written as JSON lines. The replay is
   single-domain, so children never overlap and a span's self time is its
   duration minus the durations of its direct children. *)

type span = {
  req : int;
  layer : string;
  parent : int;  (** index of the parent span, -1 for a request root *)
  t0 : float;
  mutable t1 : float;
  mutable child_time : float;
}

type t = { mutable spans : span array; mutable n : int }

let create () = { spans = [||]; n = 0 }

let push t s =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

(* [span t ~req ~parent layer f] runs [f id] inside a new span; [id] is
   the parent to pass to spans opened inside [f]. *)
let span t ~req ~parent layer f =
  let id = push t { req; layer; parent; t0 = Unix.gettimeofday (); t1 = 0.; child_time = 0. } in
  let finish () =
    let s = t.spans.(id) in
    s.t1 <- Unix.gettimeofday ();
    if parent >= 0 then begin
      let p = t.spans.(parent) in
      p.child_time <- p.child_time +. (s.t1 -. s.t0)
    end
  in
  match f id with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let iter t f =
  for i = 0 to t.n - 1 do
    f t.spans.(i)
  done

(* Per layer: (calls, total self seconds). *)
let self_times t =
  let h = Hashtbl.create 16 in
  iter t (fun s ->
      let calls, self = Option.value (Hashtbl.find_opt h s.layer) ~default:(0, 0.) in
      Hashtbl.replace h s.layer (calls + 1, self +. (s.t1 -. s.t0 -. s.child_time)));
  h

(* Wall time of the replay: the sum of the request roots. *)
let root_time t =
  let total = ref 0. in
  iter t (fun s -> if s.parent < 0 then total := !total +. (s.t1 -. s.t0));
  !total

let write_jsonl t path =
  Out_channel.with_open_bin path (fun oc ->
      for i = 0 to t.n - 1 do
        let s = t.spans.(i) in
        Printf.fprintf oc
          "{\"id\": %d, \"req\": %d, \"layer\": %s, \"parent\": %d, \"start\": %.6f, \
           \"end\": %.6f}\n"
          i s.req (Json.escape s.layer) s.parent s.t0 s.t1
      done)

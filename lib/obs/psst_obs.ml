(* Pipeline observability (DESIGN.md §10): a process-wide metrics registry
   of atomic counters, float accumulators and log-scale histograms, a
   structured warning-event channel, and per-query traces.

   The hot-path operations (incr/add/record/observe) are lock-free — one
   fetch-and-add or CAS loop — so they are safe from every domain of a [Psst_util.Pool] and never
   serialise the pipeline. The registry lock is taken only when a metric
   is first interned (module initialisation) and when dumping. *)

let now () = Unix.gettimeofday ()

type counter = { c_name : string; cell : int Atomic.t }

type accumulator = {
  a_name : string;
  a_sum : float Atomic.t;
  a_count : int Atomic.t;
}

type histogram = {
  h_name : string;
  upper : float array;  (* ascending finite bucket upper bounds *)
  buckets : int Atomic.t array;  (* length = |upper| + 1; last = overflow *)
  h_sum : float Atomic.t;
  h_count : int Atomic.t;
}

type metric = C of counter | A of accumulator | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* Get-or-create under the lock; a name registered with a different metric
   type is a programming error and raises. *)
let intern name make existing =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
        match existing m with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf
               "Psst_obs: metric %S already registered with another type" name))
      | None ->
        let v, m = make () in
        Hashtbl.replace registry name m;
        v)

let counter name =
  intern name
    (fun () ->
      let c = { c_name = name; cell = Atomic.make 0 } in
      (c, C c))
    (function C c -> Some c | _ -> None)

let accumulator name =
  intern name
    (fun () ->
      let a =
        { a_name = name; a_sum = Atomic.make 0.; a_count = Atomic.make 0 }
      in
      (a, A a))
    (function A a -> Some a | _ -> None)

let histogram ?(per_decade = 4) ?(lo = 1e-9) ?(hi = 1e3) name =
  intern name
    (fun () ->
      if not (lo > 0. && hi > lo && per_decade > 0) then
        invalid_arg "Psst_obs.histogram: need 0 < lo < hi and per_decade > 0";
      let lo_exp = log10 lo and hi_exp = log10 hi in
      let n =
        max 1
          (int_of_float
             (Float.round ((hi_exp -. lo_exp) *. float_of_int per_decade)))
      in
      let upper =
        Array.init n (fun i ->
            10. ** (lo_exp +. (float_of_int (i + 1) /. float_of_int per_decade)))
      in
      let h =
        {
          h_name = name;
          upper;
          buckets = Array.init (n + 1) (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0.;
          h_count = Atomic.make 0;
        }
      in
      (h, H h))
    (function H h -> Some h | _ -> None)

let add c n =
  if n <> 0 then ignore (Atomic.fetch_and_add c.cell n)

let incr c = add c 1
let counter_value c = Atomic.get c.cell
let counter_name c = c.c_name

let rec atomic_add_float cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then atomic_add_float cell x

let record a x =
  atomic_add_float a.a_sum x;
  ignore (Atomic.fetch_and_add a.a_count 1)

let acc_sum a = Atomic.get a.a_sum
let acc_count a = Atomic.get a.a_count

let acc_mean a =
  let n = acc_count a in
  if n = 0 then 0. else acc_sum a /. float_of_int n

(* Smallest bucket whose upper bound is >= v; the trailing bucket catches
   everything above the last bound (and NaN, which fails every compare). *)
let bucket_index h v =
  let n = Array.length h.upper in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= h.upper.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe h v =
  ignore (Atomic.fetch_and_add h.buckets.(bucket_index h v) 1);
  atomic_add_float h.h_sum v;
  ignore (Atomic.fetch_and_add h.h_count 1)

let histogram_count h = Atomic.get h.h_count
let histogram_sum h = Atomic.get h.h_sum

let histogram_buckets h =
  Array.init (Array.length h.upper) (fun i ->
      (h.upper.(i), Atomic.get h.buckets.(i)))

let histogram_overflow h = Atomic.get h.buckets.(Array.length h.upper)

let span h f =
  let t0 = now () in
  match f () with
  | r ->
    observe h (now () -. t0);
    r
  | exception e ->
    observe h (now () -. t0);
    raise e

(* --- warning events --- *)

type warning = { code : string; message : string }

let warning_cap = 512
let warn_lock = Mutex.create ()
let warn_log : warning Queue.t = Queue.create ()
let warn_dropped = Atomic.make 0

let warn ~code message =
  incr (counter ("warn." ^ code));
  Mutex.lock warn_lock;
  if Queue.length warn_log < warning_cap then
    Queue.push { code; message } warn_log
  else Atomic.incr warn_dropped;
  Mutex.unlock warn_lock

let warnings () =
  Mutex.lock warn_lock;
  let l = List.of_seq (Queue.to_seq warn_log) in
  Mutex.unlock warn_lock;
  l

let drain_warnings () =
  Mutex.lock warn_lock;
  let l = List.of_seq (Queue.to_seq warn_log) in
  Queue.clear warn_log;
  Mutex.unlock warn_lock;
  l

let warnings_dropped () = Atomic.get warn_dropped

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | C c -> Atomic.set c.cell 0
          | A a ->
            Atomic.set a.a_sum 0.;
            Atomic.set a.a_count 0
          | H h ->
            Array.iter (fun b -> Atomic.set b 0) h.buckets;
            Atomic.set h.h_sum 0.;
            Atomic.set h.h_count 0)
        registry);
  Mutex.lock warn_lock;
  Queue.clear warn_log;
  Mutex.unlock warn_lock;
  Atomic.set warn_dropped 0

(* --- JSON dump --- *)

let json_escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let json_string buf s =
  Buffer.add_char buf '"';
  json_escape buf s;
  Buffer.add_char buf '"'

let json_float buf x =
  if Float.is_finite x then Buffer.add_string buf (Printf.sprintf "%.9g" x)
  else if x > 0. then Buffer.add_string buf "1e308"
  else if x < 0. then Buffer.add_string buf "-1e308"
  else Buffer.add_string buf "0"

let to_json buf =
  let metrics =
    with_registry (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let sep = ref false in
  let item f =
    if !sep then Buffer.add_string buf ", ";
    sep := true;
    f ()
  in
  Buffer.add_string buf "{\"counters\": {";
  sep := false;
  List.iter
    (function
      | name, C c ->
        item (fun () ->
            json_string buf name;
            Buffer.add_string buf ": ";
            Buffer.add_string buf (string_of_int (counter_value c)))
      | _ -> ())
    metrics;
  Buffer.add_string buf "}, \"accumulators\": {";
  sep := false;
  List.iter
    (function
      | name, A a ->
        item (fun () ->
            json_string buf name;
            Buffer.add_string buf
              (Printf.sprintf ": {\"count\": %d, \"sum\": " (acc_count a));
            json_float buf (acc_sum a);
            Buffer.add_string buf ", \"mean\": ";
            json_float buf (acc_mean a);
            Buffer.add_string buf "}")
      | _ -> ())
    metrics;
  Buffer.add_string buf "}, \"histograms\": {";
  sep := false;
  List.iter
    (function
      | name, H h ->
        item (fun () ->
            json_string buf name;
            Buffer.add_string buf
              (Printf.sprintf ": {\"count\": %d, \"sum\": " (histogram_count h));
            json_float buf (histogram_sum h);
            Buffer.add_string buf ", \"buckets\": [";
            let first = ref true in
            Array.iter
              (fun (le, n) ->
                if n > 0 then begin
                  if not !first then Buffer.add_string buf ", ";
                  first := false;
                  Buffer.add_string buf "{\"le\": ";
                  json_float buf le;
                  Buffer.add_string buf (Printf.sprintf ", \"count\": %d}" n)
                end)
              (histogram_buckets h);
            Buffer.add_string buf
              (Printf.sprintf "], \"overflow\": %d}" (histogram_overflow h)))
      | _ -> ())
    metrics;
  Buffer.add_string buf "}, \"warnings\": [";
  sep := false;
  List.iter
    (fun w ->
      item (fun () ->
          Buffer.add_string buf "{\"code\": ";
          json_string buf w.code;
          Buffer.add_string buf ", \"message\": ";
          json_string buf w.message;
          Buffer.add_string buf "}"))
    (warnings ());
  Buffer.add_string buf
    (Printf.sprintf "], \"warnings_dropped\": %d}" (warnings_dropped ()))

let to_json_string () =
  let buf = Buffer.create 2048 in
  to_json buf;
  Buffer.contents buf

(* --- per-query traces --- *)

module Trace = struct
  (* A trace belongs to the single task that built it (one per query);
     fields are plain mutables, kept in insertion order for the dump. *)
  type t = {
    label : string;
    mutable times : (string * float) list;  (* reverse insertion order *)
    mutable counts : (string * int) list;
    mutable flags : (string * bool) list;
  }

  let create label = { label; times = []; counts = []; flags = [] }
  let label t = t.label
  let set_time t name v = t.times <- (name, v) :: t.times
  let set_count t name v = t.counts <- (name, v) :: t.counts
  let set_flag t name v = t.flags <- (name, v) :: t.flags

  let span t name f =
    let t0 = now () in
    match f () with
    | r ->
      set_time t name (now () -. t0);
      r
    | exception e ->
      set_time t name (now () -. t0);
      raise e

  let times t = List.rev t.times
  let counts t = List.rev t.counts
  let flags t = List.rev t.flags

  let to_json buf t =
    Buffer.add_string buf "{\"label\": ";
    json_string buf t.label;
    Buffer.add_string buf ", \"times_s\": {";
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        json_string buf name;
        Buffer.add_string buf ": ";
        json_float buf v)
      (times t);
    Buffer.add_string buf "}, \"counts\": {";
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        json_string buf name;
        Buffer.add_string buf (Printf.sprintf ": %d" v))
      (counts t);
    Buffer.add_string buf "}, \"flags\": {";
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        json_string buf name;
        Buffer.add_string buf (if v then ": true" else ": false"))
      (flags t);
    Buffer.add_string buf "}}"
end

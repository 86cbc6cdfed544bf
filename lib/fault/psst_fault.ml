type action = Fail | Delay of float | Partial_io | Bitflip

exception Injected of string

(* A site's schedule must not depend on other sites or on call
   interleaving across domains, so each site runs its own splitmix64
   stream over an atomic state (CAS advance: safe from pool domains,
   and sequential callers see a reproducible decision sequence). *)

type site = {
  name : string;
  counter : Psst_obs.counter;  (* "fault.<name>" *)
  cfg : (action * float) option Atomic.t;
  state : int64 Atomic.t;
}

let registry : (string, site) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()
let armed = Atomic.make false

(* Current plan and seed, so a site created after [arm] still picks its
   config up. Guarded by [registry_mutex]. *)
let current_plan : (string * action * float) list ref = ref []
let current_seed = ref 0

let fnv1a64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let seed_state ~seed name =
  (* Mix the global seed into the name hash so different seeds give
     different schedules at every site. *)
  Int64.add (fnv1a64 name) (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)

let splitmix_next st =
  let rec advance () =
    let old = Atomic.get st in
    let z = Int64.add old 0x9E3779B97F4A7C15L in
    if Atomic.compare_and_set st old z then z else advance ()
  in
  let z = advance () in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform st =
  (* Top 53 bits -> [0, 1). *)
  Int64.to_float (Int64.shift_right_logical (splitmix_next st) 11)
  /. 9007199254740992.

let apply_plan_to s =
  (* Caller holds [registry_mutex]. *)
  let cfg =
    List.find_map
      (fun (n, a, p) -> if n = s.name then Some (a, p) else None)
      !current_plan
  in
  Atomic.set s.cfg cfg;
  Atomic.set s.state (seed_state ~seed:!current_seed s.name)

let site name =
  Mutex.lock registry_mutex;
  let s =
    match Hashtbl.find_opt registry name with
    | Some s -> s
    | None ->
      let s =
        {
          name;
          counter = Psst_obs.counter ("fault." ^ name);
          cfg = Atomic.make None;
          state = Atomic.make 0L;
        }
      in
      apply_plan_to s;
      Hashtbl.add registry name s;
      s
  in
  Mutex.unlock registry_mutex;
  s

let site_name s = s.name

let sites () =
  Mutex.lock registry_mutex;
  let names = Hashtbl.fold (fun n _ acc -> n :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.sort compare names

let enabled () = Atomic.get armed

let validate_plan plan =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (n, _, p) ->
      if not (p >= 0. && p <= 1.) then
        invalid_arg
          (Printf.sprintf "Psst_fault.arm: probability %g at site %s outside [0, 1]"
             p n);
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Psst_fault.arm: duplicate site %s" n);
      Hashtbl.add seen n ())
    plan

let arm ?(seed = 0) plan =
  validate_plan plan;
  Mutex.lock registry_mutex;
  current_plan := plan;
  current_seed := seed;
  Hashtbl.iter (fun _ s -> apply_plan_to s) registry;
  Atomic.set armed (plan <> []);
  Mutex.unlock registry_mutex

let disarm () = arm []

let fire s =
  if not (Atomic.get armed) then None
  else
    match Atomic.get s.cfg with
    | None -> None
    | Some (action, prob) ->
      if uniform s.state < prob then begin
        Psst_obs.incr s.counter;
        Some action
      end
      else None

let inject s =
  match fire s with
  | None -> ()
  | Some (Delay t) -> Unix.sleepf t
  | Some (Fail | Partial_io | Bitflip) ->
    raise (Injected (Printf.sprintf "injected fault at site %s" s.name))

let draw_int s n =
  if n <= 0 then invalid_arg "Psst_fault.draw_int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (splitmix_next s.state) 1)
                  (Int64.of_int n))

let flip_bit s data =
  if data = "" then data
  else begin
    let b = Bytes.of_string data in
    let pos = draw_int s (Bytes.length b) in
    let bit = draw_int s 8 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    Bytes.unsafe_to_string b
  end

(* --- plan syntax: site=kind[:arg][@prob], comma-separated --- *)

let bad fmt = Printf.ksprintf failwith fmt

let parse_entry entry =
  match String.index_opt entry '=' with
  | None -> bad "fault spec %S: expected site=kind[:arg][@prob]" entry
  | Some eq ->
    let name = String.trim (String.sub entry 0 eq) in
    if name = "" then bad "fault spec %S: empty site name" entry;
    let rhs = String.sub entry (eq + 1) (String.length entry - eq - 1) in
    let kindspec, prob =
      match String.index_opt rhs '@' with
      | None -> (rhs, 1.)
      | Some at ->
        let p = String.sub rhs (at + 1) (String.length rhs - at - 1) in
        let p =
          match float_of_string_opt (String.trim p) with
          | Some p when p >= 0. && p <= 1. -> p
          | _ -> bad "fault spec %S: probability %S not in [0, 1]" entry p
        in
        (String.sub rhs 0 at, p)
    in
    let kind, arg =
      match String.index_opt kindspec ':' with
      | None -> (String.trim kindspec, None)
      | Some c ->
        ( String.trim (String.sub kindspec 0 c),
          Some
            (String.trim
               (String.sub kindspec (c + 1) (String.length kindspec - c - 1))) )
    in
    let action =
      match (kind, arg) with
      | "fail", None -> Fail
      | "partial", None -> Partial_io
      | "bitflip", None -> Bitflip
      | "delay", None -> Delay 0.01
      | "delay", Some ms -> (
        match float_of_string_opt ms with
        | Some ms when ms >= 0. -> Delay (ms /. 1000.)
        | _ -> bad "fault spec %S: bad delay %S (milliseconds)" entry ms)
      | k, _ ->
        bad "fault spec %S: unknown kind %S (fail|delay[:ms]|partial|bitflip)"
          entry k
    in
    (name, action, prob)

let parse_plan spec =
  String.split_on_char ',' spec
  |> List.filter_map (fun e ->
         let e = String.trim e in
         if e = "" then None else Some (parse_entry e))

let arm_from_env () =
  match Sys.getenv_opt "PSST_FAULTS" with
  | None -> false
  | Some spec when String.trim spec = "" -> false
  | Some spec ->
    let plan = parse_plan spec in
    let seed =
      match Sys.getenv_opt "PSST_FAULT_SEED" with
      | None -> 0
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some i -> i
        | None -> bad "PSST_FAULT_SEED=%S is not an integer" s)
    in
    (match arm ~seed plan with
    | () -> ()
    | exception Invalid_argument msg -> failwith msg);
    plan <> []

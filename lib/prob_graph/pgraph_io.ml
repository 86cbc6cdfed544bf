let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "pgraph\n";
  let gc = Pgraph.skeleton t in
  Array.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf "v %d\n" l))
    (Lgraph.vertex_labels gc);
  Array.iter
    (fun (e : Lgraph.edge) ->
      Buffer.add_string buf (Printf.sprintf "e %d %d %d\n" e.u e.v e.label))
    (Lgraph.edges gc);
  List.iter
    (fun f ->
      let vars =
        Factor.vars f |> Array.to_list |> List.map string_of_int
        |> String.concat ","
      in
      Buffer.add_string buf (Printf.sprintf "factor %s" vars);
      Factor.iter_assignments f (fun _ p ->
          Buffer.add_string buf (Printf.sprintf " %.17g" p));
      Buffer.add_char buf '\n')
    (Pgraph.factors t);
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* --- JPT row validation ---

   [Pgraph.make] checks chain consistency with a 1e-6 tolerance, so a
   conditional row summing to, say, 1 + 5e-7 used to be accepted here and
   only misbehaved later in [Exact] (world probabilities summing past 1).
   Both parsers therefore reject over-unity rows up front, with a message
   naming the factor and the offending row. *)

let jpt_row_eps = 1e-9

let validate_factor_rows ~fail factors =
  let covered = Hashtbl.create 16 in
  List.iteri
    (fun i f ->
      let vars = Factor.vars f in
      let old_vars =
        Array.to_list vars |> List.filter (Hashtbl.mem covered)
      in
      (* Summing the new variables out leaves, per conditioning assignment,
         that row's total probability mass. *)
      let row_totals = Factor.marginal_onto f old_vars in
      Factor.iter_assignments row_totals (fun row total ->
          if total > 1. +. jpt_row_eps then
            fail
              (Printf.sprintf
                 "factor %d over edges {%s}: conditional row %d has \
                  probabilities summing to %.17g > 1"
                 i
                 (Array.to_list vars |> List.map string_of_int
                 |> String.concat ",")
                 row total));
      Array.iter (fun v -> Hashtbl.replace covered v ()) vars)
    factors

type parse_state = {
  mutable vlabels : int list; (* reversed *)
  mutable edges : (int * int * int) list; (* reversed *)
  mutable factors : Factor.t list; (* reversed *)
}

let parse_factor line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | "factor" :: vars :: probs ->
    let vars =
      String.split_on_char ',' vars
      |> List.filter (fun s -> s <> "")
      |> List.map int_of_string |> Array.of_list
    in
    let data = Array.of_list (List.map float_of_string probs) in
    Factor.create vars data
  | _ -> invalid_arg ("Pgraph_io: bad factor line: " ^ line)

let of_lines lines =
  let st = { vlabels = []; edges = []; factors = [] } in
  let finished = ref false in
  List.iter
    (fun line ->
      if not !finished then
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [] | [ "pgraph" ] -> ()
        | [ "v"; l ] -> st.vlabels <- int_of_string l :: st.vlabels
        | [ "e"; u; v; l ] ->
          st.edges <-
            (int_of_string u, int_of_string v, int_of_string l) :: st.edges
        | "factor" :: _ -> st.factors <- parse_factor line :: st.factors
        | [ "end" ] -> finished := true
        | w :: _ when String.length w > 0 && w.[0] = '#' -> ()
        | _ -> invalid_arg ("Pgraph_io: bad line: " ^ line))
    lines;
  let skeleton =
    Lgraph.create
      ~vlabels:(Array.of_list (List.rev st.vlabels))
      ~edges:(List.rev st.edges)
  in
  let factors = List.rev st.factors in
  validate_factor_rows ~fail:(fun msg -> invalid_arg ("Pgraph_io: " ^ msg)) factors;
  Pgraph.make skeleton factors

let of_string s = of_lines (String.split_on_char '\n' s)

let write_many oc graphs =
  Array.iter (fun g -> output_string oc (to_string g)) graphs

let read_many ic =
  let graphs = ref [] in
  let current = ref [] in
  (try
     while true do
       let line = input_line ic in
       let trimmed = String.trim line in
       current := trimmed :: !current;
       if trimmed = "end" then begin
         graphs := of_lines (List.rev !current) :: !graphs;
         current := []
       end
     done
   with End_of_file ->
     if List.exists (fun l -> l <> "") !current then
       invalid_arg "Pgraph_io.read_many: trailing partial graph");
  Array.of_list (List.rev !graphs)

let save path graphs =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_many oc graphs)

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_many ic)

(* --- binary codec --- *)

module S = Psst_store

let encode_factor e f =
  let vars = Factor.vars f in
  S.put_int_list e (Array.to_list vars);
  Factor.iter_assignments f (fun _ p -> S.put_f64 e p)

let decode_factor d =
  let vars = S.get_int_list d in
  let k = List.length vars in
  if k > Factor.max_vars then
    S.error "factor scope of %d variables exceeds the %d-variable cap" k
      Factor.max_vars;
  let data = Array.init (1 lsl k) (fun _ -> 0.) in
  for i = 0 to Array.length data - 1 do
    data.(i) <- S.get_f64 d
  done;
  S.checked (fun () -> Factor.create (Array.of_list vars) data)

let encode_binary e g =
  S.put_lgraph e (Pgraph.skeleton g);
  S.put_list e encode_factor (Pgraph.factors g)

let decode_binary d =
  let skeleton = S.get_lgraph d in
  let factors = S.get_list d decode_factor in
  validate_factor_rows ~fail:(fun msg -> S.error "Pgraph_io: %s" msg) factors;
  S.checked (fun () -> Pgraph.make skeleton factors)

let save_binary path graphs =
  let meta = S.encoder () in
  S.put_i64 meta (Array.length graphs);
  let body = S.encoder () in
  S.put_array body encode_binary graphs;
  S.write_file path ~kind:S.Pgdb [ S.section "meta" meta; S.section "graphs" body ]

type binary = { count : int; fingerprint : int32; graphs : Pgraph.t array Lazy.t }

let read_binary path =
  let sections = S.read_file path ~kind:S.Pgdb in
  let count = S.decode_section sections "meta" S.get_nat in
  let payload = S.find_section sections "graphs" in
  let held = S.get_nat (S.decoder ~name:"graphs" payload) in
  if held <> count then
    S.error "graph count mismatch: meta says %d, payload holds %d" count held;
  {
    count;
    fingerprint = Psst_util.Crc32.digest payload;
    graphs =
      lazy (S.decode_section sections "graphs" (fun d -> S.get_array d decode_binary));
  }

let load_binary path = Lazy.force (read_binary path).graphs

let load_auto path =
  if S.is_store_file path then load_binary path else load path

let db_fingerprint graphs =
  let e = S.encoder () in
  S.put_array e encode_binary graphs;
  Psst_util.Crc32.digest (S.contents e)

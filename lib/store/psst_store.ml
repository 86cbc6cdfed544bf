module Crc32 = Psst_util.Crc32

exception Store_error of string

(* Chaos coverage (DESIGN.md §12): the write site can abandon a partial
   temporary, corrupt a byte before the atomic rename, or stall with the
   temporary visible (the SIGKILL-mid-write window); the read site damages
   the bytes after they leave the kernel, which the CRCs must catch. *)
let fault_write = Psst_fault.site "store.write"
let fault_read = Psst_fault.site "store.read"
let m_tmp_cleaned = Psst_obs.counter "store.tmp_cleaned"

let injected site =
  raise
    (Psst_fault.Injected
       ("injected fault at site " ^ Psst_fault.site_name site))

let error fmt = Printf.ksprintf (fun s -> raise (Store_error s)) fmt

let checked f =
  try f () with
  | Invalid_argument msg | Failure msg -> error "invalid stored data: %s" msg

let magic = "PSSTSTR\x00"
let format_version = 1
let header_bytes = 24

type kind = Pgdb | Database | Manifest | Delta

(* Tag 2 belonged to the retired standalone PMI index file (its matrix now
   lives only inside a database image) and tag 3 to a retired corpus
   kind; neither is reused, so such a file fails as an unknown kind
   rather than loading as something else. *)
let kind_tag = function
  | Pgdb -> 1
  | Database -> 4
  | Manifest -> 5
  | Delta -> 6

let kind_name = function
  | Pgdb -> "probabilistic graph database"
  | Database -> "query database"
  | Manifest -> "shard manifest"
  | Delta -> "ingest delta batch"

let kind_of_tag = function
  | 1 -> Some Pgdb
  | 4 -> Some Database
  | 5 -> Some Manifest
  | 6 -> Some Delta
  | _ -> None

type section = { name : string; payload : string }

(* --- payload encoding --- *)

type enc = Buffer.t

let encoder () = Buffer.create 4096
let contents = Buffer.contents
let enc_length = Buffer.length
let put_i64 e i = Buffer.add_int64_le e (Int64.of_int i)
let put_i32 e (i : int32) = Buffer.add_int32_le e i

let put_f64 e f = Buffer.add_int64_le e (Int64.bits_of_float f)
let put_bool e b = Buffer.add_char e (if b then '\001' else '\000')

let put_string e s =
  put_i64 e (String.length s);
  Buffer.add_string e s

let put_list e f l =
  put_i64 e (List.length l);
  List.iter (f e) l

let put_array e f a =
  put_i64 e (Array.length a);
  Array.iter (f e) a

let put_int_list e l = put_list e put_i64 l

let put_lgraph e g =
  put_i64 e (Lgraph.num_vertices g);
  Array.iter (put_i64 e) (Lgraph.vertex_labels g);
  let edges = Lgraph.edges g in
  put_i64 e (Array.length edges);
  Array.iter
    (fun (ed : Lgraph.edge) ->
      put_i64 e ed.u;
      put_i64 e ed.v;
      put_i64 e ed.label)
    edges

let section name e = { name; payload = contents e }

(* --- payload decoding --- *)

type dec = { data : string; mutable pos : int; ctx : string }

let decoder ?(name = "payload") payload = { data = payload; pos = 0; ctx = name }

let remaining d = String.length d.data - d.pos

let need d n =
  if n > remaining d then
    error "section %S: unexpected end of data (need %d bytes, have %d)" d.ctx n
      (remaining d)

let get_i64 d =
  need d 8;
  let v = Int64.to_int (String.get_int64_le d.data d.pos) in
  d.pos <- d.pos + 8;
  v

let get_nat d =
  let v = get_i64 d in
  if v < 0 then error "section %S: negative length %d" d.ctx v;
  v

(* Every codec in this library consumes at least one byte per element, so a
   count can never legitimately exceed the bytes left — checking up front
   keeps a corrupted count from triggering a huge allocation. *)
let get_count d =
  let v = get_nat d in
  if v > remaining d then
    error "section %S: count %d exceeds remaining %d bytes" d.ctx v (remaining d);
  v

let get_i32 d =
  need d 4;
  let v = String.get_int32_le d.data d.pos in
  d.pos <- d.pos + 4;
  v

let get_f64 d =
  need d 8;
  let v = Int64.float_of_bits (String.get_int64_le d.data d.pos) in
  d.pos <- d.pos + 8;
  v

let get_bool d =
  need d 1;
  let c = d.data.[d.pos] in
  d.pos <- d.pos + 1;
  match c with
  | '\000' -> false
  | '\001' -> true
  | c -> error "section %S: invalid boolean byte 0x%02x" d.ctx (Char.code c)

let get_string d =
  let n = get_count d in
  let s = String.sub d.data d.pos n in
  d.pos <- d.pos + n;
  s

let get_list d f =
  let n = get_count d in
  let acc = ref [] in
  for _ = 1 to n do
    acc := f d :: !acc
  done;
  List.rev !acc

let get_array d f =
  let n = get_count d in
  if n = 0 then [||]
  else begin
    let first = f d in
    let a = Array.make n first in
    for i = 1 to n - 1 do
      a.(i) <- f d
    done;
    a
  end

let get_int_list d = get_list d get_i64


let get_lgraph d =
  let n = get_count d in
  let vlabels = Array.init n (fun _ -> 0) in
  for i = 0 to n - 1 do
    vlabels.(i) <- get_i64 d
  done;
  let m = get_count d in
  let edges = ref [] in
  for _ = 1 to m do
    let u = get_i64 d in
    let v = get_i64 d in
    let label = get_i64 d in
    edges := (u, v, label) :: !edges
  done;
  checked (fun () -> Lgraph.create ~vlabels ~edges:(List.rev !edges))

let expect_end d =
  if remaining d <> 0 then
    error "section %S: %d trailing bytes after payload" d.ctx (remaining d)

(* --- varints (unsigned LEB128, used by the flat postings sections) --- *)

let put_varint e n =
  if n < 0 then invalid_arg "put_varint: negative value";
  let rec go n =
    if n < 0x80 then Buffer.add_char e (Char.chr n)
    else begin
      Buffer.add_char e (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let find_section sections name =
  match List.find_opt (fun s -> s.name = name) sections with
  | Some s -> s.payload
  | None -> error "missing section %S" name

let decode_section sections name f =
  let d = decoder ~name (find_section sections name) in
  let v = f d in
  expect_end d;
  v

(* --- file framing --- *)

let add_u32 buf (i : int32) =
  Buffer.add_int32_le buf i

(* A frame's CRC covers the name and then the payload; it is combined
   from the payload's own CRC, so a reader that keeps the payload's CRC
   (a mapping, for the fingerprint) reads the payload once for both. *)
let frame_crc name ~payload_crc ~len = Crc32.combine (Crc32.digest name) payload_crc len

(* The one atomic writer: every store file, and every delta a standby
   receives, reaches disk through this tmp+rename. *)
let write_bytes path data =
  let fault = Psst_fault.fire fault_write in
  if fault = Some Psst_fault.Fail then injected fault_write;
  (* Bitflip completes the write and the rename, but with one damaged
     byte: the readers' checksums must refuse the file. *)
  let data =
    if fault = Some Psst_fault.Bitflip then Psst_fault.flip_bit fault_write data
    else data
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match fault with
  | Some Psst_fault.Partial_io ->
    (* A crash mid-write: a prefix lands in the temporary, the rename
       never happens, the orphan stays behind for the next reader to
       clean up. *)
    let cut =
      if String.length data = 0 then 0
      else Psst_fault.draw_int fault_write (String.length data)
    in
    output_substring oc data 0 cut;
    close_out oc;
    injected fault_write
  | _ ->
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        match fault with
        | Some (Psst_fault.Delay s) ->
          (* Stall with the temporary half-written and flushed: the
             window a SIGKILL-mid-write test aims at. *)
          let half = String.length data / 2 in
          output_substring oc data 0 half;
          flush oc;
          Unix.sleepf s;
          output_substring oc data half (String.length data - half)
        | _ -> output_string oc data));
  Sys.rename tmp path

let write_file ?(version = format_version) path ~kind sections =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  add_u32 buf (Int32.of_int version);
  add_u32 buf (Int32.of_int (kind_tag kind));
  add_u32 buf (Int32.of_int (List.length sections));
  add_u32 buf (Crc32.update 0l (Buffer.contents buf) ~pos:0 ~len:20);
  List.iter
    (fun s ->
      add_u32 buf (Int32.of_int (String.length s.name));
      Buffer.add_string buf s.name;
      Buffer.add_int64_le buf (Int64.of_int (String.length s.payload));
      add_u32 buf
        (frame_crc s.name ~payload_crc:(Crc32.digest s.payload)
           ~len:(String.length s.payload));
      Buffer.add_string buf s.payload)
    sections;
  write_bytes path (Buffer.contents buf)

(* --- reading the framing ---

   One parser reads the header and the section frames, over a byte
   source that is either the file contents in a string (the eager
   readers and [section_spans]) or a mapping ([map_file]). The readers
   differ only in what they do with a frame: copy its payload, check its
   CRC, skip it as damaged, or record where it lies. *)

type bigbytes =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let big_sub (b : bigbytes) pos len =
  let s = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set s i (Bigarray.Array1.unsafe_get b (pos + i))
  done;
  Bytes.unsafe_to_string s

(* [sub pos n] copies [n] bytes out; [span_crc init ~pos ~len] continues
   a CRC-32 over a span in place. *)
type source = {
  length : int;
  sub : int -> int -> string;
  span_crc : int32 -> pos:int -> len:int -> int32;
}

let string_source file =
  {
    length = String.length file;
    sub = String.sub file;
    span_crc = (fun init ~pos ~len -> Crc32.update init file ~pos ~len);
  }

let big_source b =
  {
    length = Bigarray.Array1.dim b;
    sub = big_sub b;
    span_crc = (fun init ~pos ~len -> Crc32.update_bigbytes init b ~pos ~len);
  }

(* A cursor over the whole file, distinct from [dec] so framing errors
   talk about the file rather than a section. *)
type cursor = { src : source; mutable at : int }

let need r n what =
  if r.at + n > r.src.length then
    error "truncated store: unexpected end of file in %s" what

let take r n what =
  need r n what;
  let s = r.src.sub r.at n in
  r.at <- r.at + n;
  s

let take_u32 r what = String.get_int32_le (take r 4 what) 0
let take_u64 r what = String.get_int64_le (take r 8 what) 0

let max_section_name = 255

(* The header, with its CRC, version and kind ([None] accepts any kind);
   returns the cursor after it and the section count. *)
let read_header src ~kind =
  if src.length < header_bytes then
    error "truncated store: %d bytes is shorter than the %d-byte header"
      src.length header_bytes;
  let r = { src; at = 0 } in
  if take r 8 "header" <> magic then error "bad magic: not a PSST store file";
  let version = Int32.to_int (take_u32 r "header") in
  let ktag = Int32.to_int (take_u32 r "header") in
  let count = Int32.to_int (take_u32 r "header") in
  let stored_crc = take_u32 r "header" in
  if stored_crc <> src.span_crc 0l ~pos:0 ~len:20 then error "header checksum mismatch";
  if version <> format_version then
    error "unsupported store format version %d (this build reads version %d)"
      version format_version;
  (match (kind_of_tag ktag, kind) with
  | None, _ -> error "unknown store kind tag %d" ktag
  | Some k, Some kind when k <> kind ->
    error "wrong store kind: expected a %s file, found a %s file"
      (kind_name kind) (kind_name k)
  | Some _, _ -> ());
  if count < 0 then error "negative section count";
  (r, count)

(* One section's framing: it starts at [start] (its name-length field),
   its payload spans [pos, stop), and [crc] is the stored CRC-32 of its
   name and payload. [payload_crc] memoises the CRC of the payload alone,
   the one pass over it that checking [crc] takes; a racing second pass
   writes the same value. *)
type frame = {
  name : string;
  start : int;
  pos : int;
  stop : int;
  crc : int32;
  mutable payload_crc : int32 option;
}

let ctx name = if name = "" then "<unnamed>" else name

let read_frame r =
  let start = r.at in
  let name_len = Int32.to_int (take_u32 r "section header") in
  if name_len < 0 || name_len > max_section_name then
    error "implausible section name length %d" name_len;
  let name = take r name_len "section name" in
  let payload_len = take_u64 r (Printf.sprintf "section %S header" (ctx name)) in
  if Int64.compare payload_len 0L < 0
     || Int64.compare payload_len (Int64.of_int (r.src.length - r.at)) > 0
  then
    error "section %S: payload length %Ld exceeds the file" (ctx name) payload_len;
  let crc = take_u32 r (Printf.sprintf "section %S header" (ctx name)) in
  let len = Int64.to_int payload_len in
  need r len (Printf.sprintf "section %S payload" (ctx name));
  r.at <- r.at + len;
  { name; start; pos = r.at - len; stop = r.at; crc; payload_crc = None }

let payload_crc src f =
  match f.payload_crc with
  | Some c -> c
  | None ->
    let c = src.span_crc 0l ~pos:f.pos ~len:(f.stop - f.pos) in
    f.payload_crc <- Some c;
    c

let frame_intact src f =
  frame_crc f.name ~payload_crc:(payload_crc src f) ~len:(f.stop - f.pos) = f.crc

let check_crc src f =
  if not (frame_intact src f) then
    error "section %S: checksum mismatch (corrupted payload)" (ctx f.name)

(* Reads [count] frames, in order. [keep f] says whether a frame counts
   (a salvage read drops a damaged one); a kept name seen twice is an
   error. Kept frames are pushed on [kept] as they are read, so a caller
   that catches a framing error still has the ones before it. *)
let read_frames r count ~keep kept =
  for _ = 1 to count do
    let f = read_frame r in
    if keep f then begin
      if List.exists (fun (f' : frame) -> f'.name = f.name) !kept then
        error "duplicate section %S" f.name;
      kept := f :: !kept
    end
  done

let check_end r =
  if r.at <> r.src.length then
    error "trailing garbage: %d bytes after the last section" (r.src.length - r.at)

(* Every frame of a whole, checksummed store, in file order. *)
let read_all src ~kind =
  let r, count = read_header src ~kind in
  let kept = ref [] in
  read_frames r count ~keep:(fun f -> check_crc src f; true) kept;
  check_end r;
  List.rev !kept

let section_of file (f : frame) =
  { name = f.name; payload = String.sub file f.pos (f.stop - f.pos) }

let read_string file ~kind =
  List.map (section_of file) (read_all (string_source file) ~kind:(Some kind))

let read_whole_file path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> error "cannot open store: %s" msg
  in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Psst_fault.fire fault_read with
  | None -> contents
  | Some Psst_fault.Fail -> injected fault_read
  | Some (Psst_fault.Delay s) ->
    Unix.sleepf s;
    contents
  | Some Psst_fault.Bitflip -> Psst_fault.flip_bit fault_read contents
  | Some Psst_fault.Partial_io when String.length contents > 0 ->
    String.sub contents 0 (Psst_fault.draw_int fault_read (String.length contents))
  | Some Psst_fault.Partial_io -> contents

(* Crash-safe cleanup: an interrupted [write_bytes] leaves [path ^ ".tmp"]
   behind (the rename never ran, so [path] itself is the intact previous
   version). The next open removes the orphan so it cannot accumulate or
   be mistaken for live data. *)
let clean_orphan_tmp path =
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then begin
    (try Sys.remove tmp with Sys_error _ -> ());
    Psst_obs.incr m_tmp_cleaned;
    Psst_obs.warn ~code:"store.tmp_cleaned"
      (Printf.sprintf
         "removed orphaned temporary %s left by an interrupted write" tmp)
  end

let read_file path ~kind =
  clean_orphan_tmp path;
  read_string (read_whole_file path) ~kind

(* Best-effort reader for self-healing loads: keeps every section whose
   checksum holds, lists the ones that do not. The header must be intact
   (nothing to salvage otherwise), and a destroyed section *framing* —
   a corrupted length or name length, or a truncated file — ends the scan,
   since the remaining byte positions cannot be trusted; sections expected
   but never reached simply come back neither intact nor damaged, which a
   caller must treat as damaged. *)
type salvage = { intact : section list; damaged : string list }

let read_string_salvage file ~kind =
  let src = string_source file in
  let r, count = read_header src ~kind:(Some kind) in
  let kept = ref [] and damaged = ref [] in
  (try
     read_frames r count kept ~keep:(fun f ->
         frame_intact src f
         || begin
           damaged := f.name :: !damaged;
           false
         end)
   with Store_error msg ->
     damaged := Printf.sprintf "<unreadable tail: %s>" msg :: !damaged);
  { intact = List.rev_map (section_of file) !kept; damaged = List.rev !damaged }

let read_file_salvage path ~kind =
  clean_orphan_tmp path;
  read_string_salvage (read_whole_file path) ~kind

let section_spans file =
  List.map (fun f -> (f.name, f.start, f.stop)) (read_all (string_source file) ~kind:None)

let is_store_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        in_channel_length ic >= 8
        && really_input_string ic 8 = magic)

(* --- alignment pads for memory-mapped typed views --- *)

let framed_size (s : section) = 16 + String.length s.name + String.length s.payload

let pad_prefix = "pad."

let align_payloads ~targets sections =
  let out = ref [] in
  let off = ref header_bytes in
  List.iter
    (fun (s : section) ->
      if List.mem s.name targets then begin
        let pad_name = pad_prefix ^ s.name in
        (* With the pad in front, the target's payload starts at
           [off + (16 + |pad_name| + pad_len) + (16 + |s.name|)]; choose
           [pad_len] to land that on a multiple of 8. *)
        let base = !off + 16 + String.length pad_name + 16 + String.length s.name in
        let pad = { name = pad_name; payload = String.make ((8 - (base mod 8)) mod 8) '\000' } in
        out := pad :: !out;
        off := !off + framed_size pad
      end;
      out := s :: !out;
      off := !off + framed_size s)
    sections;
  List.rev !out

(* --- memory-mapped zero-copy access (DESIGN.md §15) ---

   [map_file] maps the whole file read-only and runs the framing parser
   over the mapping without checking payload CRCs — O(directory), whatever
   the payload size. Payload CRCs are checked by the accessors that copy
   or hand out bytes; the typed bulk views are validated by their
   consumers (DESIGN.md §15). There is no salvage variant: salvage implies
   rebuilding the index from the decoded graphs, which is exactly what the
   mmap path exists to avoid. *)

type mapped = {
  m_path : string;
  m_data : bigbytes;
  m_frames : frame list;
  mutable m_fd : Unix.file_descr option;
}

(* The map site supports Fail and Delay; Bitflip/Partial_io cannot be
   simulated on a shared read-only mapping without copying (which would
   defeat the point), so they escalate to Fail. *)
let fault_map = Psst_fault.site "store.map"

let map_file ?(verify = false) path ~kind =
  clean_orphan_tmp path;
  (match Psst_fault.fire fault_map with
  | None -> ()
  | Some (Psst_fault.Delay s) -> Unix.sleepf s
  | Some _ -> injected fault_map);
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      error "cannot open store: %s: %s" path (Unix.error_message e)
  in
  match
    (fun () ->
      let len64 = (Unix.LargeFile.fstat fd).Unix.LargeFile.st_size in
      if Int64.compare len64 (Int64.of_int max_int) > 0 then
        error "store %s is too large to map" path;
      let len = Int64.to_int len64 in
      if len < header_bytes then
        error "truncated store: %d bytes is shorter than the %d-byte header"
          len header_bytes;
      let data =
        try
          Bigarray.array1_of_genarray
            (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| len |])
        with Unix.Unix_error (e, _, _) ->
          error "cannot map store %s: %s" path (Unix.error_message e)
      in
      let r, count = read_header (big_source data) ~kind:(Some kind) in
      let frames = ref [] in
      read_frames r count ~keep:(fun _ -> true) frames;
      check_end r;
      let frames = List.rev !frames in
      (* Each frame keeps its payload's CRC, so a later fingerprint or
         verified view of a section checked here reads it no more. *)
      if verify then List.iter (check_crc (big_source data)) frames;
      { m_path = path; m_data = data; m_frames = frames; m_fd = Some fd })
      ()
  with
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e
  | m -> m

let mapped_has m name = List.exists (fun (f : frame) -> f.name = name) m.m_frames

let mapped_frame m name =
  match List.find_opt (fun (f : frame) -> f.name = name) m.m_frames with
  | Some f -> f
  | None -> error "missing section %S" name

let verify_frame m name =
  let f = mapped_frame m name in
  check_crc (big_source m.m_data) f;
  f

let mapped_section_string m name =
  let f = verify_frame m name in
  big_sub m.m_data f.pos (f.stop - f.pos)

let mapped_bytes m name : bigbytes =
  let f = verify_frame m name in
  Bigarray.Array1.sub m.m_data f.pos (f.stop - f.pos)

(* Raw view without the checksum pass — for payloads whose consumers
   validate lazily (per-record decode, per-lookup range checks). *)
let mapped_bytes_unverified m name : bigbytes =
  let f = mapped_frame m name in
  Bigarray.Array1.sub m.m_data f.pos (f.stop - f.pos)

(* CRC-32 over the raw payload with a zero seed — the same digest
   [Crc32.digest] yields on the payload string, so a caller can compare
   against fingerprints computed over encoded data without decoding or
   copying the section. The frame keeps it, and the checksum of
   [verify_frame] is combined from it. *)
let mapped_payload_crc m name = payload_crc (big_source m.m_data) (mapped_frame m name)

let require_fd m name =
  match m.m_fd with
  | Some fd -> fd
  | None ->
    error "store %s: typed view of %S requested after release" m.m_path name

(* [Unix.map_file] aligns the underlying mapping down to a page and offsets
   the data pointer, so the view's alignment equals [pos mod page]; the
   writer's pad sections ({!align_payloads}) guarantee [pos mod 8 = 0]. *)
let mapped_f64 m name : floats =
  let f = mapped_frame m name in
  let len = f.stop - f.pos in
  if len mod 8 <> 0 then
    error "section %S: float payload length %d is not a multiple of 8" name len;
  if f.pos mod 8 <> 0 then
    error "section %S: payload offset %d is not 8-byte aligned (missing pad section?)"
      name f.pos;
  let n = len / 8 in
  if n = 0 then Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0
  else
    try
      Bigarray.array1_of_genarray
        (Unix.map_file (require_fd m name) ~pos:(Int64.of_int f.pos) Bigarray.float64
           Bigarray.c_layout false [| n |])
    with Unix.Unix_error (e, _, _) ->
      error "cannot map section %S: %s" name (Unix.error_message e)

(* The initial mapping survives the [close]: views already created (and the
   whole-file view) stay valid until garbage-collected. *)
let mapped_release m =
  match m.m_fd with
  | None -> ()
  | Some fd ->
    m.m_fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

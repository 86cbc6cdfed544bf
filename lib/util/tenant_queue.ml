(* One tenant's FIFO and its queued weight. A lane exists in [lanes]
   and in [rota] exactly while it holds items. *)
type 'a lane = { tenant : string; items : ('a * int) Queue.t; mutable held : int }

type 'a t = {
  cap : int;
  quota : int;
  depth : Psst_obs.histogram option;
  mutex : Mutex.t;
  nonempty : Condition.t;
  lanes : (string, 'a lane) Hashtbl.t;
  rota : 'a lane Queue.t;  (* service order *)
  mutable total : int;
  mutable closed : bool;
}

type verdict = [ `Admitted | `Quota | `Full | `Closed ]

let create ?depth ?(quota = 0) ~cap () =
  if cap < 1 then invalid_arg "Tenant_queue: cap must be >= 1";
  if quota < 0 then invalid_arg "Tenant_queue: quota must be >= 0";
  {
    cap;
    quota;
    depth;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    lanes = Hashtbl.create 8;
    rota = Queue.create ();
    total = 0;
    closed = false;
  }

let submit q ~tenant ~weight item =
  Mutex.protect q.mutex (fun () ->
      let lane = Hashtbl.find_opt q.lanes tenant in
      let held = match lane with Some l -> l.held | None -> 0 in
      if q.closed then `Closed
      else if q.quota > 0 && held + weight > q.quota then `Quota
      else if q.total + weight > q.cap then `Full
      else begin
        let lane =
          match lane with
          | Some l -> l
          | None ->
            let l = { tenant; items = Queue.create (); held = 0 } in
            Hashtbl.add q.lanes tenant l;
            Queue.add l q.rota;
            l
        in
        Queue.add (item, weight) lane.items;
        lane.held <- lane.held + weight;
        q.total <- q.total + weight;
        Option.iter (fun h -> Psst_obs.observe h (float_of_int q.total)) q.depth;
        Condition.signal q.nonempty;
        `Admitted
      end)

(* One item from the lane at the head of the rota; the lane goes to the
   tail, or is dropped when it emptied. Caller holds the mutex and has
   checked the rota is non-empty. *)
let pop q =
  let lane = Queue.pop q.rota in
  let item, weight = Queue.pop lane.items in
  lane.held <- lane.held - weight;
  q.total <- q.total - weight;
  if Queue.is_empty lane.items then Hashtbl.remove q.lanes lane.tenant
  else Queue.add lane q.rota;
  item

let take q ~max =
  Mutex.protect q.mutex (fun () ->
      while Queue.is_empty q.rota && not q.closed do
        Condition.wait q.nonempty q.mutex
      done;
      let rec go n acc =
        if (n > 0 && n >= max) || Queue.is_empty q.rota then List.rev acc
        else go (n + 1) (pop q :: acc)
      in
      go 0 [])

let close q =
  Mutex.protect q.mutex (fun () ->
      let was_open = not q.closed in
      q.closed <- true;
      Condition.broadcast q.nonempty;
      was_open)

let weight q = Mutex.protect q.mutex (fun () -> q.total)

(** A bounded multi-tenant work queue: the one admission policy of the
    server (DESIGN.md §11, §16). Its query batcher and its ingest writer
    are both instances of it.

    Every item carries a weight (a query weighs 1, an ingest batch the
    number of its graphs). The queue's total weight is capped at [cap]
    and each tenant's queued weight at [quota] ([0] = no quota). A
    tenant's items leave in the order they entered, and tenants are
    served round-robin: a tenant is in the rota exactly while it has
    queued items, so one tenant's backlog never delays another's next
    item by more than one turn per tenant.

    Thread-safe: any number of threads may {!submit}; {!take} blocks. *)

type 'a t

(** [create ?depth ?quota ~cap ()] — an empty, open queue. [depth], when
    given, observes the total queued weight after every admission.
    [Invalid_argument] when [cap < 1] or [quota < 0]. *)
val create :
  ?depth:Psst_obs.histogram -> ?quota:int -> cap:int -> unit -> 'a t

(** What {!submit} did with an item. The checks run in this order: a
    closed queue refuses ([`Closed]); a tenant whose queued weight plus
    the item's would pass [quota] is refused ([`Quota]); an item whose
    weight would lift the total past [cap] is refused ([`Full]). A
    weight-0 item is refused only by a closed queue. *)
type verdict = [ `Admitted | `Quota | `Full | `Closed ]

(** [submit q ~tenant ~weight item] appends [item] to [tenant]'s queue,
    or refuses it and leaves the queue unchanged. *)
val submit : 'a t -> tenant:string -> weight:int -> 'a -> verdict

(** [take q ~max] waits for a queued item, then removes up to [max]
    items (at least 1), one per tenant per rota turn. It returns [[]]
    only once the queue is closed and empty: the drain barrier. *)
val take : 'a t -> max:int -> 'a list

(** Refuse every later {!submit}; already queued items are still taken.
    [true] when this call closed the queue, [false] when it was closed
    already. *)
val close : 'a t -> bool

(** Total weight queued now. *)
val weight : 'a t -> int

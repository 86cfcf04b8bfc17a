(** Bounded string-keyed store with least-recently-used eviction.

    The one recency policy of the service: each {!Cache} shard is an
    [Nxc_obs.Json.t Lru.t], and {!Engine.Stream}'s response memo is an
    [Lru.t] of outcomes.  Recency is a monotonic tick stamped on an
    entry whenever it is found or added; a full store evicts the entry
    with the smallest stamp, found by a scan, which is fine at the
    capacities the service uses.  Not thread-safe: callers that share
    one across domains hold their own lock. *)

type 'a t

val create : int -> 'a t
(** [create capacity] is an empty store holding at most [capacity]
    entries.
    @raise Invalid_argument when [capacity <= 0]. *)

val peek : 'a t -> string -> 'a option
(** Lookup without touching recency. *)

val find : 'a t -> string -> 'a option
(** Lookup that makes a found entry the most recently used. *)

val add : 'a t -> string -> 'a -> bool
(** [add t key v] inserts or overwrites [key] and makes it the most
    recently used.  Inserting a new key into a full store first evicts
    the least recently used entry; the result says whether it did. *)

val fold : (string -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over every entry, in unspecified order. *)

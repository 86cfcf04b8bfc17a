(** Flight recorder: a fixed-size ring of the most recent events and
    span completions, kept per domain.

    Recording is always on (a couple of field writes and one small
    allocation), so failure forensics are available without any flag
    having been set before the failure: {!Log.dump_flight} writes the
    ring out when a job envelope reports a non-zero exit or the process
    dies on an uncaught exception.

    The ring is {e domain-local}, like spans and metrics buffers.
    {!Nxc_par.Pool} wraps each task in {!collect} and re-plays the
    entries on the main domain with {!absorb} at join, so a parallel
    run's ring reads like a sequential one's. *)

type entry = {
  seq : int;  (** assigned in record order, per domain *)
  t_ns : int;
  kind : string;  (** ["event"] or ["span"] *)
  name : string;
  data : (string * Json.t) list;
}

val record : ?kind:string -> name:string -> (string * Json.t) list -> unit
(** [record ~name data] appends an entry (stamped with {!Clock.now_ns})
    to the calling domain's ring, evicting the oldest entry when full.
    [kind] defaults to ["event"]. *)

val entries : unit -> entry list
(** The calling domain's retained entries, oldest first. *)

val clear : unit -> unit
(** Drop the calling domain's entries and reset its sequence counter.
    Test-only: test/test_obs.ml — tests reset the flight recorder with it. *)

val collect : (unit -> 'a) -> 'a * entry list
(** [collect f] runs [f] with a fresh ring and returns the entries it
    recorded (oldest first, at most 256), restoring the
    surrounding ring afterwards.  If [f] raises, its entries are folded
    into the surrounding ring (as {!absorb} would) before the exception
    propagates, so the forensics survive. *)

val absorb : entry list -> unit
(** [absorb es] re-records entries collected on another domain into the
    calling domain's ring, keeping their timestamps but assigning fresh
    sequence numbers. *)

val entry_json : entry -> Json.t
(** [{"seq": .., "t_ns": .., "kind": .., "name": .., "data": {..}}]. *)

val export_jsonl : Format.formatter -> unit
(** One JSON object per retained entry, one per line, oldest first.
    Test-only: bench/main.ml and test/chaos/chaos.ml — the bench and the
    tests call it. *)

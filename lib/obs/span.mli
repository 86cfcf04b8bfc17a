(** Hierarchical tracing spans over a monotonic clock.

    Tracing is disabled by default: [with_ ~name f] then reduces to
    [f ()] with no clock read and no allocation, so span call sites can
    live permanently in hot paths.  Enable with [enable] (wired to the
    CLI's [--trace] flag) or by setting the [NANOXCOMP_TRACE]
    environment variable to anything but [""] or ["0"].

    All span state is {e domain-local}: each domain records its own
    hierarchy, and the exporters see the calling domain's spans.
    {!Nxc_par.Pool} uses {!collect} around each parallel task and
    {!absorb} at join so a parallel run still produces one coherent
    trace on the main domain. *)

type attr = string * Json.t

type t = {
  id : int;  (** assigned in start order *)
  parent : int option;
  depth : int;
  name : string;
  start_ns : int;
  dur_ns : int;
  attrs : attr list;
}

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit
(** Test-only: svcbench/main.ml, svcbench/replay.ml, test/par/test_par.ml
    and test/test_obs.ml — the service benchmark and the tests drive it. *)

(** [with_ ~name f] runs [f] inside a span.  [attrs] is a thunk so the
    disabled path never builds the attribute list.  Exception-safe: the
    span (and any deeper spans an exception skipped) is closed before
    the exception propagates. *)
val with_ : ?attrs:(unit -> attr list) -> name:string -> (unit -> 'a) -> 'a

(** Drop the calling domain's recorded spans and reset its id
    counter. *)
val reset : unit -> unit
(** Test-only: svcbench/replay.ml, test/par/test_par.ml and test/test_obs.ml
    — the service benchmark and the tests drive it. *)

(** Completed spans of the calling domain, earliest finish first. *)
val completed : unit -> t list
(** Test-only: test/par/test_par.ml and test/test_obs.ml — tests read
    finished spans with it. *)

val collect : (unit -> 'a) -> 'a * t list
(** [collect f] runs [f] and returns the spans it completed, earliest
    finish first, removing them from the domain's record; spans
    completed before [collect] are untouched.  If [f] raises, the spans
    stay recorded as if [f] had been called plainly.  Ids and parents in
    the returned list are domain-local; hand them to {!absorb}. *)

val absorb : t list -> unit
(** [absorb spans] splices spans collected on another domain into the
    calling domain's record: fresh ids are assigned (in the donor's
    start order), parents are remapped, spans whose parent is not in
    the batch are attached under the span currently open here, and
    depths are recomputed from the remapped parents. *)

(** Human-readable tree (indentation = nesting depth), in start order. *)
val export_tree : Format.formatter -> unit

(** One JSON object per completed span, one per line. *)
val export_jsonl : Format.formatter -> unit

(** Chrome [trace_event] JSON array for chrome://tracing / Perfetto. *)
val export_chrome : Format.formatter -> unit

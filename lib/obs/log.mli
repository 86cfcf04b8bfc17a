(** Structured, leveled JSONL event log.

    Off by default: {!event} then only feeds the {!Recorder} ring (the
    always-on flight recorder) and returns without formatting anything.
    Enable with {!enable} — wired to the CLI's [--log[=FILE]] flag — or
    by setting the [NANOXCOMP_LOG] environment variable (["1"] or
    ["-"] for stderr, anything else but [""]/["0"] as a file path).

    When enabled, every event is written as one JSON object per line:
    [{"t_ns": .., "level": "info", "event": "<name>", ...data}].
    Writes are mutex-serialized and flushed per line, so worker domains
    can log directly and the output tails cleanly. *)

type level = Debug | Info | Warn | Error

val enable : ?dest:string -> unit -> unit
(** [enable ~dest ()] turns the log on.  [dest] is ["-"] (default) for
    stderr or a file path (truncated and closed on {!disable} / at
    exit). *)

val disable : unit -> unit
(** Turn the log off, flushing and closing a file destination.
    Test-only: test/test_obs.ml — tests check it directly. *)

val event : ?level:level -> name:string -> (string * Json.t) list -> unit
(** [event ~name data] records the event into the flight-recorder ring
    (always), and writes it as a JSONL line when the log is enabled;
    [level] (default [Info]) labels it in both. *)

val dump_flight : reason:string -> unit
(** When the log is enabled, write a ["flight.dump"] header line
    carrying [reason] followed by one line per retained flight-recorder
    entry (oldest first).  A no-op when the log is disabled, so default
    runs' stderr stays byte-stable. *)

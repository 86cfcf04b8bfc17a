(** Job specifications: the request half of the service protocol.

    A job is one line of JSON.  Every spec carries a [kind] selecting
    the workload; the remaining fields parameterize it and all have the
    CLI's defaults.  Two optional fields apply to every kind:

    - ["id"] — echoed verbatim in the result envelope;
    - ["budget_steps"] — a per-job {!Nxc_guard.Budget} cap (policy
      [Degrade], like the CLI default).

    The kinds and their fields:

    {v
 {"kind":"synth", "expr":"x1x2 + x1'x2'", "cover_backend":"bnb"}
 {"kind":"flow",  "expr":"x1 ^ x2", "n":24, "density":0.05, "seed":42}
 {"kind":"bist",  "rows":8, "cols":8}
 {"kind":"bism",  "n":32, "k":12, "density":0.05, "seed":42,
                  "trials":20, "scheme":"hybrid"}
 {"kind":"yield", "n":32, "density":0.05, "seed":1, "trials":40}
 {"kind":"repair","rows":12, "cols":12, "spare_rows":2, "spare_cols":2,
                  "density":0.05, "seed":42, "trials":20, "mode":"exact"}
    v}

    Parsing is strict — unknown fields, wrong types and out-of-range
    values are [`Invalid_input] errors (CLI exit-code 3), pinned by
    [test/cram/service.t].  Beyond each field's own range, a [bist]
    array needs [cols >= 2] and a [bism] logical side must fit the
    chip ([k <= n]), so every accepted spec runs.  The CLI's simulation
    subcommands build their jobs through {!of_json} too.

    Sizes are bounded so that no single line can exhaust memory.  A
    fabricated chip has at most 256 lines a side: [n] of [flow], [bism]
    and [yield], and [rows + spare_rows], [cols + spare_cols] of
    [repair].  A [bist] array has at most 64 rows and 64 columns, and
    [trials] is at most 100000.  One trial of each kind at its size
    bound peaked at 14 MB RSS on a 2-vCPU host, and 100000 trials of a
    2-side chip at 21 MB.  Before the bounds, a 100000 x 100000 [bist]
    or [bism] line was killed by the OOM killer, and 200000000 trials
    aborted on allocation failure under a 2 GB cap.  The rejections
    are pinned in [test/cram/guard.t].  The bounds do not bound time,
    nor the memory an exact [bism] solve learns over time (258 MB
    after 120 s on one hard 256-side chip): [budget_steps] does. *)

type spec =
  | Synth of {
      expr : string;
      cover_backend : string;
          (** ["bnb"] (default) or ["sat"] — the exact set-cover engine
              used by the minimizer; see {!Nxc_logic.Qm.cover_backend} *)
    }
  | Flow of { expr : string; n : int; density : float; seed : int }
  | Bist of { rows : int; cols : int }
  | Bism of {
      n : int;
      k : int;
      density : float;
      seed : int;
      trials : int;
      scheme : string;
          (** ["blind"], ["greedy"], ["hybrid"] or ["sat"] (exact
              decision via {!Nxc_reliability.Sat_assign}) *)
    }
  | Yield of { n : int; density : float; seed : int; trials : int }
  | Repair of {
      rows : int;  (** logical array dimensions; the fabricated chip is
                       [(rows+spare_rows) x (cols+spare_cols)] *)
      cols : int;
      spare_rows : int;  (** non-negative spare budgets *)
      spare_cols : int;
      density : float;
      seed : int;
      trials : int;
      mode : string;  (** ["exact"] or ["greedy"] *)
    }

type t = { id : string option; budget_steps : int option; spec : spec }

val schemes : string list
(** Every ["scheme"] a [Bism] spec accepts (the CLI's [--scheme]
    values). *)

val repair_modes : string list
(** Every ["mode"] a [Repair] spec accepts (the CLI's [--mode]
    values). *)

val kind : t -> string
(** The spec's ["kind"] string. *)

val of_json : Nxc_obs.Json.t -> (t, Nxc_guard.Error.t) result

val of_line : string -> (t, Nxc_guard.Error.t) result
(** Parse one JSON text line through {!of_json}. *)

val to_json : t -> Nxc_obs.Json.t
(** Canonical re-serialization: fields in a fixed order, defaults made
    explicit, [id] omitted when absent.
    Test-only: bench/main.ml and test/test_service.ml — tests and the bench
    re-serialize jobs with it. *)

val cache_key : t -> string
(** Canonical content key for the non-[Synth] kinds: the spec (with
    defaults expanded, [id] stripped, [budget_steps] kept — a budget
    can change a degraded result) rendered as one JSON line.  Jobs
    differing only in [id] share a key.  [Synth] jobs are keyed by NPN
    class instead — see {!Engine}. *)

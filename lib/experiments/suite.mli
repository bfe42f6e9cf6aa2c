(** The paper-artifact suite: one canonical name list and runner shared
    by the CLI, the benchmark harness and the host benchmark. *)

val paper : string list
(** ["t1"] … ["f2"] — the paper's tables and figures, in paper order. *)

val ablations : string list
(** ["a1"] … ["a6"] — the DESIGN.md ablations. *)

val supplementary : string list
(** ["lat"; "f2s"; "openloop"; "numa"; "transport"] — supplementary
    measurements (latency distribution, the beyond-Figure-2
    multiprocessor scaling study, the open-loop latency-vs-load study,
    placement on a clustered topology, and the transport study). *)

val names : string list
(** [paper @ ablations @ supplementary]. *)

val mem : string -> bool
(** Whether a name is a known artifact. *)

val json_names : string list
(** Artifacts that also have a machine-checkable JSON rendering
    (["f2s"], ["openloop"], ["numa"] and ["transport"]). *)

val json : ?seed:int64 -> ?quick:bool -> ?shedding:bool -> string -> string
(** The JSON rendering of an artifact in {!json_names} — same
    simulation as {!run}, different serialization. Raises
    [Invalid_argument] for artifacts without one. *)

val run : ?seed:int64 -> ?quick:bool -> ?shedding:bool -> string -> string
(** Render one artifact. A pure function of [(seed, quick, shedding,
    name)] — each artifact owns its engine and PRNGs, so results do not
    depend on what else runs, in this domain or another. [quick]
    shrinks sample sizes / horizons for smoke runs. [shedding] swaps
    the ["openloop"] artifact for its overload-control ablation
    ({!Openloop.run_shedding}); it has no effect on other names.
    Raises [Invalid_argument] on an unknown name (callers validate
    first; see {!mem}). *)

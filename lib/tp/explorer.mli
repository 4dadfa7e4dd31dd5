open Simkit

(** Adversarial fault-schedule search.

    A seeded generator samples composite fault schedules over the whole
    {!Faultplan} vocabulary — kills, power cycles, rail flaps, CRC
    noise, silent media decay, torn writes, fail-slow injections, WAN
    partitions — with phase-aware timing: load-phase events land while
    transactions are in flight (including mid-2PC on the cluster kind,
    and mid-resync when a power-cycle motif composes with a resync),
    and recovery-phase events race the replay and in-doubt resolution.
    Each schedule runs as a full drill under {!Drill.Oracle}; any
    violation is minimized by delta debugging under deterministic
    replay and emitted as a repro file that
    [odsbench drill --plan-file repro.json] replays bit-for-bit.

    Schedules are generated from motifs rather than raw action draws:
    motifs encode the liveness pairings the harness needs (rails that
    go down come back up, degraded components are restored, partitions
    heal), so a generated schedule can only fail the oracle's
    invariants, never wedge the drill itself.  The whole corpus is a
    pure function of [(seed, index)]. *)

(** Which drill platform a schedule targets. *)
type kind =
  | Pm  (** PM-mode corruption platform ({!Drill.corruption_config}) *)
  | Disk  (** disk-mode system *)
  | Cluster  (** 2-node PM cluster with 2PC and WAN faults *)
  | Overload  (** flash-crowd drill; explores over the seed only *)

val kind_name : kind -> string
(** ["pm"], ["disk"], ["cluster"], ["overload"]. *)

type schedule = {
  s_index : int;  (** position in the corpus *)
  s_seed : int64;  (** the drill's simulation seed *)
  s_kind : kind;
  s_plan : Faultplan.t;  (** load-phase schedule *)
  s_recovery : Faultplan.t;  (** offsets relative to recovery start *)
}

val generate : seed:int -> index:int -> schedule
(** The [index]-th schedule of corpus [seed] — deterministic, and
    independent of the defenses setting, so the defended and weakened
    explorations run the identical corpus. *)

val corpus : seed:int -> budget:int -> schedule list
(** [generate] for indices [0 .. budget-1]. *)

val corpus_json : seed:int -> budget:int -> Json.t
(** The serialized corpus — the byte-identity witness for the
    same-seed determinism property. *)

val max_outage : Time.span
(** Unavailability bound the oracle enforces on single-system runs. *)

val horizon : Time.span
(** Validation horizon passed to every drill: no generated or replayed
    event may be offset past it. *)

val coverage : schedule list -> ((string * string * string) * int) list
(** (fault family, phase, layer) cells with event counts, sorted.
    Phase is ["load"] or ["recovery"]; layer is ["process"],
    ["pm_device"], ["fabric"], ["disk"], ["wan"], ["control"] or
    ["load"]. *)

(** Outcome of running one schedule. *)
type verdict_or_error =
  | Verdict of Drill.Oracle.verdict
  | Harness_error of string  (** the drill itself refused or wedged *)

val minimize :
  ?max_replays:int ->
  fails:(Faultplan.t * Faultplan.t -> bool) ->
  Faultplan.t * Faultplan.t ->
  (Faultplan.t * Faultplan.t) * int
(** Delta-debug a failing [(plan, recovery_plan)] pair: greedy
    single-action drops to a fixpoint, then halve surviving offsets
    and durations while [fails] still holds.  Returns the minimized
    pair and the number of [fails] evaluations spent.  [max_replays]
    (default 150) bounds the search; on exhaustion the current
    candidate is returned. *)

(** One found-and-shrunk violation. *)
type violation = {
  vi_index : int;
  vi_kind : kind;
  vi_seed : int64;
  vi_actions : int;  (** actions in the generated schedule *)
  vi_shrunk_actions : int;  (** after minimization *)
  vi_replays : int;  (** drills the shrinker spent *)
  vi_schedule : schedule;  (** the minimized schedule *)
  vi_verdict : verdict_or_error;  (** verdict of the minimized schedule *)
  vi_repro : string option;  (** repro file path, when [out_dir] given *)
  vi_flight : string option;  (** flight dump path, when written *)
}

type report = {
  x_seed : int;
  x_budget : int;
  x_defenses : bool;
  x_schedules : schedule list;
  x_violations : violation list;
  x_coverage : ((string * string * string) * int) list;
  x_drills : int;  (** total drills run, shrink replays included *)
}

val found : report -> bool
(** At least one violation. *)

val run :
  ?defenses:bool ->
  ?out_dir:string ->
  ?max_replays:int ->
  ?progress:(int -> bool -> unit) ->
  budget:int ->
  seed:int ->
  unit ->
  report
(** Explore: generate and execute [budget] schedules; shrink every
    violation and replay the minimized schedule once more with the
    flight recorder armed.  When [out_dir] is given, each violation
    writes [repro_NNNN.json] (replayable via
    [odsbench drill --plan-file]) and [flight_NNNN.json] there.
    [progress] is called after each generated schedule with its index
    and whether it violated. *)

val to_json : report -> Json.t
(** Machine-readable exploration report: corpus and drill counts, kind
    mix, violations (with minimized plans and verdicts), pass flag,
    and the (family x phase x layer) coverage table. *)

(** {1 Repro files} *)

type repro = {
  rp_kind : kind;
  rp_seed : int64;
  rp_defenses : bool;
  rp_plan : Faultplan.t;
  rp_recovery : Faultplan.t;
}

val repro_to_json : ?violation:Json.t -> repro -> Json.t
(** Serialize; [violation] embeds the oracle verdict for the record
    (ignored on replay). *)

val repro_of_json : Json.t -> (repro, string) result
(** Parse a repro document.  Errors name the missing field, bad kind,
    or — delegated to {!Faultplan.of_json} — the offending action. *)

(** Which platform replayed the repro; every kind carries the one
    {!Drill.report}. *)
type replay_result =
  | Single of Drill.report
  | Clustered of Drill.report
  | Overloaded of Drill.report

val replay : ?flight:string -> repro -> (replay_result, string) result
(** Re-run a repro exactly: same platform, same seed, same plans.
    Deterministic — two replays of the same file produce identical
    reports.  [flight] dumps when {!replay_verdict} fails. *)

val replay_verdict : replay_result -> Drill.Oracle.verdict
(** Judge a replay as the explorer does: {!Drill.Oracle.of_report}
    with [max_outage], for every kind. *)

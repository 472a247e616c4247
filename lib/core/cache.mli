(** Memoization of the expensive analyses, keyed by {e content}: the
    canonical structural hash of the circuit ({!Netlist.Structhash})
    joined with a fingerprint of the configuration the computation reads
    ({!Store.Key}).  The [~name] argument is display-only metadata — it
    never enters a key, so structurally different circuits submitted
    under one name cannot alias.

    With [SATPG_STORE=dir] set ({!Store.Disk}), results also persist
    across processes: a warm rerun serves every lookup from disk. *)

type atpg_kind =
  | Hitec   (** PODEM + justification, no learning *)
  | Attest  (** simulation-based directed search *)
  | Sest    (** PODEM + dynamic state learning *)

val atpg_kind_name : atpg_kind -> string

(** {1 Cache observability}

    Every lookup increments [core.cache.hits]/[core.cache.misses] in
    {!Obs.Metrics.global}.  A lookup that waited for another domain's
    computation of the same key (see {!memo}) is a hit and also bumps
    [core.cache.coalesced].  The disk layer adds
    [core.cache.disk_hits]/[disk_misses]/[disk_writes]/[disk_errors]
    (the last counts corrupt or stale records that were recomputed
    over).  Paths that knowingly sidestep the cache record a bypass.
    {!last_outcome} reports the most recent outcome for one-line CLI
    reporting. *)

type outcome = Hit | Disk_hit | Miss | Bypassed

val outcome_string : outcome -> string

(** Record that a caller deliberately computed outside the cache. *)
val note_bypass : unit -> unit

val last_outcome : unit -> outcome

(** One-line counter summary, e.g. for end-of-run reporting:
    ["cache: 12 memory hits, 3 disk hits, ..."]. *)
val pp_summary : Format.formatter -> unit -> unit

(** Drop the per-process memory layer (disk records stay). *)
val reset_memory : unit -> unit

(** {1 The memory layer}

    Every analysis below memoizes through one of these tables. *)

(** Finished results and in-flight computations by key, domain-safe. *)
type 'a table

(** A fresh, empty table. *)
val table : unit -> 'a table

(** [memo t ~key fill] returns [t]'s result for [key], running [fill]
    on a miss.  Single-flight: while one domain runs [fill] for [key],
    other domains that miss on [key] wait for its result instead of
    computing it, and meanwhile run pool tasks created since that
    computation began ({!Exec.Pool.await}).  A lookup that could
    deadlock by waiting — on the computing domain itself, from a task
    of a set made after the computation began, or closing a wait-for
    cycle between two computations — runs [fill] itself; [fill] must
    therefore be a deterministic function of [key].  Counts a hit for a
    finished or awaited result (and [coalesced] for the latter); [fill]
    counts its own misses. *)
val memo : 'a table -> key:string -> (unit -> 'a) -> 'a

(** {1 Fault classification} *)

(** Which fault set {!classify} runs on. *)
type classify_universe =
  | Collapsed  (** the engines' collapsed list ({!Fsim.Collapse.list}) *)
  | Invariant
      (** the gate/PI-site Theorem-1 universe
          ({!Analysis.Untest.invariant_faults}) *)

val universe_name : classify_universe -> string

(** Run (or recall) the static untestability classifier
    ({!Analysis.Untest.classify}, default BDD budget).  [product]
    additionally runs the exact product-machine stage.  The cache key
    carries [symbolic], [product], the budget, the universe and the
    classifier version. *)
val classify :
  ?symbolic:bool ->
  ?product:bool ->
  ?universe:classify_universe ->
  name:string ->
  Netlist.Node.t ->
  Analysis.Untest.t

(** Fingerprint of the classification {!atpg} [~prove_untestable:true]
    prunes against ([classify ~product:true], default budget, collapsed
    universe); it joins the pruned run's cache key. *)
val prove_classify_fingerprint : string

(** Run (or recall) an engine on a circuit; [name] labels the persisted
    record but plays no part in the cache key.  [prove_untestable]
    classifies first (through {!classify}, full cascade including the
    exact product stage) and prunes proved faults — the pruned run is
    cached under a distinct key that folds in the classification
    fingerprint.  [struct_learn] forces conflict-driven structural
    learning on or off (default: the [SATPG_LEARN] environment switch);
    the flag is part of the cache key, so the two modes never alias.

    [config] replaces the engine's environment-derived configuration
    ([Atpg.Hitec.config] / [Atpg.Sest.config] / [scaled_config]) with an
    explicit one — `satpg serve` builds it from per-request budgets.  The
    explicit config flows into {!Store.Key.config_fingerprint} exactly
    like the environment one, so a served run and a CLI run with equal
    budgets share one store record.  The [struct_learn] override and the
    attest learn-flag normalization still apply on top. *)
val atpg :
  ?prove_untestable:bool ->
  ?struct_learn:bool ->
  ?config:Atpg.Types.config ->
  atpg_kind ->
  name:string ->
  Netlist.Node.t ->
  Atpg.Types.result

val reach : name:string -> Netlist.Node.t -> Analysis.Reach.result

(** Symbolic reachability (summary only — BDDs are not persistable). *)
val symreach : name:string -> Netlist.Node.t -> Analysis.Symreach.summary

(** {1 Density of encoding}

    The single data path Tables 6–8 and Figure 3 use: explicit {!reach}
    whenever {!Analysis.Reach.feasible} holds, {!symreach} beyond the
    explicit caps.  Both compute density with the same float expression,
    so where both are applicable they agree bit-for-bit. *)

type density = {
  valid : float;            (** reachable-state count *)
  valid_int : int option;   (** as an exact integer when it fits *)
  total : float;            (** [2. ** #DFF] *)
  density : float;          (** valid / total *)
  source : [ `Explicit | `Symbolic ];
}

val density_source_name : [ `Explicit | `Symbolic ] -> string

val density : name:string -> Netlist.Node.t -> density

val structural :
  name:string -> Netlist.Node.t -> Analysis.Structural.result

(** Lint driver: stages the rules (value analyses only run when the
    error-level rules pass), assembles summaries, renders text/JSON, and
    provides the post-transform gate used by the synthesis and retiming
    flows. *)

type netlist_summary = {
  diags : Diag.t list;          (** sorted, most severe first *)
  total_faults : int;           (** size of the collapsed fault list *)
  untestable : int;             (** statically proved untestable of those *)
  invariant_untestable : int;
  (** untestable count over the gate/PI-site full fault universe — the
      retiming-invariant Theorem-1 metric *)
  seq_redundant : int option;
  (** NET008 proved count; [None] when no reachability oracle was
      supplied *)
  scoap : Scoap.t option;       (** [None] when error-level rules fired *)
}

(** Run all netlist rules.  [ffr_top] bounds the NET007 diagnostics.
    [oracle] is the symbolic-reachability oracle (e.g. built on
    {!Analysis.Symreach.can_take}, with the exploration's budget and
    BDD size for the proof payloads) enabling the NET008 sequential-
    redundancy rule; omit it and NET008 is skipped. *)
val lint_netlist :
  ?ffr_top:int -> ?oracle:Netlist_rules.oracle -> Netlist.Node.t ->
  netlist_summary

(** Run all FSM rules, sorted. *)
val lint_fsm : Fsm.Machine.t -> Diag.t list

(** Error-level rules only (cycles + structure); raises [Failure] naming
    [what] and every firing rule.  The post-transform flow gate. *)
val assert_clean : what:string -> Netlist.Node.t -> unit

val pp_counts : Format.formatter -> Diag.t list -> unit
val pp_netlist : Format.formatter -> string * netlist_summary -> unit
val pp_fsm : Format.formatter -> string * Diag.t list -> unit

(** JSON document for one netlist; [include_scoap] embeds per-node SCOAP
    scores. *)
val netlist_to_json :
  ?include_scoap:bool -> name:string -> Netlist.Node.t -> netlist_summary ->
  Obs.Json.t

val fsm_to_json : name:string -> Diag.t list -> Obs.Json.t

(** (rule id, severity, one-line description) for every rule. *)
val catalogue : (string * Diag.severity * string) list

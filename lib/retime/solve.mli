(** Retiming solvers: Leiserson–Saxe FEAS, minimum-period search, and the
    register-deepening pass that reproduces the paper's retimed circuit
    class. *)

(** Combinational arrival times under lag function [r] (edges of retimed
    weight <= 0 propagate); [None] if that subgraph is cyclic. *)
val arrivals : Graph.t -> int array -> float array option

(** Clock period achieved by a retiming (infinite when broken). *)
val period_of : Graph.t -> int array -> float

(** FEAS: a legal retiming meeting [period], or [None].  Gives up as soon
    as some lag exceeds the vertex's fewest registers to a primary output,
    which no later relaxation can undo. *)
val feas : Graph.t -> period:float -> int array option

(** Binary search for the minimum feasible period; returns the best legal
    retiming found and its period. *)
val min_period : ?iterations:int -> Graph.t -> int array * float

val retime_to_period : Graph.t -> period:float -> (int array * float) option

(** Greedy backward atomic moves (the paper's Figure 1) on top of a legal
    retiming: increment lags while legality, the [period] bound, the
    per-gate [max_lag] and the shared-register bound [max_regs] all hold.
    Mutates [r] in place.
    @raise Invalid_argument if [r] is not legal. *)
val deepen :
  Graph.t -> int array -> period:float -> max_lag:int -> max_regs:int -> unit

(** Min-period retiming followed by deepening against the original period
    (times [1 + period_slack]); returns the lags and achieved period. *)
val aggressive :
  Graph.t ->
  ?max_lag:int ->
  ?max_regs_factor:int ->
  ?period_slack:float ->
  unit ->
  int array * float

(* Minimum-period retiming via the Leiserson–Saxe FEAS algorithm and binary
   search over the clock period.  FEAS(P): start from r = 0; up to |V| - 1
   times, compute combinational arrival times on the retimed graph and
   increment the lag of every vertex whose arrival exceeds P, stopping early
   once no later pass can leave the retiming legal (see [feas]).  If the
   clock period of the final retiming meets P and all retimed weights are
   non-negative, P is feasible. *)

let log = Logs.Src.create "retime" ~doc:"retiming"
module Log = (val Logs.src_log log : Logs.LOG)

(* global counters for `satpg --metrics` *)
let m_feas_calls = Obs.Metrics.counter "retime.feas.calls"
let m_feas_relaxations = Obs.Metrics.counter "retime.feas.relaxations"
let m_search_probes = Obs.Metrics.counter "retime.search.probes"
let m_deepen_moves = Obs.Metrics.counter "retime.deepen.moves"

(* Edge indices grouped by dense vertex, as counted arrays: the edges [e]
   with [key e = v >= 0] that satisfy [keep e] are
   [idx.(start.(v)) .. idx.(start.(v + 1) - 1)], in edge order. *)
let group n (edges : Graph.edge array) ~key ~keep =
  let start = Array.make (n + 1) 0 in
  Array.iter
    (fun e ->
      let v = key e in
      if v >= 0 && keep e then start.(v + 1) <- start.(v + 1) + 1)
    edges;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let fill = Array.sub start 0 n in
  let idx = Array.make start.(n) 0 in
  Array.iteri
    (fun i e ->
      let v = key e in
      if v >= 0 && keep e then begin
        idx.(fill.(v)) <- i;
        fill.(v) <- fill.(v) + 1
      end)
    edges;
  (start, idx)

(* Combinational arrival times of the retimed graph: gate-to-gate edges with
   retimed weight <= 0 propagate combinationally.  Returns None if that
   subgraph has a cycle (the retiming is broken).  Arrival times are maxima
   of exact sums along paths, so the visiting order cannot change them. *)
let arrivals g r =
  let n = Graph.num_gates g in
  let edges = g.Graph.edges in
  let start, idx =
    group n edges
      ~key:(fun e -> e.Graph.src_v)
      ~keep:(fun e -> e.Graph.dst_v >= 0 && Graph.retimed_weight r e <= 0)
  in
  let indeg = Array.make n 0 in
  Array.iter
    (fun i ->
      let d = edges.(i).Graph.dst_v in
      indeg.(d) <- indeg.(d) + 1)
    idx;
  let delta = Array.make n 0.0 in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      queue.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    delta.(v) <- delta.(v) +. g.Graph.delays.(v);
    for k = start.(v) to start.(v + 1) - 1 do
      let s = edges.(idx.(k)).Graph.dst_v in
      if delta.(v) > delta.(s) then delta.(s) <- delta.(v);
      indeg.(s) <- indeg.(s) - 1;
      if indeg.(s) = 0 then begin
        queue.(!tail) <- s;
        incr tail
      end
    done
  done;
  if !tail < n then None else Some delta

let period_of g r =
  match arrivals g r with
  | None -> infinity
  | Some delta -> Array.fold_left max 0.0 delta

(* dist.(v): the fewest registers on any path from gate [v] to a primary
   output, max_int when there is none.  Bellman-Ford from the host; edges
   are swept last to first because distances flow backwards, which only
   saves sweeps. *)
let output_distance g =
  let edges = g.Graph.edges in
  let dist = Array.make (Graph.num_gates g) max_int in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = Array.length edges - 1 downto 0 do
      let e = edges.(i) in
      let s = e.Graph.src_v and d = e.Graph.dst_v in
      if s >= 0 && (d < 0 || dist.(d) < max_int) then begin
        let via = e.Graph.weight + if d < 0 then 0 else dist.(d) in
        if via < dist.(s) then begin
          dist.(s) <- via;
          changed := true
        end
      end
    done
  done;
  dist

(* FEAS: returns a legal retiming achieving period <= p, or None.
   Early exit: lags only grow here, and the host's lag is pinned to 0, so
   along any path from [v] to a primary output the retimed weights
   telescope to W(path) - r(v).  Once r(v) > dist(v), the lightest such
   path sums to a negative weight under this and every later retiming, so
   some edge stays illegal and the full-pass loop could only end in None;
   returning None now is exact.  Vertices with no path to an output
   (dist = max_int) get no bound. *)
let feas g ~period:p =
  Obs.Metrics.incr m_feas_calls;
  let n = Graph.num_gates g in
  let dist = output_distance g in
  let r = Array.make n 0 in
  let rec loop i =
    match arrivals g r with
    | None -> None
    | Some delta ->
      let worst = Array.fold_left max 0.0 delta in
      if worst <= p +. 1e-9 then
        if Graph.legal g r then Some (Array.copy r) else None
      else if i >= n then None
      else begin
        Obs.Metrics.incr m_feas_relaxations;
        let doomed = ref false in
        for v = 0 to n - 1 do
          if delta.(v) > p +. 1e-9 then begin
            r.(v) <- r.(v) + 1;
            if r.(v) > dist.(v) then doomed := true
          end
        done;
        if !doomed then None else loop (i + 1)
      end
  in
  loop 0

(* Minimum feasible period by binary search between the largest single gate
   delay and the original circuit's period. *)
let min_period ?(iterations = 24) g =
  Obs.Trace.span "retime.min_period" (fun () ->
      let zero = Array.make (Graph.num_gates g) 0 in
      let upper0 = period_of g zero in
      let lower0 = Array.fold_left max 0.0 g.Graph.delays in
      let best = ref (zero, upper0) in
      let rec search lower upper i =
        if i >= iterations || upper -. lower < 0.005 then ()
        else begin
          Obs.Metrics.incr m_search_probes;
          let mid = (lower +. upper) /. 2.0 in
          match feas g ~period:mid with
          | Some r ->
            let p = period_of g r in
            if p < snd !best then best := (r, p);
            search lower (min mid p) (i + 1)
          | None -> search mid upper (i + 1)
        end
      in
      search lower0 upper0 0;
      !best)

(* Retiming for an explicit target period (used to build the partially
   retimed versions of Table 7).  Returns the achieved period. *)
let retime_to_period g ~period =
  match feas g ~period with
  | Some r -> Some (r, period_of g r)
  | None -> None

(* Deepening: starting from a legal retiming, greedily apply further backward
   atomic moves (increment the lag of a gate) while the retiming stays legal,
   the clock period does not regress beyond [period], lags stay within
   [max_lag], and the shared register count stays within [max_regs].  Each
   accepted move is exactly the paper's Figure-1 atomic transformation: a
   register at a gate's output is replaced by registers at its inputs, which
   multiplies registers across fanin and fanout — the mechanism that dilutes
   the density of encoding.

   Legality is checked incrementally: r(v) + 1 lowers the retimed weight of
   each out-edge of [v] by one, raises each in-edge and leaves the rest
   alone, so from a legal [r] the move is legal exactly when every out-edge
   of [v] has retimed weight >= 1.  A self-loop keeps its weight; the rule
   rejects one of weight 0, a combinational cycle the period check would
   reject as well. *)
let deepen g r ~period ~max_lag ~max_regs =
  if not (Graph.legal g r) then invalid_arg "Solve.deepen: illegal lags";
  let n = Graph.num_gates g in
  let edges = g.Graph.edges in
  let start, out =
    group n edges ~key:(fun e -> e.Graph.src_v) ~keep:(fun _ -> true)
  in
  let rec advanceable v k =
    k >= start.(v + 1)
    || (Graph.retimed_weight r edges.(out.(k)) >= 1 && advanceable v (k + 1))
  in
  let try_move v =
    if r.(v) >= max_lag || not (advanceable v start.(v)) then false
    else begin
      r.(v) <- r.(v) + 1;
      let ok =
        period_of g r <= period +. 1e-9
        && Graph.total_registers_shared g r <= max_regs
      in
      if not ok then r.(v) <- r.(v) - 1 else Obs.Metrics.incr m_deepen_moves;
      ok
    end
  in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < max_lag do
    improved := false;
    incr rounds;
    for v = 0 to n - 1 do
      if try_move v then improved := true
    done
  done

(* The paper's "retime" step: minimum-period retiming followed by deepening.
   The deepening budget is the *original* period, matching the observation
   (paper Table 7) that SIS's retimed circuits trade a small delay gain for a
   large register-count increase; the achieved period of the result is
   reported (never worse than the original, usually better). *)
let aggressive g ?(max_lag = 8) ?(max_regs_factor = 6) ?(period_slack = 0.0)
    () =
  let zero = Array.make (Graph.num_gates g) 0 in
  let original_period = period_of g zero in
  let r, _min_p = min_period g in
  let base_regs = max 1 (Graph.total_registers_shared g zero) in
  let r = Array.copy r in
  deepen g r
    ~period:(original_period *. (1.0 +. period_slack))
    ~max_lag
    ~max_regs:(base_regs * max_regs_factor);
  (r, period_of g r)

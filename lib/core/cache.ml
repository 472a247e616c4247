(* Memoization of the expensive analyses, keyed by *content*: the
   canonical structural hash of the circuit (Netlist.Structhash) joined
   with a fingerprint of the configuration the computation reads
   (Store.Key).  The circuit name is display-only metadata — it labels
   records for humans but never enters a key, so two structurally
   different circuits submitted under the same name get distinct results
   by construction (the aliasing bug the name-keyed memo had), and the
   same circuit under two names shares one computation.

   Two layers.  The per-process memory table serves repeat lookups within
   a run and is single-flight: concurrent misses on one key compute it
   once, the other domains wait for that result while helping the pool
   (see [memo]).  With SATPG_STORE=dir set, Store.Disk adds a persistent
   layer underneath, so a warm rerun recomputes nothing.  Every lookup
   feeds the core.cache.* counters — memory hits (coalesced waits
   included, and also counted apart), disk hits/misses/writes,
   corrupt-record errors — and the `satpg atpg`/`tables` commands report
   them; code paths that knowingly sidestep the cache (e.g. --scoap
   guided runs) record a bypass. *)

type atpg_kind = Hitec | Attest | Sest

let atpg_kind_name = function
  | Hitec -> "hitec"
  | Attest -> "attest"
  | Sest -> "sest"

let hits = Obs.Metrics.counter "core.cache.hits"
let misses = Obs.Metrics.counter "core.cache.misses"
let bypasses = Obs.Metrics.counter "core.cache.bypasses"
let disk_hits = Obs.Metrics.counter "core.cache.disk_hits"
let disk_misses = Obs.Metrics.counter "core.cache.disk_misses"
let disk_writes = Obs.Metrics.counter "core.cache.disk_writes"
let disk_errors = Obs.Metrics.counter "core.cache.disk_errors"
let coalesced = Obs.Metrics.counter "core.cache.coalesced"

(* The cache outcome of the most recent [atpg]/[reach]/[structural] call
   (or explicit bypass note), for one-line CLI reporting.  Domain-local:
   parallel table cells each track their own outcome instead of racing on
   one cell (the CLI reads it from the main domain's sequential flow). *)
type outcome = Hit | Disk_hit | Miss | Bypassed

let last : outcome Domain.DLS.key = Domain.DLS.new_key (fun () -> Miss)
let set_last o = Domain.DLS.set last o

let note_bypass () =
  Obs.Metrics.incr bypasses;
  set_last Bypassed

let outcome_string = function
  | Hit -> "hit"
  | Disk_hit -> "disk-hit"
  | Miss -> "miss"
  | Bypassed -> "bypassed"

let last_outcome () = Domain.DLS.get last

(* The memory layer: one table of finished results and one of in-flight
   computations per analysis, all under [mu].  The lock is held only
   around table reads and writes, never across a computation.

   Single-flight: the first domain to miss a key registers a latch
   (Exec.Pool.latch) for it and computes; a domain that misses on a key
   in flight awaits the latch, helping the pool run the work that
   computation spreads over it (the product stage of a classification,
   an engine's fault batches), then reads the finished result.  It
   counts as a memory hit and as [coalesced].  [Exec.Pool.await]
   refuses to wait where waiting could deadlock: on the domain that is
   computing the key (a re-entrant lookup), inside a task of a set made
   after the computation began (it may be part of that computation), or
   while the domain holds a newer latch (closing a wait-for cycle).
   Such a caller computes the value itself and counts a miss; results
   are deterministic functions of the key, so the duplicate replace is
   idempotent.  If the computing domain raises, its waiters retry the
   lookup from the start. *)
let mu = Mutex.create ()

type 'a table = {
  results : (string, 'a) Hashtbl.t;
  flights : (string, Exec.Pool.latch) Hashtbl.t;
}

let table () = { results = Hashtbl.create 64; flights = Hashtbl.create 8 }

let hit r =
  Obs.Metrics.incr hits;
  set_last Hit;
  r

let rec memo t ~key fill =
  let found =
    Mutex.protect mu (fun () ->
        match Hashtbl.find_opt t.results key with
        | Some r -> `Done r
        | None ->
          (match Hashtbl.find_opt t.flights key with
           | Some l -> `In_flight l
           | None ->
             let l = Exec.Pool.latch () in
             Hashtbl.replace t.flights key l;
             `Mine l))
  in
  let compute () =
    let r = fill () in
    Mutex.protect mu (fun () -> Hashtbl.replace t.results key r);
    r
  in
  match found with
  | `Done r -> hit r
  | `In_flight l ->
    if Exec.Pool.await l then
      match Mutex.protect mu (fun () -> Hashtbl.find_opt t.results key) with
      | Some r ->
        Obs.Metrics.incr coalesced;
        hit r
      | None -> memo t ~key fill
    else compute ()
  | `Mine l ->
    Exec.Pool.hold l (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Mutex.protect mu (fun () -> Hashtbl.remove t.flights key))
          compute)

(* Memory first, then (when SATPG_STORE is set) the disk record, then a
   fresh computation whose result back-fills both layers.  A corrupt disk
   record is counted and recomputed over, never propagated. *)
let lookup t ~skind ~key ~name ~encode ~decode compute =
  memo t ~key @@ fun () ->
  let from_disk =
    if not (Store.Disk.enabled ()) then None
    else
      match Store.Disk.load skind ~key with
      | Store.Disk.Found payload ->
        (match decode payload with
         | Some r ->
           Obs.Metrics.incr disk_hits;
           Some r
         | None ->
           Obs.Metrics.incr disk_errors;
           None)
      | Store.Disk.Absent ->
        Obs.Metrics.incr disk_misses;
        None
      | Store.Disk.Corrupt _ ->
        Obs.Metrics.incr disk_errors;
        None
  in
  match from_disk with
  | Some r ->
    set_last Disk_hit;
    r
  | None ->
    Obs.Metrics.incr misses;
    set_last Miss;
    let r = compute () in
    if Store.Disk.save skind ~key ~name (encode r) then
      Obs.Metrics.incr disk_writes;
    r

let atpg_results : Atpg.Types.result table = table ()
let classify_results : Analysis.Untest.t table = table ()
let reach_results : Analysis.Reach.result table = table ()
let symreach_results : Analysis.Symreach.summary table = table ()
let structural_results : Analysis.Structural.result table = table ()

(* Drop the per-process memory layer (disk records stay).  For tests and
   long-lived callers that re-synthesize under changed budgets.
   Computations in flight still complete and record their results. *)
let reset_memory () =
  let clear t = Hashtbl.reset t.results in
  Mutex.protect mu (fun () ->
      clear atpg_results;
      clear classify_results;
      clear reach_results;
      clear symreach_results;
      clear structural_results)

type classify_universe = Collapsed | Invariant

let universe_name = function
  | Collapsed -> "collapsed"
  | Invariant -> "invariant"

(* Fault classification (Analysis.Untest), cached like every other
   analysis.  [universe] picks the fault set: [Collapsed] is the
   engines' list (what [atpg ~prove_untestable] prunes against),
   [Invariant] the gate/PI-site Theorem-1 comparison universe of
   [satpg classify --check]. *)
let classify ?(symbolic = true) ?(product = false) ?(universe = Collapsed)
    ~name c =
  let max_nodes = Analysis.Symreach.default_max_nodes in
  let key =
    Store.Key.classify ~symbolic ~max_nodes ~product
      ~universe:(universe_name universe)
      ~circuit_hash:(Netlist.Structhash.circuit c)
  in
  lookup classify_results ~skind:Store.Disk.Classify ~key ~name
    ~encode:Store.Codec.untest_to_json ~decode:Store.Codec.untest_of_json
    (fun () ->
      let faults =
        match universe with
        | Collapsed -> None
        | Invariant -> Some (Analysis.Untest.invariant_faults c)
      in
      Analysis.Untest.classify ~symbolic ~max_nodes ~product ?faults c)

(* The classification [atpg ~prove_untestable] prunes against: the
   default [classify ~product:true] on the collapsed universe. *)
let prove_classify_fingerprint =
  Store.Key.classify_fingerprint ~symbolic:true
    ~max_nodes:Analysis.Symreach.default_max_nodes ~product:true
    ~universe:(universe_name Collapsed)

let atpg ?(prove_untestable = false) ?struct_learn ?config kind ~name c =
  let config =
    (* an explicit config (serve's per-request budgets) replaces the
       environment-derived recipe; both shapes reach Store.Key through
       the same fingerprint, so equal budgets mean equal records *)
    match config with
    | Some cfg -> cfg
    | None ->
      (match kind with
       | Hitec -> Atpg.Hitec.config ()
       | Sest -> Atpg.Sest.config ()
       | Attest -> Atpg.Types.scaled_config ())
  in
  (* [struct_learn] overrides the SATPG_LEARN default baked in by
     [scaled_config]; the flag is part of the config fingerprint, so
     learn-on and learn-off runs never share a cache record *)
  let config =
    match struct_learn with
    | None -> config
    | Some b -> { config with Atpg.Types.struct_learn = b }
  in
  (* the simulation-based attest engine has no branch structure to learn
     from: normalize the flag off so a --learn attest run shares the
     cache line of the plain one instead of recomputing it verbatim *)
  let config =
    match kind with
    | Attest -> { config with Atpg.Types.struct_learn = false }
    | Hitec | Sest -> config
  in
  (* classify first (its own cache line) so the prune predicate and the
     classify fingerprint in the ATPG key agree by construction *)
  let prune, classify_fp =
    if not prove_untestable then (None, None)
    else
      (* the full cascade including the exact product stage: the engines
         are about to spend real budget, so buy every sound proof first *)
      let cls = classify ~product:true ~name c in
      (Some (Analysis.Untest.prune cls), Some prove_classify_fingerprint)
  in
  let key =
    Store.Key.atpg ~engine:(atpg_kind_name kind) ~config ?classify:classify_fp
      ~circuit_hash:(Netlist.Structhash.circuit c) ()
  in
  lookup atpg_results ~skind:Store.Disk.Atpg ~key ~name
    ~encode:Store.Codec.atpg_result_to_json
    ~decode:Store.Codec.atpg_result_of_json
    (fun () ->
      match kind with
      | Hitec -> Atpg.Run.generate ~config ~engine:"hitec" ?prune c
      | Sest -> Atpg.Run.generate ~config ~engine:"sest" ?prune c
      | Attest -> Atpg.Attest.generate ~config ?prune c)

let reach ~name c =
  let max_states = Analysis.Reach.default_max_states in
  let key =
    Store.Key.reach ~max_states ~circuit_hash:(Netlist.Structhash.circuit c)
  in
  lookup reach_results ~skind:Store.Disk.Reach ~key ~name
    ~encode:Store.Codec.reach_result_to_json
    ~decode:Store.Codec.reach_result_of_json
    (fun () -> Analysis.Reach.explore ~max_states ~name c)

let symreach ~name c =
  let max_nodes = Analysis.Symreach.default_max_nodes in
  let key =
    Store.Key.symreach ~max_nodes ~circuit_hash:(Netlist.Structhash.circuit c)
  in
  lookup symreach_results ~skind:Store.Disk.Symreach ~key ~name
    ~encode:Store.Codec.symreach_summary_to_json
    ~decode:Store.Codec.symreach_summary_of_json
    (fun () -> (Analysis.Symreach.explore ~max_nodes c).Analysis.Symreach.summary)

(* The density-of-encoding data path of Tables 6-8 and Figure 3: explicit
   BFS wherever it is feasible (seed benchmarks — keeps the table numbers
   grounded in enumeration), symbolic BDD reachability beyond the caps.
   Both paths share one float expression for density, so on any circuit
   where both run the results are bit-identical (tested, and enforced by
   `satpg reach --check`). *)
type density = {
  valid : float;
  valid_int : int option;
  total : float;
  density : float;
  source : [ `Explicit | `Symbolic ];
}

let density_source_name = function
  | `Explicit -> "explicit"
  | `Symbolic -> "symbolic"

let density ~name c =
  if Analysis.Reach.feasible c then begin
    let r = reach ~name c in
    let valid = float_of_int r.Analysis.Reach.valid_states in
    let total = Analysis.Reach.total_states r in
    {
      valid;
      valid_int = Some r.Analysis.Reach.valid_states;
      total;
      density = Analysis.Reach.density r;
      source = `Explicit;
    }
  end
  else begin
    let s = symreach ~name c in
    {
      valid = s.Analysis.Symreach.valid_states;
      valid_int = s.Analysis.Symreach.valid_states_int;
      total = Analysis.Symreach.total_states s;
      density = Analysis.Symreach.density s;
      source = `Symbolic;
    }
  end

let structural ~name c =
  let depth_budget = Analysis.Structural.default_depth_budget in
  let cycle_budget = Analysis.Structural.default_cycle_budget in
  let key =
    Store.Key.structural ~depth_budget ~cycle_budget
      ~circuit_hash:(Netlist.Structhash.circuit c)
  in
  lookup structural_results ~skind:Store.Disk.Structural ~key ~name
    ~encode:Store.Codec.structural_result_to_json
    ~decode:Store.Codec.structural_result_of_json
    (fun () -> Analysis.Structural.analyze ~depth_budget ~cycle_budget c)

(* One-line summary of the cache counters, for end-of-run reporting. *)
let pp_summary ppf () =
  Fmt.pf ppf
    "cache: %d memory hits (%d coalesced), %d disk hits, %d misses, %d \
     bypassed%s"
    (Obs.Metrics.count hits)
    (Obs.Metrics.count coalesced)
    (Obs.Metrics.count disk_hits)
    (Obs.Metrics.count misses)
    (Obs.Metrics.count bypasses)
    (match Store.Disk.dir () with
     | Some d ->
       Printf.sprintf " (store %s: %d writes, %d stale/corrupt)" d
         (Obs.Metrics.count disk_writes)
         (Obs.Metrics.count disk_errors)
     | None -> "")

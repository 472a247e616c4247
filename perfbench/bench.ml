(* One measured pass of a benchmark workload, in a fresh process.

   Usage:
     bench.exe table2|prove|serve --seed N [--trace] [--setup-only]
               [--root DIR] [--dir DIR] [--satpg EXE]

   The pass builds its inputs from the seed, runs the workload once and
   prints one JSON object on its last stdout line with the raw
   measurements (run time, set-up samples, per-job latencies, peak RSS,
   ATPG totals, per-item output observations).  [perfbench/run.py] starts
   the passes, compares the observations with [expected.json] and reduces
   everything to the metrics named in BENCHMARK.json.

   Every pass reports its layer counters (read from Obs.Metrics, from
   result records, or from the daemon's stats and /metrics), which cost
   nothing to collect.  With [--trace] the pass also records in-memory
   spans around every call into a layer and reports per-layer busy
   times; the spans are written to [--spans FILE] when the pass ends.
   Spans are recorded only here, around calls into the layers' public
   functions; the library code is unchanged. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------ spans - *)

module Span = struct
  type t = {
    id : int;
    name : string;
    parent : int;  (** 0 = root *)
    req : int;     (** request id, 0 = none *)
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let lock = Mutex.create ()
  let recorded : t list ref = ref []
  let next = Atomic.make 1

  (* open spans of the current domain, innermost first *)
  let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

  let current () =
    match Domain.DLS.get stack with p :: _ -> p | [] -> 0

  (* [with_span name f] runs [f id] inside a span.  The parent is the
     innermost open span of this domain unless [parent] names one; an
     explicit parent leaves the domain's stack alone, so systhreads
     sharing a domain can record their own trees. *)
  let with_span ?parent ?(req = 0) name f =
    if not !on then f 0
    else begin
      let id = Atomic.fetch_and_add next 1 in
      let scoped = parent = None in
      let parent = match parent with Some p -> p | None -> current () in
      let saved = Domain.DLS.get stack in
      if scoped then Domain.DLS.set stack (id :: saved);
      let t0 = now () in
      let finish () =
        let t1 = now () in
        if scoped then Domain.DLS.set stack saved;
        Mutex.protect lock (fun () ->
            recorded := { id; name; parent; req; t0; t1 } :: !recorded)
      in
      match f id with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  let span ?parent ?req name f = with_span ?parent ?req name (fun _ -> f ())

  (* Add a finished span, timed elsewhere, under the innermost open
     span of this domain. *)
  let record name t0 t1 =
    if !on then begin
      let id = Atomic.fetch_and_add next 1 in
      Mutex.protect lock (fun () ->
          recorded :=
            { id; name; parent = current (); req = 0; t0; t1 } :: !recorded)
    end

  (* Run [f] (a pool task, possibly on another domain) as a child of
     [parent]. *)
  let adopt parent f =
    if not !on then f ()
    else begin
      let saved = Domain.DLS.get stack in
      Domain.DLS.set stack [ parent ];
      Fun.protect ~finally:(fun () -> Domain.DLS.set stack saved) f
    end

  let reset () =
    recorded := [];
    Atomic.set next 1

  (* Total length of the union of [intervals]. *)
  let union_length intervals =
    let sorted = List.sort compare intervals in
    let total, last =
      List.fold_left
        (fun (total, cur) (a, b) ->
          match cur with
          | None -> (total, Some (a, b))
          | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, max cb b))
            else (total +. (cb -. ca), Some (a, b)))
        (0.0, None) sorted
    in
    match last with Some (a, b) -> total +. (b -. a) | None -> total

  (* Per span name: (calls, total duration, self time).  Self time is a
     span's duration minus the union of its children's intervals. *)
  let summary () =
    let spans = !recorded in
    let children = Hashtbl.create 64 in
    List.iter
      (fun s -> Hashtbl.add children s.parent (s.t0, s.t1))
      spans;
    let table = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let kids =
          List.map
            (fun (a, b) -> (max a s.t0, min b s.t1))
            (Hashtbl.find_all children s.id)
          |> List.filter (fun (a, b) -> b > a)
        in
        let dur = s.t1 -. s.t0 in
        let self = dur -. union_length kids in
        let n, d, sf =
          Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt table s.name)
        in
        Hashtbl.replace table s.name (n + 1, d +. dur, sf +. self))
      spans;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
    |> List.sort compare

  let busy name =
    List.fold_left
      (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
      0.0 !recorded

  (* Share of [t0, t1] that no span other than [root] covers. *)
  let uncovered ~root t0 t1 =
    let covered =
      List.filter_map
        (fun s ->
          if s.id = root then None
          else
            let a = max t0 s.t0 and b = min t1 s.t1 in
            if b > a then Some (a, b) else None)
        !recorded
      |> union_length
    in
    1.0 -. (covered /. (t1 -. t0))

  let to_json () =
    Obs.Json.List
      (List.rev_map
         (fun s ->
           Obs.Json.Obj
             [
               ("id", Obs.Json.Int s.id);
               ("name", Obs.Json.String s.name);
               ("parent", Obs.Json.Int s.parent);
               ("req", Obs.Json.Int s.req);
               ("t0", Obs.Json.Float s.t0);
               ("t1", Obs.Json.Float s.t1);
             ])
         !recorded)
end

(* ---------------------------------------------------------- helpers - *)

let counter name = Obs.Metrics.count (Obs.Metrics.counter name)

let layer_counters =
  [
    "retime.feas.calls"; "retime.feas.relaxations"; "untest.faults_classified";
    "untest.work"; "untest.proved"; "bdd.cache_hits"; "bdd.cache_lookups";
    "atpg.podem.decisions"; "atpg.podem.backtracks"; "fsim.vectors";
    "core.cache.hits"; "core.cache.misses"; "core.cache.disk_writes";
  ]

let read_counters () = List.map (fun n -> (n, counter n)) layer_counters

let delta before after =
  List.map2 (fun (n, a) (_, b) -> (n, b - a)) before after

(* VmHWM of a process ("self" or a pid), in MiB. *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        (try Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.0)
         with Scanf.Scan_failure _ | End_of_file -> go ())
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) go

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let median = function
  | [] -> 0.0
  | l -> List.nth (List.sort compare l) (List.length l / 2)

let sum = List.fold_left ( +. ) 0.0

let json_int path j =
  let rec walk j = function
    | [] -> Obs.Json.to_int_opt j
    | k :: rest -> Option.bind (Obs.Json.member k j) (fun j -> walk j rest)
  in
  Option.value ~default:0 (walk j path)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let ready () =
  print_endline "ready";
  flush stdout

(* ATPG totals over a set of results: coverage and efficiency are pooled
   over every fault of every result. *)
type totals = {
  mutable faults : int;
  mutable detected : int;
  mutable effective : int;  (** detected + redundant + proved untestable *)
  mutable aborted : int;
  mutable work_units : int;
}

let new_totals () =
  { faults = 0; detected = 0; effective = 0; aborted = 0; work_units = 0 }

let add_counts t ~faults ~detected ~redundant ~proved ~aborted ~work =
  t.faults <- t.faults + faults;
  t.detected <- t.detected + detected;
  t.effective <- t.effective + detected + redundant + proved;
  t.aborted <- t.aborted + aborted;
  t.work_units <- t.work_units + work

let status_count (r : Atpg.Types.result) st =
  Array.fold_left (fun a s -> if s = st then a + 1 else a) 0 r.Atpg.Types.status

let add_result t (r : Atpg.Types.result) =
  add_counts t
    ~faults:(Array.length r.Atpg.Types.faults)
    ~detected:(status_count r Fsim.Fault.Detected)
    ~redundant:(status_count r Fsim.Fault.Redundant)
    ~proved:(status_count r Fsim.Fault.Proved_untestable)
    ~aborted:(status_count r Fsim.Fault.Aborted)
    ~work:(Atpg.Types.work_units r.Atpg.Types.stats)

(* The per-result observation the output checks compare. *)
let observe (r : Atpg.Types.result) =
  [
    ("faults", Obs.Json.Int (Array.length r.Atpg.Types.faults));
    ("detected", Obs.Json.Int (status_count r Fsim.Fault.Detected));
    ("redundant", Obs.Json.Int (status_count r Fsim.Fault.Redundant));
    ("proved", Obs.Json.Int (status_count r Fsim.Fault.Proved_untestable));
  ]

(* What one pass hands to run.py. *)
type pass = {
  setup : float list;  (** set-up samples measured inside the pass *)
  run_s : float;
  jobs : float list;
      (** per-job latencies, seconds: a job's own time (a table2 row's
          build plus its cell, a prove cell, a serve round trip) *)
  rss_mb : float;
  totals : totals;
  attempted : int;
  failed : int;        (** failures found inside the pass (serve) *)
  checks : (string * Obs.Json.t) list;  (** observations to compare *)
  counts : (string * Obs.Json.t) list;  (** per-layer counts, every pass *)
  busy : (string * Obs.Json.t) list;    (** per-layer times, traced pass *)
  uncovered : float;   (** share of run_s no span covers, traced pass *)
}

(* Per-layer counts from Obs.Metrics counter deltas [d], ATPG totals [t]
   and the number of distinct cache keys the pass asked for. *)
let counts_of d t ~distinct_keys =
  let c n = List.assoc n d in
  [
    ("retime.feas_calls", Obs.Json.Int (c "retime.feas.calls"));
    ("retime.feas_relaxations", Obs.Json.Int (c "retime.feas.relaxations"));
    ("untest.faults_classified", Obs.Json.Int (c "untest.faults_classified"));
    ("untest.work", Obs.Json.Int (c "untest.work"));
    ("untest.proved", Obs.Json.Int (c "untest.proved"));
    ( "untest.proof_yield",
      Obs.Json.Float (ratio (c "untest.proved") (c "untest.faults_classified"))
    );
    ( "bdd.cache_hit_ratio",
      Obs.Json.Float (ratio (c "bdd.cache_hits") (c "bdd.cache_lookups")) );
    ("atpg.work_units", Obs.Json.Int t.work_units);
    ("atpg.aborted", Obs.Json.Int t.aborted);
    ("atpg.podem_decisions", Obs.Json.Int (c "atpg.podem.decisions"));
    ("atpg.podem_backtracks", Obs.Json.Int (c "atpg.podem.backtracks"));
    ("fsim.vectors", Obs.Json.Int (c "fsim.vectors"));
    ( "cache.hit_ratio",
      Obs.Json.Float
        (ratio (c "core.cache.hits")
           (c "core.cache.hits" + c "core.cache.misses")) );
    ("cache.misses", Obs.Json.Int (c "core.cache.misses"));
    ( "cache.redundant_computes",
      Obs.Json.Int (c "core.cache.misses" - distinct_keys) );
    ("store.disk_writes", Obs.Json.Int (c "core.cache.disk_writes"));
  ]

let utilization ~cells ~run_s =
  ( "exec.utilization",
    Obs.Json.Float (sum cells /. (run_s *. float_of_int (Exec.Pool.jobs ()))) )

let busy_of names =
  List.map (fun (metric, span) -> (metric, Obs.Json.Float (Span.busy span))) names

let root_uncovered t0 t1 =
  match List.find_opt (fun s -> s.Span.name = "run") !Span.recorded with
  | Some root -> Span.uncovered ~root:root.Span.id t0 t1
  | None -> 0.0

(* ---------------------------------------------------------- table2 - *)

(* The paper pipeline from FSM name to Table-2 row: build the pair
   (synthesis, retiming, lint gate) sequentially as Core.Tables does,
   then run the HITEC-style engine and the density analysis of each row
   on the pool.  The rows are the paper's; the seed only fixes the order
   in which the pairs are built.  A row's latency is its own cost: its
   build plus its cell on the pool. *)

let table2_rows =
  [
    ("dk16", Synth.Assign.Input_dominant, Synth.Flow.Delay);
    ("pma", Synth.Assign.Output_dominant, Synth.Flow.Delay);
    ("s510", Synth.Assign.Combined, Synth.Flow.Delay);
    ("s820", Synth.Assign.Combined, Synth.Flow.Delay);
  ]

(* Core.Flow.build wraps its layers in Obs.Trace spans.  The traced
   pass builds under a sink with a wall clock and turns those events
   into spans under the open [build] span; the sink is removed before
   the pool runs, since the ATPG drivers go sequential under a sink. *)
let flow_spans =
  [
    ("flow.synth", "synth"); ("flow.retime", "retime");
    ("flow.lint_retimed", "lint");
  ]

let traced_build fsm algorithm script =
  let wall0 = ref nan in
  let clock () =
    let t = now () in
    if Float.is_nan !wall0 then wall0 := t;
    t
  in
  let sink = Obs.Trace.create ~wallclock:clock () in
  Obs.Trace.install sink;
  let p =
    Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
        Core.Flow.build fsm algorithm script)
  in
  let opened = Hashtbl.create 4 in
  (match Obs.Json.member "traceEvents" (Obs.Trace.to_chrome sink) with
   | Some (Obs.Json.List events) ->
     List.iter
       (fun e ->
         let str k = Option.bind (Obs.Json.member k e) Obs.Json.to_string_opt in
         let span = Option.bind (str "name") (fun n -> List.assoc_opt n flow_spans) in
         match (span, str "ph") with
         | Some name, Some ph ->
           let us = json_int [ "args"; "wall_us" ] e in
           let t = !wall0 +. (1e-6 *. float_of_int us) in
           if ph = "B" then Hashtbl.replace opened name t
           else
             Option.iter
               (fun t0 -> Span.record name t0 t)
               (Hashtbl.find_opt opened name)
         | _ -> ())
       events
   | _ -> ());
  p

let table2_pass ~seed ~traced =
  let rows = shuffle (Random.State.make [| seed; 0x7ab1e2 |]) table2_rows in
  let c0 = read_counters () in
  let t0 = now () in
  let cells =
    Span.with_span "run" (fun root ->
        let built =
          List.map
            (fun ((fsm, alg, script) as row) ->
              let a = now () in
              let p =
                Span.span "build" (fun () ->
                    if traced then traced_build fsm alg script
                    else Core.Flow.build fsm alg script)
              in
              (row, (p, now () -. a)))
            rows
        in
        (* the cells go to the pool in the paper's row order, so the
           seed never changes how rows share the domains *)
        Exec.Pool.map_list
          (fun row ->
            let (p : Core.Flow.pair), build_s = List.assoc row built in
            Span.adopt root (fun () ->
                let a = now () in
                let row, t6o, t6r =
                  Span.span "cell" (fun () ->
                      let row =
                        Span.span "atpg" (fun () ->
                            Core.Tables.Atpg_pair.compute Core.Cache.Hitec p)
                      in
                      Span.span "density" (fun () ->
                          ( row,
                            Core.Tables.T6.one p.Core.Flow.name
                              p.Core.Flow.original,
                            Core.Tables.T6.one
                              (p.Core.Flow.name ^ ".re")
                              p.Core.Flow.retimed )))
                in
                (p, row, t6o, t6r, now () -. a, build_s)))
          table2_rows)
  in
  let t1 = now () in
  let d = delta c0 (read_counters ()) in
  let run_s = t1 -. t0 in
  (* observations, read back from the memory layer after the counters *)
  let totals = new_totals () in
  let checks =
    List.concat_map
      (fun ((p : Core.Flow.pair), (row : Core.Tables.Atpg_pair.row), t6o, t6r, _, _)
         ->
        let one name c fc (t6 : Core.Tables.T6.row) =
          let r = Core.Cache.atpg Core.Cache.Hitec ~name c in
          add_result totals r;
          ( name,
            Obs.Json.Obj
              (observe r
              @ [
                  ("fc_row", Obs.Json.Float fc);
                  ("states_trav", Obs.Json.Int t6.Core.Tables.T6.states_trav);
                  ("valid_states", Obs.Json.Float t6.Core.Tables.T6.valid_states);
                ]) )
        in
        [
          one p.Core.Flow.name p.Core.Flow.original
            row.Core.Tables.Atpg_pair.fc_orig t6o;
          one (p.Core.Flow.name ^ ".re") p.Core.Flow.retimed
            row.Core.Tables.Atpg_pair.fc_re t6r;
        ])
      cells
  in
  (* each circuit is asked for one ATPG result and one density *)
  let distinct_keys =
    2
    * List.length
        (List.sort_uniq compare
           (List.concat_map
              (fun ((p : Core.Flow.pair), _, _, _, _, _) ->
                [
                  Netlist.Structhash.circuit p.Core.Flow.original;
                  Netlist.Structhash.circuit p.Core.Flow.retimed;
                ])
              cells))
  in
  {
    setup = [];
    run_s;
    jobs =
      List.map (fun (_, _, _, _, cell_s, build_s) -> build_s +. cell_s) cells;
    rss_mb = peak_rss_mb "self";
    totals;
    attempted = List.length checks;
    failed = 0;
    checks;
    counts =
      counts_of d totals ~distinct_keys
      @ [ utilization ~cells:(List.map (fun (_, _, _, _, c, _) -> c) cells) ~run_s ];
    busy =
      busy_of
        [
          ("retime.busy_s", "retime"); ("synth.busy_s", "synth");
          ("density.busy_s", "density"); ("atpg.busy_s", "atpg");
        ];
    uncovered = (if traced then root_uncovered t0 t1 else 0.0);
  }

(* ----------------------------------------------------------- prove - *)

(* The engine x circuit grid of Core.Cache.atpg ~prove_untestable:true
   over three generated machines, original and retimed.  The machines
   are fixed, so every seed pays the same work and the recorded
   per-cell counts check every run.  They leave half or more of their
   transitions unspecified, which is what makes faults sequentially
   redundant: each of them has faults that only the exact product stage
   proves untestable (12 in all), beside hundreds the cheaper stages
   prove, so losing any proof fails a check.  The seed fixes the order
   of the engines within each circuit, and so which two cells of a
   circuit start its classification. *)

(* generator seed, states, inputs, outputs, share of transitions left
   unspecified *)
let prove_machines =
  [ (1, 16, 4, 4, 0.5); (2, 16, 4, 4, 0.5); (3, 12, 2, 1, 0.6) ]
let prove_setups = 3  (* set-up builds per pass; one takes about 0.2 s *)
let engines = [ Core.Cache.Hitec; Core.Cache.Attest; Core.Cache.Sest ]

let prove_circuits () =
  List.concat_map
    (fun (seed, num_states, num_inputs, num_outputs, drop_prob) ->
      let m =
        Fsm.Generate.generate
          {
            Fsm.Generate.default_spec with
            Fsm.Generate.name = Printf.sprintf "gen%d" seed;
            num_states;
            num_inputs;
            num_outputs;
            drop_prob;
            seed;
          }
      in
      let r =
        Span.span "synth" (fun () ->
            Synth.Flow.synthesize ~algorithm:Synth.Assign.Combined
              ~script:Synth.Flow.Delay m)
      in
      let c = r.Synth.Flow.circuit in
      let re, _, _ =
        Span.span "retime" (fun () -> Retime.Apply.retime_aggressive c)
      in
      [ (r.Synth.Flow.name, c); (r.Synth.Flow.name ^ ".re", re) ])
    prove_machines

let prove_pass ~seed ~traced ~classify_first =
  (* set-up: build the circuits several times; the counters and spans
     of the last build stand for one set-up *)
  let setup_s = ref [] and circuits = ref [] and setup_d = ref [] in
  for _ = 1 to prove_setups do
    Span.reset ();
    let c0 = read_counters () in
    let a = now () in
    circuits := prove_circuits ();
    setup_s := (now () -. a) :: !setup_s;
    setup_d := delta c0 (read_counters ())
  done;
  let circuits = !circuits and setup_d = !setup_d in
  let setup_busy =
    busy_of [ ("retime.busy_s", "retime"); ("synth.busy_s", "synth") ]
  in
  let rng = Random.State.make [| seed; 0x9a0e |] in
  let grid =
    List.concat_map
      (fun (name, c) -> List.map (fun e -> (name, c, e)) (shuffle rng engines))
      circuits
  in
  ready ();
  Span.reset ();
  let c0 = read_counters () in
  let t0 = now () in
  let cells =
    Span.with_span "run" (fun root ->
        (* classify each circuit once before the grid (always when
           traced), so the prover's time is its own span; the grid's
           classify lookups then hit *)
        if classify_first then
          ignore
            (Exec.Pool.map_list
               (fun (name, c) ->
                 Span.adopt root (fun () ->
                     Span.span "untest" (fun () ->
                         Core.Cache.classify ~product:true ~name c)))
               circuits);
        Exec.Pool.map_list
          (fun (name, c, e) ->
            Span.adopt root (fun () ->
                let a = now () in
                let r =
                  Span.span "atpg" (fun () ->
                      Core.Cache.atpg ~prove_untestable:true e ~name c)
                in
                (name, e, r, now () -. a)))
          grid)
  in
  let t1 = now () in
  let d = delta c0 (read_counters ()) in
  (* retiming runs only during set-up: its counters are one set-up's *)
  let d =
    List.map
      (fun (n, v) ->
        if String.starts_with ~prefix:"retime." n then (n, List.assoc n setup_d)
        else (n, v))
      d
  in
  let run_s = t1 -. t0 in
  let totals = new_totals () in
  let checks =
    List.map
      (fun (name, e, r, _) ->
        add_result totals r;
        (name ^ "/" ^ Core.Cache.atpg_kind_name e, Obs.Json.Obj (observe r)))
      cells
    |> List.sort compare
  in
  (* one classify and one ATPG result per engine, per circuit *)
  let distinct_keys =
    (1 + List.length engines)
    * List.length
        (List.sort_uniq compare
           (List.map (fun (_, c) -> Netlist.Structhash.circuit c) circuits))
  in
  let cell_s = List.map (fun (_, _, _, s) -> s) cells in
  {
    setup = List.rev !setup_s;
    run_s;
    jobs = cell_s;
    rss_mb = peak_rss_mb "self";
    totals;
    attempted = List.length checks;
    failed = 0;
    checks;
    counts =
      counts_of d totals ~distinct_keys @ [ utilization ~cells:cell_s ~run_s ];
    busy =
      setup_busy
      @ busy_of [ ("untest.busy_s", "untest"); ("atpg.busy_s", "atpg") ];
    uncovered = (if traced then root_uncovered t0 t1 else 0.0);
  }

(* ----------------------------------------------------------- serve - *)

(* A `satpg serve --unix` child, driven in a closed
   loop over two connections: each client sends its next request only
   after the previous reply arrived. *)

let serve_requests = 4000
let serve_clients = 2
let serve_starts = 5
let serve_generated = 200

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type conn = { ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    Some { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close_conn c = close_in_noerr c.ic

let rpc c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let stats_line = {|{"verb":"stats"}|}

type daemon = { pid : int; sock : string }

(* Start a daemon in the current directory (socket and store are
   relative names, so the socket path stays short wherever the checkout
   lives) and wait for its first stats reply; returns the daemon and its
   start-up time.  [store] gives it a fresh SATPG_STORE. *)
let start_daemon ~satpg ~store ~tag =
  let sock = tag ^ ".sock" in
  let env =
    Array.append
      (Array.append
         [| "SATPG_BUDGET=0.05"; "SATPG_JOBS=2" |]
         (if store then [| "SATPG_STORE=" ^ tag ^ ".store" |] else [||]))
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"SATPG_" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let log =
    Unix.openfile (tag ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process_env satpg [| satpg; "serve"; "--unix"; sock |] env
      devnull log log
  in
  Unix.close log;
  Unix.close devnull;
  let rec wait () =
    match connect sock with
    | Some c ->
      ignore (rpc c stats_line);
      close_conn c
    | None ->
      if now () -. t0 > 60.0 then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith "serve daemon did not come up"
      end;
      Unix.sleepf 0.002;
      wait ()
  in
  wait ();
  ({ pid; sock }, now () -. t0)

let stop_daemon d =
  (match connect d.sock with
   | Some c ->
     (try ignore (rpc c {|{"verb":"shutdown"}|}) with End_of_file | Sys_error _ -> ());
     close_conn c
   | None -> Unix.kill d.pid Sys.sigterm);
  ignore (Unix.waitpid [] d.pid)

let http_get sock path =
  match connect sock with
  | None -> ""
  | Some c ->
    output_string c.oc (Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n\r\n" path);
    flush c.oc;
    let b = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel b c.ic 1
       done
     with End_of_file -> ());
    close_conn c;
    Buffer.contents b

(* Value of the Prometheus sample named exactly [name]. *)
let prom_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | [ n; v ] when n = name -> float_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0.0

(* A request template: one verb on one circuit with one config.  Every
   reply to one template must carry the same manifest id. *)
type template = {
  verb : string;
  circuit : int;
  config : (string * Obs.Json.t) list;
}

let small_blif seed =
  let machine =
    Fsm.Generate.generate
      {
        Fsm.Generate.default_spec with
        Fsm.Generate.name = Printf.sprintf "rnd%d" seed;
        num_inputs = 2 + (seed mod 2);
        num_outputs = 2;
        num_states = 4 + (seed mod 3);
        cubes_per_state = 2;
        seed;
      }
  in
  let s =
    Synth.Flow.synthesize ~algorithm:Synth.Assign.Input_dominant
      ~script:Synth.Flow.Rugged machine
  in
  Netlist.Blif.to_string ~model:s.Synth.Flow.name s.Synth.Flow.circuit

(* The circuits: s27, the dk16 pair and [serve_generated] generated
   machines.  One request in five is first sight; the others repeat the
   templates already sent, round robin.  The 19 templates on the three
   fixed circuits take fixed first-sight slots, so they cost the same at
   every seed: every verb and config on s27, fsim and reach on the dk16
   pair.  atpg and classify on the dk16 pair are left out: those eight
   misses took three quarters of a pass, so the serve path hardly showed
   in run time, and the request of the other client stuck in the same
   batch behind each of them made the p99 noisy.  The seed draws the
   generated machines and the templates on them, with verbs in a
   70/15/10/5 atpg/fsim/reach/classify mix. *)
let serve_inputs ~root ~seed =
  let p = Core.Flow.pair "dk16" Synth.Assign.Input_dominant Synth.Flow.Delay in
  let fixed_circuits = 3 in
  let blifs =
    Array.of_list
      ([
         read_file (Filename.concat root "examples/s27.blif");
         Netlist.Blif.to_string ~model:p.Core.Flow.name p.Core.Flow.original;
         Netlist.Blif.to_string ~model:(p.Core.Flow.name ^ ".re")
           p.Core.Flow.retimed;
       ]
      @ List.init serve_generated (fun i -> small_blif ((seed * 1000) + i + 1)))
  in
  let configs = function
    | "atpg" ->
      List.map
        (fun e -> [ ("engine", Obs.Json.String e) ])
        [ "hitec"; "attest"; "sest" ]
    | "fsim" ->
      List.concat_map
        (fun v ->
          List.map
            (fun s -> [ ("vectors", Obs.Json.Int v); ("seed", Obs.Json.Int s) ])
            [ 1; 2 ])
        [ 64; 128 ]
    | "classify" -> [ [ ("product", Obs.Json.Bool false) ] ]
    | _ -> [ [] ]
  in
  let verbs = [ "atpg"; "fsim"; "reach"; "classify" ] in
  let fixed =
    List.concat_map
      (fun circuit ->
        List.concat_map
          (fun verb -> List.map (fun config -> { verb; circuit; config }) (configs verb))
          (if circuit = 0 then verbs else [ "fsim"; "reach" ]))
      (List.init fixed_circuits Fun.id)
  in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let seen = Hashtbl.create 1024 in
  List.iter (fun t -> Hashtbl.replace seen t ()) fixed;
  let rec generated () =
    let x = Random.State.int rng 100 in
    let verb =
      if x < 70 then "atpg" else if x < 85 then "fsim" else if x < 95 then "reach"
      else "classify"
    in
    let cs = configs verb in
    let t =
      {
        verb;
        circuit = fixed_circuits + Random.State.int rng serve_generated;
        config = List.nth cs (Random.State.int rng (List.length cs));
      }
    in
    if Hashtbl.mem seen t then generated ()
    else begin
      Hashtbl.replace seen t ();
      t
    end
  in
  let n_first = serve_requests / 5 in
  let stride = n_first / List.length fixed in
  let fixed = Array.of_list fixed in
  let first =
    Array.init n_first (fun k ->
        if k mod stride = 0 && k / stride < Array.length fixed then
          fixed.(k / stride)
        else generated ())
  in
  let sent = ref 0 and next_repeat = ref 0 in
  let stream =
    Array.init serve_requests (fun i ->
        if i mod 5 = 0 then begin
          incr sent;
          first.(i / 5)
        end
        else begin
          let t = first.(!next_repeat mod !sent) in
          incr next_repeat;
          t
        end)
  in
  (blifs, stream)

let request_line blifs i t =
  Obs.Json.to_string
    (Obs.Json.Obj
       ([
          ("id", Obs.Json.String (string_of_int i));
          ("verb", Obs.Json.String t.verb);
          ( "circuit",
            Obs.Json.Obj [ ("blif", Obs.Json.String blifs.(t.circuit)) ] );
        ]
       @ match t.config with [] -> [] | c -> [ ("config", Obs.Json.Obj c) ]))

type reply = {
  rtt : float;
  ok : bool;
  cache : string;
  manifest : string;
  atpg : Obs.Json.t option;  (** the result object of an atpg reply *)
}

let parse_reply rtt line =
  match Obs.Json.parse line with
  | exception _ -> { rtt; ok = false; cache = ""; manifest = ""; atpg = None }
  | j ->
    let str n = Option.bind (Obs.Json.member n j) Obs.Json.to_string_opt in
    {
      rtt;
      ok = Obs.Json.member "ok" j = Some (Obs.Json.Bool true);
      cache = Option.value ~default:"" (str "cache");
      manifest = Option.value ~default:"" (str "manifest");
      atpg =
        (match str "verb" with
         | Some "atpg" -> Obs.Json.member "result" j
         | _ -> None);
    }

(* Closed loop: [serve_clients] systhreads, each on its own connection,
   take the next request index and wait for its reply. *)
let drive sock lines =
  let n = Array.length lines in
  let replies = Array.make n None in
  let next = Atomic.make 0 in
  let client () =
    match connect sock with
    | None -> ()
    | Some c ->
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let reply =
            Span.span ~parent:0 ~req:(i + 1) "request" (fun () ->
                let a = now () in
                match rpc c lines.(i) with
                | line -> parse_reply (now () -. a) line
                | exception (End_of_file | Sys_error _) ->
                  { rtt = now () -. a; ok = false; cache = ""; manifest = "";
                    atpg = None })
          in
          replies.(i) <- Some reply;
          loop ()
        end
      in
      loop ();
      close_conn c
  in
  let t0 = now () in
  List.iter Thread.join
    (List.init serve_clients (fun _ -> Thread.create client ()));
  (replies, now () -. t0)

(* In-process replay of the request stream through the functions the
   daemon's dispatcher calls, one span per stage (all sharing the
   request's id).  Returns per-layer figures and each request's
   [Dispatch] run time. *)
let replay blifs templates lines =
  let stage = Hashtbl.create 8 in
  let timed ~req name f =
    let a = now () in
    let v = Span.span ~req name f in
    Hashtbl.replace stage name
      ((now () -. a) :: Option.value ~default:[] (Hashtbl.find_opt stage name));
    v
  in
  let run_s = Array.make (Array.length lines) 0.0 in
  let atpg_s = ref 0.0 in
  Array.iteri
    (fun i line ->
      let req = i + 1 and t = templates.(i) in
      Span.span ~req "replay" (fun () ->
          let r = timed ~req "protocol.decode" (fun () -> Serve.Protocol.decode_request line) in
          timed ~req "netlist.parse" (fun () ->
              ignore
                (Netlist.Structhash.circuit
                   (Netlist.Blif.parse_string blifs.(t.circuit))));
          if t.verb = "fsim" then
            (* the simulation the fsim verb runs, on its own *)
            Span.span ~req "fsim" (fun () ->
                let c = Netlist.Blif.parse_string blifs.(t.circuit) in
                let cfg = Obs.Json.Obj t.config in
                let rng = Random.State.make [| json_int [ "seed" ] cfg; 0x5a7f |] in
                let seq =
                  Sim.Vectors.random_sequence rng ~width:(Netlist.Node.num_pis c)
                    ~length:(json_int [ "vectors" ] cfg)
                in
                ignore (Fsim.Engine.simulate c (Fsim.Collapse.list c) seq));
          match r with
          | Error _ -> ()
          | Ok r ->
            (match timed ~req "dispatch.plan" (fun () -> Serve.Dispatch.plan r) with
             | Error _ -> ()
             | Ok p ->
               let a = now () in
               let out = Span.span ~req "dispatch.run" p.Serve.Dispatch.run in
               run_s.(i) <- now () -. a;
               if t.verb = "atpg" then atpg_s := !atpg_s +. run_s.(i);
               (match out with
                | Ok fields ->
                  ignore
                    (timed ~req "protocol.encode" (fun () ->
                         Serve.Protocol.encode_response ~id:r.Serve.Protocol.id
                           fields))
                | Error _ -> ()))))
    lines;
  let mean_us name =
    match Hashtbl.find_opt stage name with
    | None | Some [] -> 0.0
    | Some l -> 1e6 *. sum l /. float_of_int (List.length l)
  in
  ( [
      ("protocol.decode_us", Obs.Json.Float (mean_us "protocol.decode"));
      ("protocol.encode_us", Obs.Json.Float (mean_us "protocol.encode"));
      ("dispatch.plan_us", Obs.Json.Float (mean_us "dispatch.plan"));
      ("netlist.parse_us", Obs.Json.Float (mean_us "netlist.parse"));
      ("fsim.busy_s", Obs.Json.Float (Span.busy "fsim"));
      ("atpg.busy_s", Obs.Json.Float !atpg_s);
    ],
    run_s )

(* Set-up is making the inputs (synthesis and retiming of the circuits,
   BLIF text, request lines) plus starting the daemon; the daemon is
   started [serve_starts] times and the median start counts, since one
   start takes milliseconds and jitters with scheduling.

   The measured passes run the daemon without a store: it persists a
   manifest file for every request, hits included, and on a throttled
   virtual disk that made hit latency climb from 0.9 ms to 2.4 ms over
   a few minutes of back-to-back passes (with the store on tmpfs it
   stayed at 0.7-0.9 ms).  [store] runs a pass with a fresh on-disk
   store, for the store layer's own figures. *)
let serve_pass ~root ~dir ~satpg ~seed ~traced ~store =
  let a = now () in
  let blifs, templates = serve_inputs ~root ~seed in
  let lines = Array.mapi (fun i t -> request_line blifs i t) templates in
  let inputs_s = now () -. a in
  Unix.chdir dir;
  let starts = ref [] in
  for k = 1 to serve_starts - 1 do
    let d, s = start_daemon ~satpg ~store ~tag:(Printf.sprintf "probe%d" k) in
    starts := s :: !starts;
    stop_daemon d
  done;
  let d, s = start_daemon ~satpg ~store ~tag:"main" in
  starts := s :: !starts;
  let replies, run_s, metrics, stats, rss_mb =
    Fun.protect
      ~finally:(fun () -> stop_daemon d)
      (fun () ->
        ready ();
        Span.reset ();
        let replies, run_s = drive d.sock lines in
        let metrics = http_get d.sock "/metrics" in
        let stats =
          match connect d.sock with
          | Some c ->
            Fun.protect
              ~finally:(fun () -> close_conn c)
              (fun () -> Obs.Json.parse (rpc c stats_line))
          | None -> Obs.Json.Null
        in
        (replies, run_s, metrics, stats, peak_rss_mb (string_of_int d.pid)))
  in
  (* output checks: every reply ok, one manifest id per template *)
  let first = Hashtbl.create 1024 in
  let failed = ref 0 in
  let distinct = new_totals () in
  let hits = ref [] and misses = ref [] in
  Array.iteri
    (fun i r ->
      match r with
      | None -> incr failed
      | Some r ->
        let t = templates.(i) in
        let earlier = Hashtbl.find_opt first t in
        if (not r.ok) || Option.fold ~none:false ~some:(( <> ) r.manifest) earlier
        then incr failed;
        (match r.cache with
         | "hit" -> hits := r.rtt :: !hits
         | "miss" -> misses := r.rtt :: !misses
         | _ -> ());
        (* ATPG totals count each template's result once *)
        (match r.atpg with
         | Some res when earlier = None ->
           let c n = json_int [ "status_counts"; n ] res in
           add_counts distinct ~faults:(json_int [ "faults" ] res)
             ~detected:(c "detected") ~redundant:(c "redundant")
             ~proved:(c "proved_untestable") ~aborted:(c "aborted")
             ~work:(json_int [ "work_units" ] res)
         | _ -> ());
        if earlier = None then Hashtbl.replace first t r.manifest)
    replies;
  (* per-layer counts: the daemon's own counters, from /metrics *)
  let prom n = prom_value metrics ("satpg_" ^ n) in
  let d_counts =
    List.map
      (fun n -> (n, int_of_float (prom (Obs.Prom.sanitize n ^ "_total"))))
      layer_counters
  in
  let distinct_keys =
    Hashtbl.fold
      (fun t _ acc ->
        if t.verb = "fsim" then acc
        else
          ( t.verb,
            Netlist.Structhash.circuit (Netlist.Blif.parse_string blifs.(t.circuit)),
            t.config )
          :: acc)
      first []
    |> List.sort_uniq compare |> List.length
  in
  let store_bytes =
    match Obs.Json.member "store" stats with
    | Some (Obs.Json.Obj kinds) ->
      List.fold_left (fun a (_, k) -> a + json_int [ "bytes" ] k) 0 kinds
    | _ -> 0
  in
  let ms l = 1000.0 *. median l in
  let counts =
    counts_of d_counts distinct ~distinct_keys
    @ [
        ("serve.daemon_start_s", Obs.Json.Float (median !starts));
        ("store.bytes", Obs.Json.Int store_bytes);
        ("serve.hit_rtt_p50_ms", Obs.Json.Float (ms !hits));
        ("serve.miss_rtt_p50_ms", Obs.Json.Float (ms !misses));
        ( "serve.batch_size_mean",
          Obs.Json.Float
            (prom "serve_batch_size_sum" /. max 1.0 (prom "serve_batch_size_count"))
        );
        ("serve.coalesced", Obs.Json.Int (json_int [ "serve"; "coalesced" ] stats));
        ("serve.overloaded", Obs.Json.Int (json_int [ "serve"; "overloaded" ] stats));
        ("serve.errors", Obs.Json.Int (json_int [ "serve"; "errors" ] stats));
      ]
  in
  let busy, uncovered =
    if not traced then ([], 0.0)
    else begin
      let t0 =
        List.fold_left (fun a s -> min a s.Span.t0) infinity !Span.recorded
      in
      (* two clients: only the gaps where neither waits for a reply *)
      let uncovered = Span.uncovered ~root:(-1) t0 (t0 +. run_s) in
      let layers, replay_run = replay blifs templates lines in
      (* a miss's round trip minus the same request computed in-process *)
      let overhead =
        List.concat
          (List.init (Array.length replies) (fun i ->
               match replies.(i) with
               | Some r when r.cache = "miss" -> [ r.rtt -. replay_run.(i) ]
               | _ -> []))
      in
      (layers @ [ ("serve.overhead_ms", Obs.Json.Float (ms overhead)) ], uncovered)
    end
  in
  {
    setup = [ inputs_s +. median !starts ];
    run_s;
    jobs =
      Array.to_list replies
      |> List.filter_map (Option.map (fun r -> r.rtt));
    rss_mb;
    totals = distinct;
    attempted = Array.length lines;
    failed = !failed;
    checks = [];
    counts;
    busy;
    uncovered;
  }

(* ------------------------------------------------------------ main - *)

let pass_json ~workload ~seed ~traced p =
  let floats l = Obs.Json.List (List.map (fun f -> Obs.Json.Float f) l) in
  Obs.Json.Obj
    ([
       ("workload", Obs.Json.String workload);
       ("seed", Obs.Json.Int seed);
       ("setup_s", floats p.setup);
       ("run_s", Obs.Json.Float p.run_s);
       ("jobs_s", floats p.jobs);
       ("peak_rss_mb", Obs.Json.Float p.rss_mb);
       ("faults", Obs.Json.Int p.totals.faults);
       ("detected", Obs.Json.Int p.totals.detected);
       ("effective", Obs.Json.Int p.totals.effective);
       ("attempted", Obs.Json.Int p.attempted);
       ("failed", Obs.Json.Int p.failed);
       ("checks", Obs.Json.Obj p.checks);
       ("counts", Obs.Json.Obj p.counts);
     ]
    @
    if not traced then []
    else
      [
        ("busy", Obs.Json.Obj p.busy);
        ("uncovered_pct", Obs.Json.Float (100.0 *. p.uncovered));
        ( "spans",
          Obs.Json.Obj
            (List.map
               (fun (name, (n, d, self)) ->
                 ( name,
                   Obs.Json.Obj
                     [
                       ("calls", Obs.Json.Int n);
                       ("busy_s", Obs.Json.Float d);
                       ("self_s", Obs.Json.Float self);
                     ] ))
               (Span.summary ())) );
      ])

let () =
  let workload = ref "" and seed = ref 1 and traced = ref false in
  let setup_only = ref false and spans = ref "" in
  let classify_first = ref false and store = ref false in
  let root = ref "." and dir = ref "" and satpg = ref "" in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set traced, " record spans, report per-layer times");
      ("--spans", Arg.Set_string spans, "FILE write the recorded spans here");
      ("--setup-only", Arg.Set setup_only, " set up, report ready, exit");
      ("--store", Arg.Set store, " serve: give the daemon a fresh store");
      ( "--classify-first",
        Arg.Set classify_first,
        " prove: classify every circuit before the grid (as --trace does)" );
      ("--root", Arg.Set_string root, "DIR source checkout (serve inputs)");
      ("--dir", Arg.Set_string dir, "DIR scratch directory (serve)");
      ("--satpg", Arg.Set_string satpg, "EXE satpg executable (serve)");
    ]
    (fun w -> workload := w)
    "bench.exe table2|prove|serve --seed N [--trace]";
  Span.on := !traced;
  let pass =
    match !workload with
    | "table2" ->
      (* set-up: the process itself and the pool's worker domains *)
      ignore (Exec.Pool.map_list Fun.id [ 0; 1 ]);
      ready ();
      if !setup_only then None
      else Some (table2_pass ~seed:!seed ~traced:!traced)
    | "prove" ->
      Some
        (prove_pass ~seed:!seed ~traced:!traced
           ~classify_first:(!traced || !classify_first))
    | "serve" when !satpg <> "" && !dir <> "" ->
      Some
        (serve_pass ~root:!root ~dir:!dir ~satpg:!satpg ~seed:!seed
           ~store:!store
           ~traced:!traced)
    | "serve" ->
      prerr_endline "bench.exe serve needs --satpg and --dir";
      exit 2
    | w ->
      Printf.eprintf "bench.exe: unknown workload %S\n" w;
      exit 2
  in
  Option.iter
    (fun p ->
      if !traced && !spans <> "" then
        Obs.Fileio.write_string_atomic !spans
          (Obs.Json.to_string (Span.to_json ()));
      print_endline
        (Obs.Json.to_string
           (pass_json ~workload:!workload ~seed:!seed ~traced:!traced p)))
    pass

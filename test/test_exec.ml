(* The Exec.Pool scheduler: deterministic merge, exception ordering,
   observability exactness under parallelism, and 1-vs-N bit-identity of
   the fault-simulation and ATPG pipelines that run on it. *)

let with_jobs n f =
  Exec.Pool.set_jobs n;
  Fun.protect ~finally:Exec.Pool.reset_jobs f

(* Runs [f] with SATPG_JOBS set to [v] ("" = unset), restoring the prior
   value afterwards (putenv cannot delete, but the pool treats "" as
   unset). *)
let with_jobs_env v f =
  let prev = Option.value ~default:"" (Sys.getenv_opt "SATPG_JOBS") in
  Unix.putenv "SATPG_JOBS" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "SATPG_JOBS" prev) f

(* ------------------------------------------------------------ scheduler - *)

let test_run_identity () =
  with_jobs 4 @@ fun () ->
  let n = 257 in
  let got = Exec.Pool.run n (fun i -> (i * i) + 3) in
  Alcotest.(check (array int))
    "results in index order"
    (Array.init n (fun i -> (i * i) + 3))
    got

let test_map_order_qcheck =
  Helpers.qcheck_case ~count:50 "map_list keeps order at 4 jobs"
    QCheck2.Gen.(list_size (int_bound 200) small_int)
    (fun l ->
      with_jobs 4 @@ fun () ->
      Exec.Pool.map_list (fun x -> (2 * x) - 7) l
      = List.map (fun x -> (2 * x) - 7) l)

let test_nested () =
  with_jobs 4 @@ fun () ->
  let got =
    Exec.Pool.run 6 (fun i ->
        Array.fold_left ( + ) 0 (Exec.Pool.run 6 (fun j -> i * j)))
  in
  Alcotest.(check (array int))
    "nested submission"
    (Array.init 6 (fun i -> i * 15))
    got

let test_exception_order () =
  with_jobs 4 @@ fun () ->
  let c = Obs.Metrics.counter "test.exec.exn" in
  let before = Obs.Metrics.count c in
  (match
     Exec.Pool.run 16 (fun i ->
         Obs.Metrics.incr c;
         if i >= 5 then failwith (string_of_int i))
   with
  | (_ : unit array) -> Alcotest.fail "expected a Failure"
  | exception Failure s ->
    Alcotest.(check string) "first failing index raises" "5" s);
  (* side effects of tasks after the first failure are dropped, exactly as
     if the loop had run sequentially and stopped at index 5 *)
  Alcotest.(check int) "prefix side effects only" 6 (Obs.Metrics.count c - before)

let test_jobs_one_inline () =
  with_jobs 1 @@ fun () ->
  let used0 = Exec.Pool.domains_used () in
  let got = Exec.Pool.run 64 (fun i -> i) in
  Alcotest.(check (array int)) "identity" (Array.init 64 (fun i -> i)) got;
  Alcotest.(check int)
    "no pool involvement at 1 job" used0 (Exec.Pool.domains_used ())

(* ------------------------------------------------------- jobs validation - *)

let test_env_validation () =
  let check_invalid v =
    with_jobs_env v @@ fun () ->
    match Exec.Pool.jobs () with
    | (_ : int) -> Alcotest.failf "SATPG_JOBS=%s should be rejected" v
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "message names the variable" true
        (Helpers.contains_substring msg "SATPG_JOBS")
  in
  check_invalid "zero";
  check_invalid "0";
  check_invalid "-3";
  check_invalid "2.5";
  (with_jobs_env "3" @@ fun () ->
   Alcotest.(check int) "SATPG_JOBS=3 parses" 3 (Exec.Pool.jobs ()));
  (with_jobs_env " 5 " @@ fun () ->
   Alcotest.(check int) "whitespace tolerated" 5 (Exec.Pool.jobs ()));
  (with_jobs_env "" @@ fun () ->
   Alcotest.(check bool)
     "empty means default" true
     (Exec.Pool.jobs () = Exec.Pool.default_jobs ()));
  (* the explicit override wins over the environment *)
  with_jobs_env "3" @@ fun () ->
  with_jobs 2 @@ fun () ->
  Alcotest.(check int) "set_jobs beats SATPG_JOBS" 2 (Exec.Pool.jobs ())

let test_set_jobs_validation () =
  (match Exec.Pool.set_jobs 0 with
   | () -> Alcotest.fail "set_jobs 0 should be rejected"
   | exception Invalid_argument _ -> ());
  match Exec.Pool.set_jobs (-1) with
  | () -> Alcotest.fail "set_jobs -1 should be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------- observability merging - *)

let test_metrics_exact () =
  with_jobs 4 @@ fun () ->
  let c = Obs.Metrics.counter "test.exec.counter" in
  let h = Obs.Metrics.histogram "test.exec.hist" in
  let g = Obs.Metrics.gauge "test.exec.gauge" in
  let c0 = Obs.Metrics.count c and h0 = Obs.Metrics.sum h in
  let n = 100 in
  let _ =
    Exec.Pool.run n (fun i ->
        Obs.Metrics.add c i;
        Obs.Metrics.observe h i;
        Obs.Metrics.set g (float_of_int i))
  in
  let expect = n * (n - 1) / 2 in
  Alcotest.(check int) "counter sums exactly" expect (Obs.Metrics.count c - c0);
  Alcotest.(check int) "histogram sums exactly" expect (Obs.Metrics.sum h - h0);
  Alcotest.(check (float 0.0))
    "gauge keeps the last submitted write"
    (float_of_int (n - 1))
    (Obs.Metrics.value g)

let test_events_order () =
  with_jobs 4 @@ fun () ->
  let sink = Obs.Events.create () in
  Obs.Events.install sink;
  Fun.protect ~finally:Obs.Events.uninstall @@ fun () ->
  let n = 50 in
  let _ =
    Exec.Pool.run n (fun i ->
        Obs.Events.emit [ ("i", Obs.Json.Int i) ];
        Obs.Events.emit [ ("i", Obs.Json.Int i); ("second", Obs.Json.Bool true) ])
  in
  let is =
    List.filter_map
      (fun r -> Option.bind (Obs.Json.member "i" r) Obs.Json.to_int_opt)
      (Obs.Events.records sink)
  in
  Alcotest.(check (list int))
    "records in submission order"
    (List.concat_map (fun i -> [ i; i ]) (List.init n (fun i -> i)))
    is

let test_deferred_discard () =
  with_jobs 4 @@ fun () ->
  let c = Obs.Metrics.counter "test.exec.deferred" in
  let c0 = Obs.Metrics.count c in
  let ds =
    Exec.Pool.run_deferred 10 (fun i ->
        Obs.Metrics.incr c;
        i)
  in
  Alcotest.(check int) "nothing applied before commit" c0 (Obs.Metrics.count c);
  let vs =
    Array.to_list ds
    |> List.filteri (fun i _ -> i mod 2 = 0)
    |> List.map Exec.Pool.commit
  in
  Alcotest.(check (list int)) "committed values" [ 0; 2; 4; 6; 8 ] vs;
  Alcotest.(check int)
    "discarded deltas never reach the registry" 5
    (Obs.Metrics.count c - c0);
  match Exec.Pool.peek ds.(1) with
  | Some v -> Alcotest.(check int) "peek reads without committing" 1 v
  | None -> Alcotest.fail "peek"

(* --------------------------------------------------- cache under domains - *)

let test_cache_concurrent () =
  with_jobs 4 @@ fun () ->
  Core.Cache.reset_memory ();
  let hits = Obs.Metrics.counter "core.cache.hits" in
  let misses = Obs.Metrics.counter "core.cache.misses" in
  let h0 = Obs.Metrics.count hits and m0 = Obs.Metrics.count misses in
  let c = Helpers.toy_circuit () in
  let n = 12 in
  let rs =
    Exec.Pool.run n (fun _ -> Core.Cache.structural ~name:"toy" c)
  in
  Array.iter
    (fun r ->
      Alcotest.(check bool)
        "every caller sees the same result" true
        (r = rs.(0)))
    rs;
  let dh = Obs.Metrics.count hits - h0
  and dm = Obs.Metrics.count misses - m0 in
  Alcotest.(check int) "every lookup is a hit or a miss" n (dh + dm);
  Alcotest.(check int) "computed exactly once" 1 dm;
  Alcotest.(check int) "every other lookup is a hit" (n - 1) dh

(* ----------------------------------------------- single-flight deadlock - *)

(* Spin until [cond ()], failing after [secs]: the tests below need two
   things in flight at once, and a lost wake-up must fail, not hang. *)
let spin_until ?(secs = 20.0) what cond =
  let t0 = Unix.gettimeofday () in
  while not (cond ()) do
    if Unix.gettimeofday () -. t0 > secs then
      Alcotest.failf "timed out waiting for %s" what;
    Domain.cpu_relax ()
  done

(* Keys 0 and 1, computed on two domains at once, each computation
   looking the other key up: whichever owner meets the other in flight
   second would close a wait-for cycle, so it computes that key itself. *)
let test_memo_cross_keys () =
  with_jobs 4 @@ fun () ->
  let t = Core.Cache.table () in
  let started = Atomic.make 0 in
  let entered = [| Atomic.make false; Atomic.make false |] in
  let rec value k =
    Core.Cache.memo t ~key:(string_of_int k) (fun () ->
        (* only the first computation of a key waits for the other's
           and looks it up; a recomputation returns straight away *)
        if Atomic.compare_and_set entered.(k) false true then begin
          Atomic.incr started;
          spin_until "both computations" (fun () -> Atomic.get started >= 2);
          ignore (value (1 - k))
        end;
        100 + k)
  in
  let got = Exec.Pool.run 8 (fun i -> value (i mod 2)) in
  Alcotest.(check (array int))
    "every caller sees its key's value"
    (Array.init 8 (fun i -> 100 + (i mod 2)))
    got

(* A computation that looks up the key being computed, directly and
   from nested pool tasks: both belong to the computation, so they
   compute the value themselves instead of waiting for it.  The outer
   lookups wait (and help run the nested tasks), so the outer
   computation runs once. *)
let test_memo_nested_self () =
  with_jobs 4 @@ fun () ->
  let t = Core.Cache.table () in
  let outer = Atomic.make 0 in
  let value () =
    Core.Cache.memo t ~key:"self" (fun () ->
        Atomic.incr outer;
        let direct = Core.Cache.memo t ~key:"self" (fun () -> 7) in
        let inner =
          Exec.Pool.run 6 (fun _ -> Core.Cache.memo t ~key:"self" (fun () -> 7))
        in
        if direct = 7 && Array.for_all (( = ) 7) inner then 7 else -1)
  in
  let got = Exec.Pool.run 8 (fun _ -> value ()) in
  Alcotest.(check (array int)) "every caller sees 7" (Array.make 8 7) got;
  Alcotest.(check int) "outer computation ran once" 1 (Atomic.get outer)

(* A nested driver whose own set is fully claimed helps only its own or
   newer sets.  Task 0 of the outer set holds a latch and runs a nested
   set; tasks 1-3 wait on the latch, so they help only the nested set,
   and the outer tasks 4.. stay unclaimed meanwhile.  Were task 0's
   driver to claim one of them, it would start an outer task inside
   another. *)
let test_nested_driver_own_or_newer () =
  with_jobs 4 @@ fun () ->
  let inside = Domain.DLS.new_key (fun () -> false) in
  let nested_outer = Atomic.make 0 in
  let published = Atomic.make None in
  let waiting = Atomic.make 0 in
  let outer i =
    if Domain.DLS.get inside then Atomic.incr nested_outer;
    Domain.DLS.set inside true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set inside false) @@ fun () ->
    if i = 0 then begin
      let l = Exec.Pool.latch () in
      Atomic.set published (Some l);
      Exec.Pool.hold l (fun () ->
          spin_until "three latch waiters" (fun () -> Atomic.get waiting >= 3);
          Array.fold_left ( + ) 0
            (Exec.Pool.run 8 (fun j ->
                 Unix.sleepf 0.005;
                 j)))
    end
    else if i <= 3 then begin
      spin_until "the latch" (fun () -> Atomic.get published <> None);
      Atomic.incr waiting;
      match Atomic.get published with
      | Some l -> if Exec.Pool.await l then i else -1
      | None -> assert false
    end
    else i
  in
  let got = Exec.Pool.run 12 outer in
  Alcotest.(check (array int))
    "results"
    (Array.init 12 (fun i -> if i = 0 then 28 else i))
    got;
  Alcotest.(check int)
    "no outer task started inside another" 0 (Atomic.get nested_outer)

(* ------------------------------------------------- pipeline bit-identity - *)

(* A synthesized circuit big enough for several word-wide fault batches. *)
let bench_circuit =
  lazy (Helpers.synthesize_small ~states:8 ()).Synth.Flow.circuit

let test_fsim_identity () =
  let c = Lazy.force bench_circuit in
  let faults = Fsim.Collapse.list c in
  Alcotest.(check bool)
    "enough faults for several batches" true
    (Array.length faults > Sim.Parallel.word_bits);
  let rng = Random.State.make [| 42 |] in
  let vectors =
    List.init 60 (fun _ ->
        Sim.Vectors.random_vector rng (Netlist.Node.num_pis c))
  in
  let run j = with_jobs j (fun () -> Fsim.Engine.simulate c faults vectors) in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check (array bool))
    "detected identical" r1.Fsim.Engine.detected r4.Fsim.Engine.detected;
  Alcotest.(check (array int))
    "detect times identical" r1.Fsim.Engine.detect_time
    r4.Fsim.Engine.detect_time;
  Alcotest.(check (list string))
    "good states identical" r1.Fsim.Engine.good_states
    r4.Fsim.Engine.good_states;
  Alcotest.(check int)
    "sim cycles identical" r1.Fsim.Engine.sim_cycles r4.Fsim.Engine.sim_cycles

let atpg_config =
  {
    Atpg.Types.default_config with
    Atpg.Types.backtrack_limit = 60;
    work_limit = 60_000;
    total_work_limit = 2_000_000;
  }

let test_atpg_identity () =
  let c = Lazy.force bench_circuit in
  let run j =
    with_jobs j (fun () ->
        Atpg.Run.generate ~config:atpg_config ~seed:3 c)
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check (array string))
    "per-fault statuses identical"
    (Array.map Fsim.Fault.status_to_string r1.Atpg.Types.status)
    (Array.map Fsim.Fault.status_to_string r4.Atpg.Types.status)
  ;
  Alcotest.(check int)
    "work identical" r1.Atpg.Types.stats.Atpg.Types.work
    r4.Atpg.Types.stats.Atpg.Types.work;
  Alcotest.(check int)
    "backtracks identical" r1.Atpg.Types.stats.Atpg.Types.backtracks
    r4.Atpg.Types.stats.Atpg.Types.backtracks;
  Alcotest.(check bool)
    "test sequences identical" true
    (r1.Atpg.Types.test_sets = r4.Atpg.Types.test_sets);
  Alcotest.(check bool)
    "figure-3 trajectory identical" true
    (r1.Atpg.Types.trajectory = r4.Atpg.Types.trajectory);
  Alcotest.(check (float 0.0))
    "coverage identical" r1.Atpg.Types.fault_coverage
    r4.Atpg.Types.fault_coverage

(* The per-fault event stream drives figure/table rebuilds, so it must be
   identical too — not just the aggregate result. *)
let test_atpg_events_identity () =
  let c = Lazy.force bench_circuit in
  let run j =
    with_jobs j (fun () ->
        let sink = Obs.Events.create () in
        Obs.Events.install sink;
        Fun.protect ~finally:Obs.Events.uninstall (fun () ->
            ignore (Atpg.Run.generate ~config:atpg_config ~seed:3 c));
        Obs.Events.to_lines sink)
  in
  Alcotest.(check (list string)) "event JSONL identical" (run 1) (run 4)

let suite =
  [
    Alcotest.test_case "run: results in index order" `Quick test_run_identity;
    test_map_order_qcheck;
    Alcotest.test_case "run: nested submission" `Quick test_nested;
    Alcotest.test_case "run: sequential exception order" `Quick
      test_exception_order;
    Alcotest.test_case "run: jobs=1 stays inline" `Quick test_jobs_one_inline;
    Alcotest.test_case "SATPG_JOBS validation" `Quick test_env_validation;
    Alcotest.test_case "set_jobs validation" `Quick test_set_jobs_validation;
    Alcotest.test_case "metrics merge exactly" `Quick test_metrics_exact;
    Alcotest.test_case "events keep submission order" `Quick test_events_order;
    Alcotest.test_case "deferred commit/discard" `Quick test_deferred_discard;
    Alcotest.test_case "cache exact under concurrency" `Quick
      test_cache_concurrent;
    Alcotest.test_case "fsim bit-identical 1 vs 4 jobs" `Slow
      test_fsim_identity;
    Alcotest.test_case "atpg bit-identical 1 vs 4 jobs" `Slow
      test_atpg_identity;
    Alcotest.test_case "atpg events bit-identical 1 vs 4 jobs" `Slow
      test_atpg_events_identity;
    Alcotest.test_case "memo: cross lookups finish" `Quick
      test_memo_cross_keys;
    Alcotest.test_case "memo: nested self lookup finishes" `Quick
      test_memo_nested_self;
    Alcotest.test_case "nested driver helps own or newer sets" `Quick
      test_nested_driver_own_or_newer;
  ]

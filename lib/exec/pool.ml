(* Work-stealing domain pool with deterministic result merge.

   The pool runs batches of independent tasks ("sets") across OCaml 5
   domains.  Determinism is structural, not best-effort:

   - every task carries its submission index; results land in a slot
     array, so the returned array/list order never depends on timing;
   - each task runs under an [Obs.Capture] scope, so metrics increments
     and event records accumulate in a private delta instead of touching
     shared sinks.  The submitting caller applies the deltas in
     submission order ([Commit.apply]), making merged counters, event
     files — and hence everything derived from them — bit-identical to a
     sequential run;
   - exceptions are re-raised in submission order: deltas of tasks before
     and including the first failing index are applied, later ones are
     dropped, exactly as if the sequence had run serially and stopped.

   With [jobs () = 1] (or a batch of < 2 tasks) [run]/[map_*] take a pure
   inline path — no domains, no capture, no locks — so the single-job
   build is byte-identical to the pre-parallel code.

   Scheduling: one shared FIFO of task sets guarded by a mutex.  Every
   set, and every latch (below), takes the next number of one counter
   when it is made, so "newer" means "made later".  A domain's position
   is the number of the innermost task or held latch it is running (-1
   outside both); it only grows along a domain's stack of nested work.

   - Workers claim the lowest unclaimed index of the first set that
     still has unclaimed work.
   - A caller waiting on its own set claims its own tasks first, then
     helps only newer sets while its own has tasks in flight on other
     domains.  It never claims a task of an older set: an outer grid
     cell started from inside a nested set would hold that nested set's
     waiter (and anything the nested set was computing for) hostage for
     a whole cell.
   - A latch is a one-shot event for a computation that other domains
     may wait on (Core.Cache's single-flight misses).  A waiter helps
     only sets newer than the latch, and a domain waits only on a latch
     newer than its own position; otherwise [await] refuses and the
     caller computes the value itself.

   Deadlock freedom: everything a blocked domain waits for (a set it
   drives, a latch it awaits) is newer than its position, and anything
   the owner of a set task or latch blocks on in turn is newer still.
   Take the newest thing anyone waits for: the domain running its
   in-flight task (or holding it) is positioned at it and cannot be
   blocked on anything newer, so it makes progress; by induction every
   wait ends.

   The worker pool is a high-water mark: workers are spawned on demand up
   to [jobs () - 1] and kept for the process lifetime.  Lowering the job
   count afterwards does not retire workers (results are identical either
   way); raising it spawns more. *)

(* ---------- job-count resolution ---------- *)

let override : int option ref = ref None

(* SATPG_JOBS is validated like SATPG_BUDGET (lib/atpg/types.ml): a bad
   value is rejected outright rather than silently falling back to the
   core count — a typo'd "SATPG_JOBS=onr" must not look like a default
   parallel run. *)
let env_jobs () =
  match Sys.getenv_opt "SATPG_JOBS" with
  | None | Some "" -> None
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> Some n
     | Some _ | None ->
       invalid_arg
         (Printf.sprintf
            "SATPG_JOBS must be a positive integer (domain count), got %S" s))

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let jobs () =
  match !override with
  | Some n -> n
  | None -> (match env_jobs () with Some n -> n | None -> default_jobs ())

let set_jobs n =
  if n < 1 then
    invalid_arg (Printf.sprintf "job count must be positive, got %d" n);
  override := Some n

let reset_jobs () = override := None

(* ---------- metrics ---------- *)

let m_tasks = Obs.Metrics.counter "exec.tasks"
let m_sets = Obs.Metrics.counter "exec.task_sets"
let g_jobs = Obs.Metrics.gauge "exec.jobs"
let g_domains_used = Obs.Metrics.gauge "exec.domains_used"

(* Distinct domains that ever executed a pool task, including the
   submitting caller.  Guarded by its own mutex: it is written from worker
   domains (outside any capture redirection — it is bookkeeping, not an
   instrument). *)
let used_mu = Mutex.create ()
let used : (int, unit) Hashtbl.t = Hashtbl.create 8

let note_domain_used () =
  let id = (Domain.self () :> int) in
  Mutex.protect used_mu (fun () ->
      if not (Hashtbl.mem used id) then Hashtbl.replace used id ())

let domains_used () = Mutex.protect used_mu (fun () -> Hashtbl.length used)

(* ---------- task sets and the shared queue ---------- *)

type set = {
  seq : int;                 (* order of creation, shared with latches *)
  total : int;
  mutable next : int;        (* lowest unclaimed index; = total when drained *)
  mutable unfinished : int;  (* claimed-or-not tasks not yet completed *)
  run_one : int -> unit;     (* executes task [i] and records its slot *)
}

let mu = Mutex.create ()
let cv = Condition.create ()
let queue : set list ref = ref []   (* sets with unclaimed work, FIFO *)
let workers : unit Domain.t list ref = ref []
let shutdown = ref false            (* test hook; never set in production *)

(* Under [mu]: the next number in the creation order of sets and
   latches. *)
let created = ref 0

let next_seq () =
  let n = !created in
  created := n + 1;
  n

(* The calling domain's position: the number of the innermost task or
   held latch it is running, -1 outside both. *)
let position : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let at_position p f =
  let saved = Domain.DLS.get position in
  Domain.DLS.set position p;
  Fun.protect ~finally:(fun () -> Domain.DLS.set position saved) f

(* Under [mu]: claim one task, preferring [prefer] if it still has
   unclaimed work, else the head-most queued set numbered above [above].
   Drained sets leave the queue here. *)
let claim ?prefer ~above () =
  let take s =
    let i = s.next in
    s.next <- i + 1;
    if s.next >= s.total then
      queue := List.filter (fun s' -> s' != s) !queue;
    Some (s, i)
  in
  match prefer with
  | Some s when s.next < s.total -> take s
  | _ ->
    (match List.find_opt (fun s -> s.seq > above && s.next < s.total) !queue with
     | Some s -> take s
     | None -> None)

let finish_one s =
  Mutex.protect mu (fun () ->
      s.unfinished <- s.unfinished - 1;
      Condition.broadcast cv)

let exec_claimed (s, i) =
  note_domain_used ();
  at_position s.seq (fun () -> s.run_one i);
  finish_one s

(* Claim and run tasks ([claim ?prefer ~above]) until [finished ()],
   sleeping only when nothing is claimable; [finished] is read under
   [mu].  Returns at once when [finished ()] holds on entry. *)
let help ?prefer ~above finished =
  let rec loop () =
    let claimed =
      Mutex.protect mu (fun () ->
          let rec wait () =
            if finished () then None
            else
              match claim ?prefer ~above () with
              | Some c -> Some c
              | None ->
                Condition.wait cv mu;
                wait ()
          in
          wait ())
    in
    match claimed with
    | None -> ()
    | Some c ->
      exec_claimed c;
      loop ()
  in
  loop ()

let worker_loop () = help ~above:(-1) (fun () -> !shutdown)

let ensure_workers wanted =
  Mutex.protect mu (fun () ->
      let missing = wanted - List.length !workers in
      for _ = 1 to missing do
        workers := Domain.spawn worker_loop :: !workers
      done)

(* Run a set to completion from the submitting domain: claim own tasks
   first, help newer sets while own tasks are in flight elsewhere, sleep
   only when there is nothing claimable among them. *)
let drive s =
  Mutex.protect mu (fun () ->
      queue := !queue @ [ s ];
      Condition.broadcast cv);
  help ~prefer:s ~above:s.seq (fun () -> s.unfinished = 0)

(* ---------- latches ---------- *)

type latch = { lseq : int; mutable released : bool }

let latch () =
  Mutex.protect mu (fun () -> { lseq = next_seq (); released = false })

let hold l f =
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect mu (fun () ->
          l.released <- true;
          Condition.broadcast cv))
    (fun () -> at_position l.lseq f)

let await l =
  if Domain.DLS.get position >= l.lseq then false
  else begin
    help ~above:l.lseq (fun () -> l.released);
    true
  end

(* ---------- deferred results ---------- *)

type 'a deferred = {
  value : ('a, exn * Printexc.raw_backtrace) result;
  delta : Obs.Capture.t;
}

let peek d = match d.value with Ok v -> Some v | Error _ -> None

let commit d =
  Obs.Commit.apply d.delta;
  match d.value with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* ---------- submission ---------- *)

let run_set n f =
  let slots = Array.make n None in
  let run_one i =
    let outcome =
      Obs.Capture.scope (fun () ->
          try Ok (f i)
          with e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    let value, delta = outcome in
    (* Disjoint slots: each index is written exactly once, by the domain
       that claimed it, and read only after [unfinished] reaches 0. *)
    slots.(i) <- Some { value; delta }
  in
  let s =
    Mutex.protect mu (fun () ->
        { seq = next_seq (); total = n; next = 0; unfinished = n; run_one })
  in
  ensure_workers (jobs () - 1);
  note_domain_used ();
  drive s;
  Obs.Metrics.add m_tasks n;
  Obs.Metrics.incr m_sets;
  Obs.Metrics.set g_jobs (float_of_int (jobs ()));
  Obs.Metrics.set g_domains_used (float_of_int (domains_used ()));
  Array.map
    (function
      | Some d -> d
      | None -> assert false (* unfinished = 0 implies every slot filled *))
    slots

let parallel_enabled n = n > 1 && jobs () > 1

let run_deferred n f =
  if n = 0 then [||]
  else if not (parallel_enabled n) then
    (* Inline, but still captured: deferred semantics (commit-or-discard)
       must not depend on the job count. *)
    Array.init n (fun i ->
        let value, delta =
          Obs.Capture.scope (fun () ->
              try Ok (f i)
              with e -> Error (e, Printexc.get_raw_backtrace ()))
        in
        { value; delta })
  else run_set n f

let run n f =
  if n = 0 then [||]
  else if not (parallel_enabled n) then
    (* Pure inline path: no domains, no capture — byte-identical to the
       pre-parallel sequential loop, including side-effect timing. *)
    Array.init n f
  else begin
    let ds = run_set n f in
    (* Apply side effects in submission order; on failure, replay only the
       prefix a sequential run would have produced, then re-raise the
       first error. *)
    let first_err = ref None in
    (try
       Array.iter
         (fun d ->
           Obs.Commit.apply d.delta;
           match d.value with
           | Ok _ -> ()
           | Error (e, bt) ->
             first_err := Some (e, bt);
             raise Exit)
         ds
     with Exit -> ());
    match !first_err with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map
        (fun d -> match d.value with Ok v -> v | Error _ -> assert false)
        ds
  end

let map_array f a = run (Array.length a) (fun i -> f a.(i))

let map_list f l =
  let a = Array.of_list l in
  Array.to_list (run (Array.length a) (fun i -> f a.(i)))

(* Test hook: retire all workers and forget the used-domain set, so a
   test can measure a fresh pool.  Not used in production. *)
let shutdown_workers () =
  let ws =
    Mutex.protect mu (fun () ->
        shutdown := true;
        Condition.broadcast cv;
        let ws = !workers in
        workers := [];
        ws)
  in
  List.iter Domain.join ws;
  Mutex.protect mu (fun () -> shutdown := false);
  Mutex.protect used_mu (fun () -> Hashtbl.reset used)

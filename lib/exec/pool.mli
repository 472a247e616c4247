(** Work-stealing domain pool with deterministic result merge.

    [run n f] evaluates [f 0 .. f (n-1)] across OCaml 5 domains and
    returns the results in index order.  Each task runs under an
    [Obs.Capture] scope; the captured metrics/event deltas are applied in
    submission order, so counters, histograms and event files — and
    everything computed from the results — are bit-identical to a
    sequential run regardless of the domain count.  Exceptions are
    re-raised in submission order: side effects of tasks after the first
    failing index are dropped, as if the loop had run serially and
    stopped.

    With [jobs () = 1] (or fewer than two tasks) [run]/[map_*] take a
    pure inline path — no domains, no capture, no locks.

    Tasks must not assume exclusive access to shared mutable state other
    than their own slot; anything they touch concurrently must be
    domain-safe.  Nested submission is supported: a task may itself call
    [run]/[map_*].

    Scheduling: sets and latches are numbered in order of creation, and
    a domain's {e position} is the number of the innermost task or held
    latch it is running.  Worker domains claim tasks of any set.  A
    submitting caller runs its own set's tasks first and, while some are
    still in flight on other domains, helps only newer sets — never an
    older, outer one.  A latch waiter helps only sets newer than the
    latch.  Every wait is therefore on something newer than the waiter's
    position, so nesting cannot deadlock the pool. *)

(** {1 Job count} *)

(** Resolved parallelism: the [set_jobs] override if any, else a
    validated [SATPG_JOBS], else {!default_jobs}.
    @raise Invalid_argument if [SATPG_JOBS] is set but not a positive
    integer. *)
val jobs : unit -> int

(** [Domain.recommended_domain_count], at least 1. *)
val default_jobs : unit -> int

(** Process-wide override (the [-j] flag).
    @raise Invalid_argument on a non-positive count. *)
val set_jobs : int -> unit

(** Drop the override, returning to [SATPG_JOBS]/default resolution. *)
val reset_jobs : unit -> unit

(** {1 Running task sets} *)

(** [run n f] — results of [f i] in index order, deterministic merge as
    described above. *)
val run : int -> (int -> 'a) -> 'a array

val map_array : ('a -> 'b) -> 'a array -> 'b array
val map_list : ('a -> 'b) -> 'a list -> 'b list

(** {1 Deferred (speculative) execution}

    [run_deferred] evaluates the tasks but leaves every side effect
    buffered in the returned deferreds.  The caller decides, per task and
    in any order it likes, whether to {!commit} (apply the delta, return
    the value or re-raise the task's exception) or to drop the deferred —
    discarding a speculative task's side effects entirely.  The ATPG
    driver uses this to speculate ahead of fault-dropping decisions while
    staying bit-identical to its sequential loop. *)

type 'a deferred

val run_deferred : int -> (int -> 'a) -> 'a deferred array

(** The task's value without committing side effects; [None] if the task
    raised. *)
val peek : 'a deferred -> 'a option

val commit : 'a deferred -> 'a

(** {1 Latches}

    A latch is a one-shot event marking a computation other domains may
    wait for instead of repeating it ([Core.Cache]'s single-flight
    misses).  It is numbered like a task set: sets submitted after
    {!latch} returns are newer than it. *)

type latch

val latch : unit -> latch

(** [hold l f] runs [f] as the computation [l] stands for: the calling
    domain is positioned at [l] while [f] runs, and [l] is released when
    [f] returns or raises.  Make [f]'s result visible to waiters before
    it returns. *)
val hold : latch -> (unit -> 'a) -> 'a

(** [await l] blocks until [l] is released, running tasks of sets newer
    than [l] meanwhile (the work [l]'s computation spreads over the
    pool), and returns [true].  It returns [false] at once, without
    waiting, when the calling domain is positioned at or after [l]: it
    holds [l] itself, runs a task of a set made after [l], or holds a
    newer latch.  Waiting there could deadlock, so the caller must
    compute the value itself. *)
val await : latch -> bool

(** {1 Introspection / test hooks} *)

(** Distinct domains that have executed at least one pool task since
    start (or the last {!shutdown_workers}); also exported as the
    [exec.domains_used] gauge. *)
val domains_used : unit -> int

(** Join all worker domains and reset the used-domain set.  Test hook —
    production code never retires workers. *)
val shutdown_workers : unit -> unit

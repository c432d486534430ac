//! One work-stealing executor for every parallel phase in the workspace.
//!
//! Before this crate, independent pools coexisted: the sweep driver
//! (`merch_bench::par`) spawned scoped threads per sweep, the page engine
//! (`merch_hm::page`) spawned scoped threads per shard phase, the round
//! executor (`merch_hm::runtime`) spawned scoped threads per round to cost
//! its tasks (it now costs them inline), and the multi-tenant service ran
//! tenant rounds on a serial loop. Nesting them oversubscribed the machine
//! (N tenants × M shard workers) and none could donate idle cycles to
//! another. This crate replaces all of them with one process-global pool
//! of persistent workers and *task classes* that encode nesting depth:
//!
//! * [`TaskClass::Sweep`] — one (app × policy × seed) sweep cell;
//! * [`TaskClass::Tenant`] — one tenant's placement rounds inside the
//!   service;
//! * [`TaskClass::Shard`] — one chunk of a page-engine shard phase.
//!
//! **Cooperative split budget.** A parallel region does not get dedicated
//! threads; it splits its work into tasks, pushes them on the shared
//! queues, and the *submitting thread participates*: [`scope`] executes
//! queued tasks while waiting for its own batch. Workers and helpers pop
//! deepest-class-first (shard chunks before new tenant rounds before new
//! sweep cells), and a helper blocked on a batch of class `C` only executes
//! tasks at least as deep as `C` — it never picks up a coarser task that
//! would delay its own batch behind seconds of unrelated work. Total
//! concurrency is bounded by `workers + blocked submitters` no matter how
//! deeply regions nest, so N tenants each fanning out M shard chunks never
//! oversubscribe the machine.
//!
//! **Determinism.** The pool adds none of its own: every caller writes
//! results into pre-assigned slots (or folds partials in a fixed order), so
//! outputs are byte-identical at any worker count — the property the
//! engine's `--jobs`-independence tests assert.
//!
//! **Wakeup.** All waiting — idle workers, helpers out of eligible tasks,
//! service consumers blocked on a result pipe — parks on one condvar and is
//! woken by task pushes, batch completions, and [`notify`]; nothing
//! sleep-polls.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Scheduling class of a task: its nesting depth in the
/// sweep → tenant → shard hierarchy. Deeper classes are popped first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskClass {
    /// An independent sweep cell (outermost).
    Sweep,
    /// One tenant's placement rounds inside the multi-tenant service.
    Tenant,
    /// A chunk of shards in a page-engine phase (innermost).
    Shard,
}

impl TaskClass {
    fn depth(self) -> usize {
        match self {
            TaskClass::Sweep => 0,
            TaskClass::Tenant => 1,
            TaskClass::Shard => 2,
        }
    }

    /// Human label used in propagated panic messages
    /// (`"<label> task panicked: <original message>"`).
    pub fn label(self) -> &'static str {
        match self {
            TaskClass::Sweep => "sweep-cell",
            TaskClass::Tenant => "tenant-round",
            TaskClass::Shard => "shard-phase",
        }
    }
}

/// How a scoped task batch ended. [`try_scope`] returns this instead of
/// re-panicking, so a service-level supervisor can contain a dead job
/// (quarantine the tenant, keep the pool alive) rather than unwinding the
/// whole process. Precedence when several things went wrong in one batch:
/// `Panicked` > `TimedOut` > `Ok`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every task of the batch ran to completion.
    Ok,
    /// At least one task panicked; `payload` is the first failure's
    /// message, already formatted as
    /// `"<class label> task panicked: <original message>"`.
    Panicked {
        /// Formatted first-panic message.
        payload: String,
    },
    /// [`Scope::revoke_queued`] cancelled queued-but-unstarted tasks (the
    /// supervisor gave up waiting); every task that had already started
    /// still ran to completion, so borrows stayed sound.
    TimedOut,
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// format string yields `String`, with a literal yields `&str`).
pub fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// 0 = auto (one worker per available core).
static POOL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the workspace's one jobs knob (`repro --jobs N`): the sweep driver,
/// the service's tenant rounds and the page engine's shard phases all size
/// themselves from it. `0` restores auto mode; `1` makes every pool-aware
/// caller take its strictly sequential path; `n >= 2` is honoured as set,
/// bypassing work gates.
pub fn set_pool_jobs(n: usize) {
    POOL_JOBS.store(n, Ordering::SeqCst);
}

/// Effective pool job count (the knob, not the live worker count): the
/// explicit setting, or one per available core in auto mode.
pub fn pool_jobs() -> usize {
    match POOL_JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Job count for a parallel region carrying `work()` units, under the one
/// rule every gated caller shares: an explicit knob is honoured as set
/// (that is how the `--jobs`-independence tests force parallel paths on
/// tiny inputs), while auto mode stays sequential (`1`) until the region's
/// work reaches `min_work`, because dispatching to the pool costs
/// microseconds that small regions never win back. `work` is only
/// evaluated in auto mode. Results must not depend on the returned count.
pub fn gated_jobs(min_work: usize, work: impl FnOnce() -> usize) -> usize {
    match POOL_JOBS.load(Ordering::SeqCst) {
        0 if work() < min_work => 1,
        _ => pool_jobs(),
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Task {
    job: Job,
    class: TaskClass,
    batch: Arc<BatchState>,
}

struct BatchState {
    remaining: AtomicUsize,
    /// First panic of the batch, already formatted with the class label.
    panic: Mutex<Option<String>>,
    /// Set when [`Scope::revoke_queued`] cancelled pending tasks.
    revoked: AtomicBool,
}

struct PoolState {
    /// Pending tasks, one FIFO queue per class depth.
    queues: [VecDeque<Task>; 3],
    /// Worker threads ever spawned (grow-only).
    workers: usize,
    /// Workers currently parked on the condvar.
    idle: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    cond: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            workers: 0,
            idle: 0,
        }),
        cond: Condvar::new(),
    })
}

fn lock_state(p: &'static Pool) -> MutexGuard<'static, PoolState> {
    // A panicking `done` predicate can poison the lock; the pool state
    // itself is only ever mutated under short, panic-free sections.
    p.state.lock().unwrap_or_else(|e| e.into_inner())
}

impl PoolState {
    /// Pop the deepest pending task whose class depth is ≥ `min_depth`.
    fn pop(&mut self, min_depth: usize) -> Option<Task> {
        for d in (min_depth..3).rev() {
            if let Some(t) = self.queues[d].pop_front() {
                return Some(t);
            }
        }
        None
    }
}

/// Grow the pool to at least `n` persistent workers. Workers never exit;
/// extra ones idle on the condvar. Correctness never depends on workers
/// existing — a submitting thread executes its own batch if nobody helps —
/// so this is purely a parallelism target.
pub fn ensure_workers(n: usize) {
    let p = pool();
    let to_spawn = {
        let mut st = lock_state(p);
        let k = n.saturating_sub(st.workers);
        st.workers += k;
        k
    };
    for spawned in 0..to_spawn {
        if std::thread::Builder::new()
            .name("merch-sched".into())
            .spawn(worker_loop)
            .is_err()
        {
            // Thread exhaustion is not fatal: scopes complete via caller
            // helping. Roll the target back so a later call may retry.
            let mut st = lock_state(p);
            st.workers -= to_spawn - spawned;
            return;
        }
    }
}

/// Workers currently parked (a split-budget hint for auto-mode callers;
/// results never depend on it).
pub fn idle_workers() -> usize {
    lock_state(pool()).idle
}

/// Wake every parked worker and helper. Call after changing external state
/// a [`help_until`] predicate reads (e.g. pushing into a result pipe).
pub fn notify() {
    let p = pool();
    let _st = lock_state(p);
    p.cond.notify_all();
}

fn worker_loop() {
    let p = pool();
    loop {
        let task = {
            let mut st = lock_state(p);
            loop {
                if let Some(t) = st.pop(0) {
                    break t;
                }
                st.idle += 1;
                st = p.cond.wait(st).unwrap_or_else(|e| e.into_inner());
                st.idle -= 1;
            }
        };
        run_task(task);
    }
}

fn run_task(t: Task) {
    let class = t.class;
    let batch = t.batch;
    if let Err(p) = catch_unwind(AssertUnwindSafe(t.job)) {
        let mut slot = batch.panic.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(format!(
                "{} task panicked: {}",
                class.label(),
                payload_msg(p.as_ref())
            ));
        }
    }
    if batch.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        notify();
    }
}

/// Execute queued tasks of class depth ≥ `min` until `done()` returns
/// true, parking on the pool condvar when no eligible task is pending.
/// `done` is re-checked under the pool lock before parking, so a state
/// change followed by [`notify`] is never lost. The service's consumer
/// loop uses this to drain tenant-round results while donating its own
/// cycles to the pool.
pub fn help_until(min: TaskClass, done: &mut dyn FnMut() -> bool) {
    let p = pool();
    loop {
        if done() {
            return;
        }
        let task = {
            let mut st = lock_state(p);
            loop {
                if let Some(t) = st.pop(min.depth()) {
                    break Some(t);
                }
                if done() {
                    break None;
                }
                st = p.cond.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        match task {
            Some(t) => run_task(t),
            None => return,
        }
    }
}

/// A scoped task batch: tasks spawned on `Scope` may borrow anything that
/// outlives the [`scope`] call, because `scope` does not return until every
/// spawned task has finished.
pub struct Scope<'s> {
    class: TaskClass,
    batch: Arc<BatchState>,
    /// Invariant over 's (the marker mirrors `std::thread::Scope`).
    _marker: std::marker::PhantomData<&'s mut &'s ()>,
}

impl<'s> Scope<'s> {
    /// Queue `f` on the pool as a task of this scope's class.
    pub fn spawn<F: FnOnce() + Send + 's>(&self, f: F) {
        self.batch.remaining.fetch_add(1, Ordering::SeqCst);
        let job: Box<dyn FnOnce() + Send + 's> = Box::new(f);
        // SAFETY: `scope` (and its drop guard, if the scope body panics)
        // blocks until `remaining` reaches zero, so every borrow inside the
        // closure — bounded below by 's — strictly outlives its execution.
        // The transmute only erases the lifetime; the layout of a boxed
        // trait object does not depend on it.
        let job: Job = unsafe { std::mem::transmute(job) };
        let p = pool();
        {
            let mut st = lock_state(p);
            st.queues[self.class.depth()].push_back(Task {
                job,
                class: self.class,
                batch: Arc::clone(&self.batch),
            });
            p.cond.notify_one();
        }
    }

    /// Cancel every task of this scope that is still queued (not yet
    /// started). Tasks already running are untouched — the scope still
    /// waits for them, so borrows stay sound — but the batch's outcome
    /// becomes [`JobOutcome::TimedOut`] (unless a task also panicked,
    /// which takes precedence). Used by the service supervisor to drain a
    /// misbehaving tenant without tearing the pool down.
    pub fn revoke_queued(&self) {
        let p = pool();
        let mut st = lock_state(p);
        let q = &mut st.queues[self.class.depth()];
        let before = q.len();
        q.retain(|t| !Arc::ptr_eq(&t.batch, &self.batch));
        let removed = before - q.len();
        drop(st);
        if removed > 0 {
            self.batch.revoked.store(true, Ordering::SeqCst);
            if self.batch.remaining.fetch_sub(removed, Ordering::SeqCst) == removed {
                notify();
            }
        }
    }
}

/// Waits for `batch.remaining == 0`, helping with tasks at least as deep
/// as `class` in the meantime.
fn wait_batch(class: TaskClass, batch: &Arc<BatchState>) {
    let b = Arc::clone(batch);
    help_until(class, &mut move || b.remaining.load(Ordering::SeqCst) == 0);
}

/// Run-to-completion drop guard: if the scope body panics, spawned tasks
/// still borrow the stack and must finish before unwinding continues.
struct ScopeGuard<'a> {
    class: TaskClass,
    batch: &'a Arc<BatchState>,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        wait_batch(self.class, self.batch);
    }
}

/// Fault-containing variant of [`scope`]: identical semantics — the body
/// and every spawned task finish (or are revoked) before it returns — but
/// a task panic is *reported*, not re-propagated. Returns the body's value
/// alongside the batch's [`JobOutcome`], leaving the pool and its queues
/// healthy: the dead task's slot was decremented like any other, no lock
/// stays poisoned, and co-resident batches never observe the failure.
///
/// A panic in `body` itself still propagates unchanged — after every
/// already-spawned task has finished (the containment boundary is the
/// *task*, not the scope owner).
pub fn try_scope<'s, R>(class: TaskClass, body: impl FnOnce(&Scope<'s>) -> R) -> (R, JobOutcome) {
    let batch = Arc::new(BatchState {
        remaining: AtomicUsize::new(0),
        panic: Mutex::new(None),
        revoked: AtomicBool::new(false),
    });
    let result = {
        let guard = ScopeGuard {
            class,
            batch: &batch,
        };
        let scope = Scope {
            class,
            batch: Arc::clone(&batch),
            _marker: std::marker::PhantomData,
        };
        let r = body(&scope);
        std::mem::forget(guard); // normal path: wait without double-waiting
        wait_batch(class, &batch);
        r
    };
    let failed = batch.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    let outcome = match failed {
        Some(payload) => JobOutcome::Panicked { payload },
        None if batch.revoked.load(Ordering::SeqCst) => JobOutcome::TimedOut,
        None => JobOutcome::Ok,
    };
    (result, outcome)
}

/// Open a task scope of the given class: `body` receives a [`Scope`] to
/// spawn borrowing tasks on, and `scope` returns only after the body *and
/// every spawned task* completed. The calling thread helps execute pending
/// tasks (of class depth ≥ `class`) while waiting, so a scope makes
/// progress even with zero pool workers and nested scopes never deadlock.
///
/// # Panics
///
/// If a spawned task panicked, re-panics with
/// `"<class label> task panicked: <original message>"` (first failing task
/// wins). A panic in `body` itself propagates unchanged — after every
/// already-spawned task has finished. Callers that must survive a dead
/// task use [`try_scope`] instead.
pub fn scope<'s, R>(class: TaskClass, body: impl FnOnce(&Scope<'s>) -> R) -> R {
    match try_scope(class, body) {
        (_, JobOutcome::Panicked { payload }) => panic!("{payload}"),
        // TimedOut only arises when the body itself called `revoke_queued`
        // — a deliberate cancellation, not a fault — so the value stands.
        (r, _) => r,
    }
}

/// Map `f` over `items` on up to `jobs` executors as `class` tasks,
/// returning the results in input order. With `jobs <= 1` this is a plain
/// sequential map on the calling thread. Otherwise `jobs - 1` chunks are
/// queued and the calling thread maps the first chunk itself (then helps
/// drain queued tasks of its class or deeper inside the scope wait), so an
/// explicit `jobs` means at most `jobs` concurrent chunk executors, however
/// deeply callers nest.
///
/// Deterministic: every result lands in its item's pre-assigned slot, so
/// the split never affects the output. A chunk task that panics leaves its
/// unreached slots empty; those items are mapped again on the calling
/// thread, which is identical to a clean pass because slot `i` depends
/// only on item `i`. A fault that strikes again there unwinds from the
/// caller — never through the pool.
pub fn map_chunks<T: Sync, R: Send>(
    class: TaskClass,
    items: &[T],
    jobs: usize,
    f: &(dyn Fn(&T) -> R + Sync),
) -> Vec<R> {
    // At most one chunk per item, so no more workers than items.
    let jobs = jobs.min(items.len());
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(jobs);
    ensure_workers(jobs - 1);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let ((), outcome) = try_scope(class, |scope| {
        let mut chunks = items.chunks(chunk).zip(out.chunks_mut(chunk));
        let first = chunks.next();
        let fill = move |part: &[T], slots: &mut [Option<R>]| {
            for (t, slot) in part.iter().zip(slots) {
                *slot = Some(f(t));
            }
        };
        for (part, slots) in chunks {
            scope.spawn(move || fill(part, slots));
        }
        if let Some((part, slots)) = first {
            fill(part, slots);
        }
    });
    if matches!(outcome, JobOutcome::Panicked { .. }) {
        for (t, slot) in items.iter().zip(out.iter_mut()) {
            if slot.is_none() {
                *slot = Some(f(t));
            }
        }
    }
    out.into_iter()
        .map(|o| o.expect("every item mapped"))
        .collect()
}

/// [`map_chunks`] over mutable items. A panicking chunk task leaves the
/// items it never reached unmodified, so remapping exactly those on the
/// calling thread is byte-identical to a clean parallel pass.
pub fn map_chunks_mut<T: Send, R: Send>(
    class: TaskClass,
    items: &mut [T],
    jobs: usize,
    f: &(dyn Fn(&mut T) -> R + Sync),
) -> Vec<R> {
    // At most one chunk per item, so no more workers than items.
    let jobs = jobs.min(items.len());
    if jobs <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let chunk = items.len().div_ceil(jobs);
    ensure_workers(jobs - 1);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let ((), outcome) = try_scope(class, |scope| {
        let mut chunks = items.chunks_mut(chunk).zip(out.chunks_mut(chunk));
        let first = chunks.next();
        let fill = move |part: &mut [T], slots: &mut [Option<R>]| {
            for (t, slot) in part.iter_mut().zip(slots) {
                *slot = Some(f(t));
            }
        };
        for (part, slots) in chunks {
            scope.spawn(move || fill(part, slots));
        }
        if let Some((part, slots)) = first {
            fill(part, slots);
        }
    });
    if matches!(outcome, JobOutcome::Panicked { .. }) {
        for (t, slot) in items.iter_mut().zip(out.iter_mut()) {
            if slot.is_none() {
                *slot = Some(f(t));
            }
        }
    }
    out.into_iter()
        .map(|o| o.expect("every item mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_every_task_with_borrows() {
        ensure_workers(2);
        let mut out = vec![0u64; 64];
        scope(TaskClass::Sweep, |s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u64 * 3);
            }
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scopes_complete() {
        ensure_workers(2);
        let total = AtomicU64::new(0);
        scope(TaskClass::Tenant, |s| {
            for _ in 0..4 {
                let total = &total;
                s.spawn(move || {
                    scope(TaskClass::Shard, |inner| {
                        for _ in 0..8 {
                            inner.spawn(move || {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn zero_worker_scope_is_executed_by_the_caller() {
        // Workers may exist from other tests; what this asserts is that
        // completion never *requires* them: a scope with tasks targeted
        // at an empty class queue still finishes via caller helping.
        let mut hits = [false; 8];
        scope(TaskClass::Shard, |s| {
            for h in hits.iter_mut() {
                s.spawn(move || *h = true);
            }
        });
        assert!(hits.iter().all(|&h| h));
    }

    #[test]
    fn task_panic_carries_class_label() {
        ensure_workers(1);
        let r = catch_unwind(AssertUnwindSafe(|| {
            scope(TaskClass::Shard, |s| {
                s.spawn(|| panic!("inner boom"));
            });
        }));
        let msg = payload_msg(r.expect_err("task panic must propagate").as_ref());
        assert!(msg.contains("shard-phase task panicked"), "{msg}");
        assert!(msg.contains("inner boom"), "{msg}");
    }

    #[test]
    fn try_scope_contains_the_panic_and_keeps_the_pool_healthy() {
        ensure_workers(2);
        let mut ok = [false; 8];
        let ((), outcome) = try_scope(TaskClass::Tenant, |s| {
            s.spawn(|| panic!("contained boom"));
            for slot in ok.iter_mut() {
                s.spawn(move || *slot = true);
            }
        });
        match outcome {
            JobOutcome::Panicked { payload } => {
                assert!(payload.contains("tenant-round task panicked"), "{payload}");
                assert!(payload.contains("contained boom"), "{payload}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Surviving tasks of the same batch all ran; a fresh scope on the
        // same pool still works (no poisoned slots, no stuck deques).
        assert!(ok.iter().all(|&b| b));
        let mut after = [0u64; 4];
        scope(TaskClass::Shard, |s| {
            for (i, slot) in after.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u64 + 1);
            }
        });
        assert_eq!(after, [1, 2, 3, 4]);
    }

    #[test]
    fn revoke_queued_times_out_without_running_revoked_tasks() {
        // No helping happens between spawn and revoke (the submitting
        // thread only helps once it waits), so with the tasks targeted at
        // a depth no idle worker is guaranteed to drain instantly, at
        // least the still-queued ones are cancelled. Run with enough
        // tasks that some are certainly still queued at revoke time.
        let hits = AtomicU64::new(0);
        let ((), outcome) = try_scope(TaskClass::Sweep, |s| {
            for _ in 0..64 {
                let hits = &hits;
                s.spawn(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
            s.revoke_queued();
        });
        // Workers from other tests may have started a few tasks already;
        // revocation cancels the rest and reports TimedOut.
        if outcome == JobOutcome::TimedOut {
            assert!(hits.load(Ordering::SeqCst) < 64);
        } else {
            assert_eq!(outcome, JobOutcome::Ok);
            assert_eq!(hits.load(Ordering::SeqCst), 64);
        }
    }

    #[test]
    fn panic_beats_timeout_in_outcome_precedence() {
        ensure_workers(1);
        let ((), outcome) = try_scope(TaskClass::Shard, |s| {
            s.spawn(|| panic!("first loss"));
            // Wait until the panicking task has been consumed, then queue
            // more and revoke them: the batch both panicked and timed out.
            wait_batch(TaskClass::Shard, &s.batch);
            for _ in 0..16 {
                s.spawn(|| {});
            }
            s.revoke_queued();
        });
        assert!(
            matches!(outcome, JobOutcome::Panicked { .. }),
            "expected Panicked, got {outcome:?}"
        );
    }

    #[test]
    fn help_until_drains_results_without_polling() {
        ensure_workers(2);
        let pipe: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let mut seen = Vec::new();
        scope(TaskClass::Tenant, |s| {
            for i in 0..16u64 {
                let pipe = &pipe;
                s.spawn(move || {
                    pipe.lock().unwrap().push(i);
                    notify();
                });
            }
            while seen.len() < 16 {
                help_until(TaskClass::Tenant, &mut || !pipe.lock().unwrap().is_empty());
                seen.append(&mut pipe.lock().unwrap());
            }
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    /// Serialises tests that mutate the process-global jobs knob.
    static JOBS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn jobs_knob_roundtrips() {
        let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_pool_jobs(3);
        assert_eq!(pool_jobs(), 3);
        set_pool_jobs(0);
        assert!(pool_jobs() >= 1);
    }

    #[test]
    fn gated_jobs_applies_the_work_gate_only_in_auto_mode() {
        let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_pool_jobs(0);
        assert_eq!(gated_jobs(100, || 99), 1);
        assert_eq!(gated_jobs(100, || 100), pool_jobs());
        // Explicit settings bypass the gate without estimating work.
        set_pool_jobs(2);
        assert_eq!(
            gated_jobs(100, || unreachable!("explicit jobs skip the estimate")),
            2
        );
        set_pool_jobs(1);
        assert_eq!(
            gated_jobs(100, || unreachable!("explicit jobs skip the estimate")),
            1
        );
        set_pool_jobs(0);
    }

    #[test]
    fn map_chunks_keeps_input_order_at_any_job_count() {
        ensure_workers(2);
        let items: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 3).collect();
        let mut muts = items.clone();
        for jobs in [1, 2, 5, 64] {
            assert_eq!(map_chunks(TaskClass::Shard, &items, jobs, &|x| x * 3), want);
            let old = map_chunks_mut(TaskClass::Shard, &mut muts, jobs, &|x| {
                *x += 1;
                *x - 1
            });
            assert_eq!(old.len(), items.len());
        }
        assert_eq!(muts, items.iter().map(|x| x + 4).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_panic_unwinds_from_the_caller_with_the_original_message() {
        ensure_workers(2);
        let items: Vec<u32> = (0..16).collect();
        let r = catch_unwind(AssertUnwindSafe(|| {
            map_chunks(TaskClass::Shard, &items, 4, &|&x| {
                assert!(x != 13, "item {x} failed");
                x
            })
        }));
        let msg = payload_msg(r.expect_err("the item panic must surface").as_ref());
        assert!(msg.contains("item 13 failed"), "{msg}");
        // The pool stays usable.
        assert_eq!(map_chunks(TaskClass::Shard, &items, 4, &|&x| x), items);
    }
}

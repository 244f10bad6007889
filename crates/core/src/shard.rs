//! Deterministic sharded execution — the std-only worker pool behind
//! both the fleet-sharded tick ([`crate::orchestrator::Platform::step`])
//! and the `sesame-bench` campaign sweeps.
//!
//! The contract is the one the whole reproduction stands on: results
//! are **merged in item order, never completion order**, so any worker
//! count produces byte-identical output. Each item's result is written
//! into its own pre-allocated slot by workers that pull indices from a
//! shared atomic cursor (work stealing with a one-item grain), and
//! reduction happens after every participant has drained the cursor.
//!
//! Workers are **persistent**: the first parallel call spawns a
//! process-wide pool of daemon threads, and every later call hands its
//! fan-out to the same threads (see [`pool`]). A 100 ms platform tick
//! makes three fan-out calls; spawning and joining OS threads for each
//! (the previous `std::thread::scope` design) cost more than the work
//! being parallelized and made the sharded tick *slower* than serial on
//! small fleets. The pool replaces the per-call spawn/join with one
//! condvar wake and one completion wait.
//!
//! Two entry points, each in an infallible and a panic-catching flavor:
//!
//! * [`run_indexed`] / [`try_run_indexed`] — read-only fan-out: `f(i)`
//!   for `i in 0..count`.
//! * [`run_tasks`] / [`try_run_tasks`] — owned work items: each `W`
//!   (e.g. a disjoint `&mut [UavRt]` shard carved out of the fleet with
//!   `split_at_mut`) is handed to exactly one worker, satisfying the
//!   aliasing rules without any unsafe code.
//!
//! A panic inside `f` never crosses a thread boundary raw: the worker
//! catches it at the task that raised it, so no slot mutex is ever
//! poisoned and the scoped join always succeeds. The `try_` variants
//! surface the panic as a structured per-task [`TaskPanic`] (task
//! index plus payload message) in item order; the infallible variants
//! re-raise the first (lowest-index) panic on the caller's thread with
//! the task index prepended — same abort semantics as before the
//! catch, minus the poisoned join.
//!
//! ```
//! use sesame_core::shard;
//!
//! let squares = shard::run_indexed(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! let mut data = vec![1, 2, 3, 4];
//! let (a, b) = data.split_at_mut(2);
//! let sums = shard::run_tasks(2, vec![a, b], |_, shard| {
//!     shard.iter_mut().for_each(|x| *x *= 10);
//!     shard.iter().sum::<i32>()
//! });
//! assert_eq!(sums, vec![30, 70]);
//! assert_eq!(data, vec![10, 20, 30, 40]);
//!
//! let caught = shard::try_run_indexed(2, 3, |i| {
//!     if i == 1 {
//!         panic!("boom");
//!     }
//!     i
//! });
//! assert_eq!(caught[0], Ok(0));
//! assert_eq!(caught[1].as_ref().unwrap_err().message, "boom");
//! assert_eq!(caught[2], Ok(2));
//! ```

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// The persistent worker pool behind [`try_run_indexed`] and
/// [`try_run_tasks`].
///
/// One process-wide set of daemon threads executes every fan-out. A
/// call *submits* a job — a borrowed `&(dyn Fn() + Sync)` worker body
/// that each participant runs exactly once (the body is the atomic
/// cursor drain, so any number of participants is correct) — then runs
/// the body itself and blocks until every helper that entered the job
/// has left it.
///
/// # Safety architecture
///
/// The worker body borrows the caller's stack (the result slots, the
/// user closure, the work items), but a persistent thread needs a
/// `'static` reference — so submission erases the lifetime with one
/// `transmute`. The erasure is sound because the borrow is bounded by a
/// completion barrier on *every* exit path:
///
/// * [`Pool::run`] only returns once `running == 0` and the job is
///   retired, so no helper can still be inside (or about to enter) the
///   body when the caller's frame unwinds or returns.
/// * The barrier wait lives in a drop guard, so a panic escaping the
///   caller's own body run still waits for the helpers before the
///   frame dies.
/// * Helpers only enter a job while it is installed (`entries > 0`,
///   checked under the state lock), and the job is uninstalled before
///   the barrier opens.
///
/// A nested fan-out from inside a job body (the body of one job calling
/// [`run_indexed`] again) runs inline instead of submitting — on a
/// worker and on the submitting thread alike. The pool is draining the
/// outer job: a worker that waited on it would deadlock, and the
/// submitting thread would stall until the helpers had drained every
/// other item.
mod pool {
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex, OnceLock};

    /// One submitted fan-out: the lifetime-erased worker body, how many
    /// helper entries remain, and which submission it belongs to.
    #[derive(Clone, Copy)]
    struct Job {
        /// The worker body. Points into the submitting call's stack;
        /// valid until that call's completion barrier opens (see the
        /// module docs).
        body: &'static (dyn Fn() + Sync),
        /// Helper entries not yet claimed. Each helper decrements once
        /// per job; at zero the job stops admitting.
        entries: usize,
        /// Submission number, used by the barrier wait.
        epoch: u64,
    }

    #[derive(Default)]
    struct State {
        job: Option<Job>,
        /// Helpers currently inside `job.body`.
        running: usize,
        /// Persistent worker threads spawned so far.
        threads: usize,
        /// Submission counter.
        epoch: u64,
        /// Highest epoch whose job has fully retired (all entries
        /// claimed or withdrawn, no helper still inside).
        completed: u64,
    }

    struct Pool {
        state: Mutex<State>,
        /// Signalled when a job is installed.
        work: Condvar,
        /// Signalled when a job retires.
        done: Condvar,
    }

    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        })
    }

    thread_local! {
        /// Whether this thread is running a job body: always on a pool
        /// worker, and on a submitting thread while it drains its own
        /// job (nested fan-outs run inline, see the module docs).
        static IN_JOB: Cell<bool> = const { Cell::new(false) };
    }

    /// Waits for `epoch` to retire when dropped — the completion
    /// barrier, panic-proof by living in `Drop`.
    struct Barrier {
        epoch: u64,
    }

    impl Drop for Barrier {
        fn drop(&mut self) {
            let pool = global();
            let mut st = pool.state.lock().expect("pool state never poisoned");
            while st.completed < self.epoch {
                st = pool.done.wait(st).expect("pool state never poisoned");
            }
        }
    }

    /// The persistent helper thread: claim an entry of the installed
    /// job, run its body once, retire the job when the last entry
    /// leaves, sleep until the next installation.
    fn worker_loop() {
        IN_JOB.with(|w| w.set(true));
        let pool = global();
        let mut st = pool.state.lock().expect("pool state never poisoned");
        loop {
            match st.job {
                Some(job) if job.entries > 0 => {
                    st.job.as_mut().expect("matched Some above").entries -= 1;
                    st.running += 1;
                    drop(st);
                    // A panic escaping the body would mean the per-item
                    // catch inside it failed; the caller's slot-invariant
                    // checks will surface that. The worker itself must
                    // survive to keep the pool alive — and must reach the
                    // bookkeeping below, or the barrier never opens.
                    let _ = catch_unwind(AssertUnwindSafe(job.body));
                    st = pool.state.lock().expect("pool state never poisoned");
                    st.running -= 1;
                    if st.running == 0
                        && st
                            .job
                            .is_some_and(|j| j.entries == 0 && j.epoch == job.epoch)
                    {
                        st.job = None;
                        st.completed = job.epoch;
                        pool.done.notify_all();
                    }
                }
                _ => {
                    st = pool.work.wait(st).expect("pool state never poisoned");
                }
            }
        }
    }

    /// Runs `body` once on the calling thread and once on each of
    /// `helpers` pool workers, returning only after every participant
    /// has finished. `body` must be idempotent under extra runs (the
    /// cursor-drain bodies are: a drained cursor returns immediately).
    pub(super) fn run(helpers: usize, body: &(dyn Fn() + Sync)) {
        if helpers == 0 || IN_JOB.with(Cell::get) {
            // Serial, or a nested fan-out inside a job body: inline.
            body();
            return;
        }
        let pool = global();
        let epoch;
        {
            let mut st = pool.state.lock().expect("pool state never poisoned");
            // One job at a time: a second platform submitting from
            // another thread waits for the current job to retire.
            while st.job.is_some() || st.running > 0 {
                st = pool.done.wait(st).expect("pool state never poisoned");
            }
            while st.threads < helpers {
                st.threads += 1;
                std::thread::Builder::new()
                    .name("sesame-shard".into())
                    .spawn(worker_loop)
                    .expect("spawn shard worker");
            }
            st.epoch += 1;
            epoch = st.epoch;
            // SAFETY: the borrow is bounded by the completion barrier —
            // `Barrier::drop` below blocks until this epoch retires, on
            // both the return and the unwind path, so no worker holds
            // `body` past this call (see the module docs).
            let body: &'static (dyn Fn() + Sync) = unsafe {
                std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(body)
            };
            st.job = Some(Job {
                body,
                entries: helpers,
                epoch,
            });
        }
        pool.work.notify_all();
        let _barrier = Barrier { epoch };
        // Participate: the caller's run is what guarantees progress even
        // if every helper is still waking up. While it runs, the caller
        // counts as inside the job, and `_in_job` clears that on return
        // and on unwind.
        let _in_job = InJob::enter();
        body();
        // `_in_job` drops here, then `_barrier`, waiting for the helpers.
    }

    /// Marks the submitting thread as inside its job until dropped.
    struct InJob;

    impl InJob {
        fn enter() -> InJob {
            IN_JOB.with(|w| w.set(true));
            InJob
        }
    }

    impl Drop for InJob {
        fn drop(&mut self) {
            IN_JOB.with(|w| w.set(false));
        }
    }
}

/// A worker panic captured at the task that raised it: the item index
/// plus the stringified panic payload. Produced by [`try_run_indexed`] /
/// [`try_run_tasks`] instead of letting the payload tear down the
/// scoped-thread join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// The panic payload rendered as text (`&str` / `String` payloads
    /// verbatim, anything else a placeholder).
    pub message: String,
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Renders a `catch_unwind` payload as text. `panic!("...")` yields
/// `&'static str`, `panic!("{x}")` yields `String`; anything else (a
/// custom `panic_any` payload) gets a stable placeholder so fault
/// records stay deterministic.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// Whether the current thread is inside a [`quiet_catch_unwind`]
    /// scope, i.e. any panic raised right now will be absorbed and
    /// reported structurally rather than escaping.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// One-time installation of the hook wrapper behind
/// [`quiet_catch_unwind`].
static QUIET_HOOK: Once = Once::new();

/// [`catch_unwind`] without the default panic hook's stderr message and
/// backtrace for the panics this catch absorbs.
///
/// Caught panics here are *reported*, not lost — as a [`TaskPanic`], or
/// as the orchestrator's `UavFault` trace/metric/finding records — so
/// the default hook's output is pure noise, and under a chaos campaign
/// that schedules panics on purpose it is a torrent of it. The first
/// call wraps the process's current panic hook with one that defers to
/// it unless the unwinding thread is inside a quiet scope; escaped
/// (re-raised) panics therefore still print normally. Scopes nest — the
/// flag is saved and restored, not cleared.
pub fn quiet_catch_unwind<T>(f: impl FnOnce() -> T) -> Result<T, Box<dyn Any + Send + 'static>> {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
    let was = QUIET.with(|q| q.replace(true));
    // AssertUnwindSafe: see `catch`'s argument — callers treat an Err as
    // "this item's state is suspect" and never reuse it.
    let result = catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(was));
    result
}

fn catch<T>(index: usize, f: impl FnOnce() -> T) -> Result<T, TaskPanic> {
    // AssertUnwindSafe (inside quiet_catch_unwind): the closure's
    // captures are only observed again by the caller through the
    // returned Err, which callers treat as "this item's state is
    // suspect" (the orchestrator quarantines the UAV and never reuses
    // its engine). See DESIGN.md's unwind-safety argument.
    quiet_catch_unwind(f).map_err(|payload| TaskPanic {
        index,
        message: panic_message(payload.as_ref()),
    })
}

/// Re-raises the first (lowest-index) captured panic, if any, with the
/// task index prepended to the original message.
fn resume_first<T>(results: Vec<Result<T, TaskPanic>>) -> Vec<T> {
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("{p}")))
        .collect()
}

/// Runs `f(0..count)` on a pool of `jobs` workers and returns the
/// results in *index order*, regardless of which worker finished which
/// item when.
///
/// With `jobs <= 1` (or a single item) no threads are spawned and the
/// items run inline in index order — the serial reference path. The
/// parallel path produces the exact same `Vec` because every item's
/// result is placed by index, not by arrival.
///
/// A panic inside `f` is caught per task and re-raised on the caller's
/// thread for the lowest-index failing item; use [`try_run_indexed`] to
/// observe panics as values instead.
pub fn run_indexed<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    resume_first(try_run_indexed(jobs, count, f))
}

/// [`run_indexed`] with structured panic capture: each item yields
/// `Ok(T)` or the [`TaskPanic`] its closure raised, in index order. The
/// remaining items still run — one poisoned item never takes down the
/// fan-out.
pub fn try_run_indexed<T, F>(jobs: usize, count: usize, f: F) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, count.max(1));
    if jobs <= 1 {
        return (0..count).map(|i| catch(i, || f(i))).collect();
    }
    // One slot per item. A Mutex<Option<T>> per slot keeps this std-only
    // and safe; it is uncontended (each slot is locked exactly once) so
    // the cost is a few atomic ops per *item*, noise against a full
    // scenario run. The catch runs *inside* the worker, before the slot
    // lock, so a panicking closure can never poison a slot.
    let slots: Vec<Mutex<Option<Result<T, TaskPanic>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    pool::run(jobs - 1, &|| loop {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= count {
            break;
        }
        let result = catch(idx, || f(idx));
        // Invariant: each slot is locked once by the single
        // worker that claimed its index, and `f` cannot unwind
        // while it is held — the lock cannot be poisoned.
        *slots[idx].lock().expect("slot mutex never poisoned") = Some(result);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot mutex never poisoned")
                // Invariant: the pool's completion barrier opened, so
                // every index below `count` was claimed and its slot
                // filled.
                .expect("barrier opened, so every claimed slot was filled")
        })
        .collect()
}

/// Runs `f` once over each owned work item on a pool of `jobs` workers
/// and returns the results in *item order*. Each item is taken by
/// exactly one worker, so `W` may carry exclusive access — e.g. the
/// disjoint `&mut` shard slices of the fleet tick.
///
/// With `jobs <= 1` (or a single item) everything runs inline on the
/// caller's thread in item order.
///
/// A panic inside `f` is caught per task and re-raised on the caller's
/// thread for the lowest-index failing item; use [`try_run_tasks`] to
/// observe panics as values instead.
pub fn run_tasks<W, R, F>(jobs: usize, tasks: Vec<W>, f: F) -> Vec<R>
where
    W: Send,
    R: Send,
    F: Fn(usize, &mut W) -> R + Sync,
{
    resume_first(try_run_tasks(jobs, tasks, f))
}

/// [`run_tasks`] with structured panic capture: each task yields
/// `Ok(R)` or the [`TaskPanic`] its closure raised, in item order. A
/// panicking task drops its work item `W` (its exclusive state is
/// suspect anyway) and the remaining tasks still run.
pub fn try_run_tasks<W, R, F>(jobs: usize, tasks: Vec<W>, f: F) -> Vec<Result<R, TaskPanic>>
where
    W: Send,
    R: Send,
    F: Fn(usize, &mut W) -> R + Sync,
{
    let count = tasks.len();
    let jobs = jobs.clamp(1, count.max(1));
    if jobs <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, mut w)| catch(i, || f(i, &mut w)))
            .collect();
    }
    // A claim slot per task: the work item (taken once) and its result.
    type Slot<W, R> = Mutex<(Option<W>, Option<Result<R, TaskPanic>>)>;
    let slots: Vec<Slot<W, R>> = tasks
        .into_iter()
        .map(|w| Mutex::new((Some(w), None)))
        .collect();
    let cursor = AtomicUsize::new(0);
    pool::run(jobs - 1, &|| loop {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= count {
            break;
        }
        // Invariant: the work item is taken and the result
        // stored under two *separate* lock acquisitions, and the
        // closure runs between them with no lock held — a panic
        // in `f` cannot poison the slot.
        let mut w = slots[idx]
            .lock()
            .expect("slot mutex never poisoned")
            .0
            .take()
            // Invariant: the atomic cursor hands each index to
            // exactly one worker.
            .expect("each task is claimed by exactly one worker");
        let result = catch(idx, || f(idx, &mut w));
        slots[idx].lock().expect("slot mutex never poisoned").1 = Some(result);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot mutex never poisoned")
                .1
                // Invariant: the pool's completion barrier opened, so
                // every index below `count` was claimed and its slot
                // filled.
                .expect("barrier opened, so every claimed slot was filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn indexed_results_are_in_index_order_at_any_worker_count() {
        let serial = run_indexed(1, 100, |i| i * 3);
        for jobs in [2, 4, 8, 16] {
            assert_eq!(run_indexed(jobs, 100, |i| i * 3), serial, "jobs={jobs}");
        }
    }

    /// A fan-out nested in a job body runs inline on the thread that
    /// claimed the outer item, the submitting thread included: it never
    /// waits for the outer job to retire.
    #[test]
    fn nested_fan_outs_run_inline_on_every_participant() {
        use std::time::{Duration, Instant};
        let caller = std::thread::current().id();
        let both_started = std::sync::Barrier::new(2);
        let caller_nested_done = std::sync::atomic::AtomicBool::new(false);
        let inline_on = |me| run_indexed(2, 8, |_| std::thread::current().id()) == [me; 8];
        let out = run_indexed(2, 2, |_| {
            // Each item waits for the other, so one runs on the
            // submitting thread and one on the pool's helper.
            both_started.wait();
            let me = std::thread::current().id();
            if me == caller {
                let inline = inline_on(me);
                caller_nested_done.store(true, Ordering::SeqCst);
                inline
            } else {
                // The helper's item keeps the outer job open until the
                // submitting thread's nested fan-out has returned.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !caller_nested_done.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                caller_nested_done.load(Ordering::SeqCst) && inline_on(me)
            }
        });
        assert_eq!(out, [true, true]);
    }

    #[test]
    fn tasks_run_exactly_once_each() {
        let calls = AtomicU64::new(0);
        let out = run_tasks(8, (0..257).collect::<Vec<_>>(), |i, w| {
            calls.fetch_add(1, Ordering::Relaxed);
            (i, *w)
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert!(out.iter().enumerate().all(|(i, &(j, v))| i == j && i == v));
    }

    #[test]
    fn tasks_carry_exclusive_slices() {
        let mut data: Vec<u64> = (0..50).collect();
        let mut tasks = Vec::new();
        let mut rest = data.as_mut_slice();
        for len in [17, 17, 16] {
            let (head, tail) = rest.split_at_mut(len);
            tasks.push(head);
            rest = tail;
        }
        let sums = run_tasks(3, tasks, |_, shard| {
            shard.iter_mut().for_each(|x| *x += 1);
            shard.iter().sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), (1..=50).sum());
        assert_eq!(data[0], 1);
        assert_eq!(data[49], 50);
    }

    #[test]
    fn empty_and_oversubscribed_pools_are_fine() {
        assert_eq!(run_tasks(4, Vec::<u8>::new(), |_, w| *w), Vec::<u8>::new());
        assert_eq!(run_tasks(64, vec![1, 2, 3], |_, w| *w * 2), vec![2, 4, 6]);
        assert_eq!(run_tasks(0, vec![5], |_, w| *w), vec![5], "jobs=0 clamps");
    }

    #[test]
    fn try_run_indexed_captures_panics_per_task() {
        for jobs in [1, 4] {
            let out = try_run_indexed(jobs, 10, |i| {
                if i % 4 == 1 {
                    panic!("item {i} exploded");
                }
                i * 2
            });
            assert_eq!(out.len(), 10, "jobs={jobs}");
            for (i, r) in out.iter().enumerate() {
                if i % 4 == 1 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, i, "jobs={jobs}");
                    assert_eq!(p.message, format!("item {i} exploded"), "jobs={jobs}");
                } else {
                    assert_eq!(*r, Ok(i * 2), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn try_run_tasks_surviving_tasks_complete_around_a_panic() {
        for jobs in [1, 3] {
            let mut data: Vec<u64> = (0..30).collect();
            let mut tasks = Vec::new();
            let mut rest = data.as_mut_slice();
            for len in [10, 10, 10] {
                let (head, tail) = rest.split_at_mut(len);
                tasks.push(head);
                rest = tail;
            }
            let out = try_run_tasks(jobs, tasks, |i, shard| {
                shard.iter_mut().for_each(|x| *x += 100);
                if i == 1 {
                    panic!("shard 1 died");
                }
                shard.iter().sum::<u64>()
            });
            assert!(out[0].is_ok() && out[2].is_ok(), "jobs={jobs}");
            let p = out[1].as_ref().unwrap_err();
            assert_eq!((p.index, p.message.as_str()), (1, "shard 1 died"));
            // Mutations before the panic landed are visible: the join
            // was not poisoned and the data structure is intact.
            assert_eq!(data[0], 100, "jobs={jobs}");
            assert_eq!(data[29], 129, "jobs={jobs}");
        }
    }

    #[test]
    fn infallible_api_reraises_lowest_index_panic_with_context() {
        for jobs in [1, 4] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                run_indexed(jobs, 8, |i| {
                    if i >= 5 {
                        panic!("boom {i}");
                    }
                    i
                })
            }))
            .expect_err("must re-raise");
            let msg = panic_message(err.as_ref());
            assert_eq!(msg, "task 5 panicked: boom 5", "jobs={jobs}");
        }
    }

    #[test]
    fn quiet_catch_scopes_nest_and_restore() {
        let outer = quiet_catch_unwind(|| {
            let inner = quiet_catch_unwind(|| panic!("inner"));
            assert_eq!(panic_message(inner.unwrap_err().as_ref()), "inner");
            // Still inside the outer quiet scope after the inner one
            // restored the flag.
            assert!(QUIET.with(Cell::get));
            7
        });
        assert_eq!(outer.ok(), Some(7));
        assert!(!QUIET.with(Cell::get));
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        let p = catch_unwind(|| panic!("static")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static");
        let x = 7;
        let p = catch_unwind(move || panic!("dynamic {x}")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "dynamic 7");
        let p = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }
}

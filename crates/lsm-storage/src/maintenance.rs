//! Background maintenance: a threaded flush/compaction job scheduler.
//!
//! The [`JobScheduler`] owns a configurable pool of worker threads consuming
//! a queue of [`JobKind`] jobs. Engines stay agnostic of threading: they
//! implement [`MaintainableEngine::run_maintenance_job`] and keep the
//! [`MaintenanceHandle`] a [`SchedulerClient`] registered for them, which the
//! write path uses to enqueue work and to consult queue depth for
//! backpressure. Jobs hold only a `Weak` reference to the engine, so dropping
//! the engine never deadlocks on its own workers; a job whose engine is gone
//! is silently skipped.
//!
//! ## Shutdown
//!
//! Dropping the scheduler closes the queue, lets the workers finish every
//! job already enqueued (so a frozen memtable whose flush was scheduled is
//! never lost), and joins them. [`JobScheduler::wait_idle`] offers the same
//! barrier without shutting down, which benches and tests use to settle the
//! tree deterministically.
//!
//! ## Backpressure
//!
//! Every handle counts its own pending, completed and failed jobs, so
//! engines sharing one pool never see each other's queue or failures. The
//! engine shell combines its handle's depth with its Level-0 file count to
//! implement the usual two-step policy (sleep briefly at the *slowdown*
//! threshold, block at the *stall* threshold until a job completes). The
//! thresholds live in the engine options (`l0_slowdown_files` /
//! `l0_stall_files` / `max_pending_jobs`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::error::Result;

/// The kinds of background work the scheduler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Flush one frozen memtable to a Level-0 SST.
    Flush,
    /// One compaction step: merge the most overflowing run into the next
    /// level (for a column-group layout, one group's run).
    Compaction,
    /// One trim-compaction step: rewrite one SST that still carries entries
    /// outside the engine's key bound (left behind by a shard split that
    /// adopted the file by reference instead of rewriting it).
    Trim,
}

/// Number of distinct [`JobKind`] variants (sizes the per-kind counters).
const NUM_JOB_KINDS: usize = 3;

impl JobKind {
    fn index(self) -> usize {
        match self {
            JobKind::Flush => 0,
            JobKind::Compaction => 1,
            JobKind::Trim => 2,
        }
    }
}

/// An engine that can execute maintenance jobs on behalf of the scheduler.
pub trait MaintainableEngine: Send + Sync + 'static {
    /// Executes one job of `kind`. Called from scheduler worker threads; the
    /// engine is responsible for its own internal locking and for notifying
    /// any writers blocked on backpressure once state has changed.
    fn run_maintenance_job(&self, kind: JobKind) -> Result<()>;
}

/// Per-handle (per-engine) counters. A scheduler shared by many shards
/// tracks queue depth and completions both globally (in [`SchedulerState`],
/// for `wait_idle` and pool-wide gauges) and per registered handle, so one
/// shard's pending compaction never suppresses or stalls another shard's,
/// and one shard's failures never release another shard's stalled writers.
#[derive(Debug, Default)]
struct HandleState {
    pending: AtomicUsize,
    pending_per_kind: [AtomicUsize; NUM_JOB_KINDS],
    completed: AtomicU64,
    failed: AtomicU64,
}

struct Job {
    kind: JobKind,
    engine: Weak<dyn MaintainableEngine>,
    /// Counters of the handle that submitted this job.
    local: Arc<HandleState>,
}

enum Message {
    Work(Job),
    /// Sent once per worker at shutdown; everything enqueued earlier drains
    /// first (FIFO), so no scheduled flush is lost.
    Shutdown,
}

/// Pool-wide counters describing the scheduler's queue and history.
#[derive(Debug, Default)]
pub struct SchedulerState {
    /// Jobs enqueued or currently running.
    pending: AtomicUsize,
    completed: AtomicU64,
    shutdown: AtomicBool,
    idle: Condvar,
    idle_lock: Mutex<()>,
}

impl SchedulerState {
    /// Jobs enqueued or running.
    pub fn pending_jobs(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Jobs completed successfully since the scheduler started.
    pub fn completed_jobs(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    fn job_finished(&self, kind: JobKind, local: &HandleState, result: &Result<()>) {
        match result {
            Ok(()) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                local.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                local.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.settle(kind, local);
    }

    fn settle(&self, kind: JobKind, local: &HandleState) {
        local.pending_per_kind[kind.index()].fetch_sub(1, Ordering::AcqRel);
        local.pending.fetch_sub(1, Ordering::AcqRel);
        self.pending.fetch_sub(1, Ordering::AcqRel);
        let _guard = self.idle_lock.lock();
        self.idle.notify_all();
    }
}

/// The handle an engine keeps to its scheduler: submit jobs, observe its own
/// queue depth and job outcomes.
///
/// Holds only the queue sender and shared counters — never the worker
/// threads — so an engine owning a handle does not keep the scheduler alive
/// or interfere with its shutdown.
#[derive(Clone)]
pub struct MaintenanceHandle {
    tx: Sender<Message>,
    state: Arc<SchedulerState>,
    /// This handle's own counters; distinct per registered engine so shards
    /// sharing one scheduler observe only their own jobs.
    local: Arc<HandleState>,
    engine: Weak<dyn MaintainableEngine>,
}

impl std::fmt::Debug for MaintenanceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceHandle")
            .field("pending", &self.pending_jobs())
            .finish()
    }
}

impl MaintenanceHandle {
    /// Enqueues a job. Returns false if the scheduler has shut down.
    pub fn submit(&self, kind: JobKind) -> bool {
        if self.is_shutdown() {
            return false;
        }
        self.local.pending.fetch_add(1, Ordering::AcqRel);
        self.local.pending_per_kind[kind.index()].fetch_add(1, Ordering::AcqRel);
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let job = Job {
            kind,
            engine: Weak::clone(&self.engine),
            local: Arc::clone(&self.local),
        };
        if self.tx.send(Message::Work(job)).is_err() {
            self.state.settle(kind, &self.local);
            return false;
        }
        true
    }

    /// Enqueues a job only if this handle has none of that kind already
    /// pending, so the write path cannot flood the queue with duplicate
    /// compaction requests. Deduplication is per engine: on a scheduler
    /// shared by many shards, one shard's pending compaction never
    /// suppresses another's.
    pub fn submit_if_idle(&self, kind: JobKind) -> bool {
        if self.local.pending_per_kind[kind.index()].load(Ordering::Acquire) > 0 {
            return false;
        }
        self.submit(kind)
    }

    /// True once the owning [`JobScheduler`] has been dropped. Engines fall
    /// back to their inline flush/compaction path when this turns true, so
    /// writes keep making progress after shutdown.
    pub fn is_shutdown(&self) -> bool {
        self.state.shutdown.load(Ordering::Acquire)
    }

    /// Jobs this handle enqueued that are still queued or running. On a
    /// shared scheduler this is this engine's share of the queue, which is
    /// what backpressure should see.
    pub fn pending_jobs(&self) -> usize {
        self.local.pending.load(Ordering::Acquire)
    }

    /// Jobs this handle enqueued that completed successfully.
    pub fn completed_jobs(&self) -> u64 {
        self.local.completed.load(Ordering::Relaxed)
    }

    /// Jobs this handle enqueued that returned an error.
    pub fn failed_jobs(&self) -> u64 {
        self.local.failed.load(Ordering::Relaxed)
    }
}

/// A cloneable submission-side view of a [`JobScheduler`]: just the queue
/// sender and the shared counters, without the worker threads. Engines
/// register with a pool through it — at open, when a shard split brings
/// child engines online, and when the replication health monitor
/// re-provisions a lost replica from its own thread. A client outliving its
/// scheduler degrades gracefully: handles registered through it refuse
/// submissions (`is_shutdown`), so the engine maintains itself inline.
#[derive(Clone)]
pub struct SchedulerClient {
    tx: Sender<Message>,
    state: Arc<SchedulerState>,
}

impl std::fmt::Debug for SchedulerClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerClient")
            .field("pending", &self.state.pending_jobs())
            .finish()
    }
}

impl SchedulerClient {
    /// Creates a submission handle for `engine` on the scheduler's queue.
    /// Each handle carries its own counters, so per-engine deduplication,
    /// backpressure and job statistics stay correct when many engines share
    /// one pool.
    pub fn register(&self, engine: &Arc<dyn MaintainableEngine>) -> MaintenanceHandle {
        MaintenanceHandle {
            tx: self.tx.clone(),
            state: Arc::clone(&self.state),
            local: Arc::new(HandleState::default()),
            engine: Arc::downgrade(engine),
        }
    }
}

/// A pool of background worker threads executing maintenance jobs.
///
/// Owns the threads; dropping it drains the queue and joins every worker.
pub struct JobScheduler {
    tx: Sender<Message>,
    /// Kept so shutdown can drain messages that raced past the sentinels.
    rx: Arc<Mutex<Receiver<Message>>>,
    workers: Vec<JoinHandle<()>>,
    state: Arc<SchedulerState>,
}

impl std::fmt::Debug for JobScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobScheduler")
            .field("workers", &self.workers.len())
            .field("pending", &self.state.pending_jobs())
            .finish()
    }
}

impl JobScheduler {
    /// Starts a worker pool with `num_workers` threads (at least one) that is
    /// not yet serving any engine. Engines register afterwards through its
    /// [`JobScheduler::client`] — a sharded deployment registers every shard
    /// with the same pool, so flushes and compactions of disjoint shards run
    /// genuinely in parallel across the workers.
    pub fn start_pool(num_workers: usize) -> JobScheduler {
        let (tx, rx) = channel::<Message>();
        let rx = Arc::new(Mutex::new(rx));
        let state = Arc::new(SchedulerState::default());
        let workers = (0..num_workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("lsm-maintenance-{i}"))
                    .spawn(move || worker_loop(&rx, &state))
                    .expect("spawn maintenance worker")
            })
            .collect();
        JobScheduler {
            tx,
            rx,
            workers,
            state,
        }
    }

    /// A cloneable submission-side view of this scheduler (see
    /// [`SchedulerClient`]).
    pub fn client(&self) -> SchedulerClient {
        SchedulerClient {
            tx: self.tx.clone(),
            state: Arc::clone(&self.state),
        }
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Pool-wide counters (every handle of the scheduler).
    pub fn state(&self) -> &Arc<SchedulerState> {
        &self.state
    }

    /// Blocks until no job is queued or running. Note that without external
    /// coordination new jobs may be enqueued immediately afterwards.
    pub fn wait_idle(&self) {
        let mut guard = self.state.idle_lock.lock();
        while self.state.pending_jobs() > 0 {
            self.state
                .idle
                .wait_for(&mut guard, std::time::Duration::from_millis(50));
        }
    }
}

impl Drop for JobScheduler {
    /// Clean shutdown: refuse new submissions, enqueue one shutdown sentinel
    /// per worker *behind* every job already queued (so no scheduled flush is
    /// lost), then join the workers.
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        for _ in 0..self.workers.len() {
            let _ = self.tx.send(Message::Shutdown);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // A submit() that passed the shutdown check concurrently with this
        // drop may have enqueued work behind the sentinels; account those
        // jobs as skipped so the pending counters settle at zero (the
        // submitting write path re-drains inline once it sees the shutdown).
        let rx = self.rx.lock();
        while let Ok(message) = rx.try_recv() {
            if let Message::Work(job) = message {
                self.state.settle(job.kind, &job.local);
            }
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Message>>, state: &SchedulerState) {
    loop {
        // Hold the receiver lock only while dequeuing, so workers run jobs
        // concurrently.
        let message = {
            let rx = rx.lock();
            rx.recv()
        };
        let job = match message {
            Ok(Message::Work(job)) => job,
            // A sentinel (or, defensively, a closed queue) ends this worker.
            Ok(Message::Shutdown) | Err(_) => return,
        };
        match job.engine.upgrade() {
            Some(engine) => {
                let result = engine.run_maintenance_job(job.kind);
                state.job_finished(job.kind, &job.local, &result);
            }
            // Engine dropped while the job sat in the queue: nothing to do.
            None => state.settle(job.kind, &job.local),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[derive(Default)]
    struct CountingEngine {
        flushes: AtomicU64,
        compactions: AtomicU64,
        slow: bool,
        fail: bool,
    }

    impl MaintainableEngine for CountingEngine {
        fn run_maintenance_job(&self, kind: JobKind) -> Result<()> {
            if self.slow {
                std::thread::sleep(Duration::from_millis(5));
            }
            if self.fail {
                return Err(crate::error::Error::invalid("injected job failure"));
            }
            match kind {
                JobKind::Flush => self.flushes.fetch_add(1, Ordering::Relaxed),
                _ => self.compactions.fetch_add(1, Ordering::Relaxed),
            };
            Ok(())
        }
    }

    fn start(engine: Arc<CountingEngine>, workers: usize) -> (JobScheduler, MaintenanceHandle) {
        let dyn_engine: Arc<dyn MaintainableEngine> = engine;
        let scheduler = JobScheduler::start_pool(workers);
        let handle = scheduler.client().register(&dyn_engine);
        (scheduler, handle)
    }

    #[test]
    fn jobs_run_and_counters_settle() {
        let engine = Arc::new(CountingEngine::default());
        let (scheduler, handle) = start(Arc::clone(&engine), 2);
        for _ in 0..10 {
            assert!(handle.submit(JobKind::Flush));
        }
        for _ in 0..5 {
            assert!(handle.submit(JobKind::Compaction));
        }
        scheduler.wait_idle();
        assert_eq!(engine.flushes.load(Ordering::Relaxed), 10);
        assert_eq!(engine.compactions.load(Ordering::Relaxed), 5);
        assert_eq!(handle.pending_jobs(), 0);
        assert_eq!(scheduler.state().completed_jobs(), 15);
        assert_eq!(handle.failed_jobs(), 0);
    }

    #[test]
    fn job_outcomes_are_counted_per_handle() {
        let scheduler = JobScheduler::start_pool(1);
        let failing: Arc<dyn MaintainableEngine> = Arc::new(CountingEngine {
            fail: true,
            ..Default::default()
        });
        let healthy: Arc<dyn MaintainableEngine> = Arc::new(CountingEngine::default());
        let a = scheduler.client().register(&failing);
        let b = scheduler.client().register(&healthy);
        for _ in 0..3 {
            a.submit(JobKind::Compaction);
        }
        b.submit(JobKind::Flush);
        scheduler.wait_idle();
        assert_eq!((a.completed_jobs(), a.failed_jobs()), (0, 3));
        assert_eq!((b.completed_jobs(), b.failed_jobs()), (1, 0));
        assert_eq!(scheduler.state().completed_jobs(), 1);
    }

    #[test]
    fn drop_while_busy_drains_queue_and_joins() {
        let engine = Arc::new(CountingEngine {
            slow: true,
            ..Default::default()
        });
        let (scheduler, handle) = start(Arc::clone(&engine), 3);
        for _ in 0..20 {
            handle.submit(JobKind::Flush);
        }
        // Dropping immediately must still run everything already enqueued.
        drop(scheduler);
        assert_eq!(engine.flushes.load(Ordering::Relaxed), 20);
        // After shutdown, submissions report failure.
        assert!(!handle.submit(JobKind::Flush));
    }

    #[test]
    fn engine_dropped_jobs_are_skipped() {
        let engine = Arc::new(CountingEngine {
            slow: true,
            ..Default::default()
        });
        let (scheduler, handle) = start(Arc::clone(&engine), 1);
        handle.submit(JobKind::Flush);
        drop(engine);
        // These find no engine to run against once the queue reaches them.
        for _ in 0..5 {
            handle.submit(JobKind::Compaction);
        }
        scheduler.wait_idle();
        assert!(scheduler.state().completed_jobs() <= 1);
        assert_eq!(handle.pending_jobs(), 0);
    }

    #[test]
    fn submit_if_idle_deduplicates() {
        let engine = Arc::new(CountingEngine {
            slow: true,
            ..Default::default()
        });
        let (scheduler, handle) = start(Arc::clone(&engine), 1);
        // Block the single worker with flushes, then try duplicate compactions.
        for _ in 0..3 {
            handle.submit(JobKind::Flush);
        }
        assert!(handle.submit_if_idle(JobKind::Compaction));
        assert!(!handle.submit_if_idle(JobKind::Compaction));
        scheduler.wait_idle();
        assert_eq!(engine.compactions.load(Ordering::Relaxed), 1);
    }
}

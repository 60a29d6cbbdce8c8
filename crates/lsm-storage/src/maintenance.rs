//! Background maintenance: a threaded flush/compaction job scheduler.
//!
//! Both engines of this workspace historically ran *all* maintenance on the
//! write path: `write()` flushed the memtable synchronously and then looped
//! `compact_until_stable()`. That serialises reshaping work with foreground
//! traffic, which is exactly what a real-time LSM-Tree must avoid.
//!
//! The [`JobScheduler`] owns a configurable pool of worker threads consuming
//! a queue of [`JobKind`] jobs. Engines stay agnostic of threading: they
//! implement [`MaintainableEngine::run_maintenance_job`] and receive a
//! [`MaintenanceHandle`] that the write path uses to enqueue work and to
//! consult queue depth for backpressure. Jobs hold only a `Weak` reference to
//! the engine, so dropping the engine never deadlocks on its own workers; a
//! job whose engine is gone is silently skipped.
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
//! The scheduler exposes pending-job depth per [`JobKind`]; engines combine
//! it with their Level-0 file count to implement the usual two-step policy
//! (sleep briefly at the *slowdown* threshold, block at the *stall*
//! threshold until a job completes). The thresholds live in the engine
//! options (`l0_slowdown_files` / `l0_stall_files` / `max_pending_jobs`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::{Error, Result};

/// The kinds of background work the scheduler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Flush one frozen memtable to a Level-0 SST.
    Flush,
    /// One whole-level compaction step (`lsm-storage`'s leveled compaction).
    Compaction,
    /// One CG-local compaction step (`laser-core`'s layout-changing merge).
    CgCompaction,
    /// One trim-compaction step: rewrite one SST that still carries entries
    /// outside the engine's key bound (left behind by a shard split that
    /// adopted the file by reference instead of rewriting it).
    Trim,
}

/// Number of distinct [`JobKind`] variants (sizes the per-kind counters).
const NUM_JOB_KINDS: usize = 4;

impl JobKind {
    fn index(self) -> usize {
        match self {
            JobKind::Flush => 0,
            JobKind::Compaction => 1,
            JobKind::CgCompaction => 2,
            JobKind::Trim => 3,
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

/// Per-handle (per-engine) pending counters. A scheduler shared by many
/// shards tracks queue depth both globally (in [`SchedulerState`], for
/// `wait_idle` and pool-wide gauges) and per registered handle, so one
/// shard's pending compaction never suppresses or stalls another shard's.
#[derive(Debug, Default)]
struct HandleState {
    pending: AtomicUsize,
    pending_per_kind: [AtomicUsize; NUM_JOB_KINDS],
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

/// Shared counters describing the scheduler's queue and history.
#[derive(Debug, Default)]
pub struct SchedulerState {
    /// Jobs enqueued or currently running, in total and per kind.
    pending: AtomicUsize,
    pending_per_kind: [AtomicUsize; NUM_JOB_KINDS],
    completed: AtomicU64,
    failed: AtomicU64,
    shutdown: AtomicBool,
    last_error: Mutex<Option<String>>,
    idle: Condvar,
    idle_lock: Mutex<()>,
}

impl SchedulerState {
    /// Jobs enqueued or running.
    pub fn pending_jobs(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Jobs of one kind enqueued or running.
    pub fn pending_of(&self, kind: JobKind) -> usize {
        self.pending_per_kind[kind.index()].load(Ordering::Acquire)
    }

    /// Jobs completed successfully since the scheduler started.
    pub fn completed_jobs(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Jobs that returned an error.
    pub fn failed_jobs(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Message of the most recent failed job, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    fn job_started(&self) {}

    fn job_finished(&self, kind: JobKind, local: &HandleState, result: &Result<()>) {
        match result {
            Ok(()) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                *self.last_error.lock() = Some(e.to_string());
            }
        }
        self.settle(kind, local);
    }

    fn job_skipped(&self, kind: JobKind, local: &HandleState) {
        self.settle(kind, local);
    }

    fn settle(&self, kind: JobKind, local: &HandleState) {
        local.pending_per_kind[kind.index()].fetch_sub(1, Ordering::AcqRel);
        local.pending.fetch_sub(1, Ordering::AcqRel);
        self.pending_per_kind[kind.index()].fetch_sub(1, Ordering::AcqRel);
        self.pending.fetch_sub(1, Ordering::AcqRel);
        let _guard = self.idle_lock.lock();
        self.idle.notify_all();
    }
}

/// The handle an engine keeps to its scheduler: submit jobs, observe depth.
///
/// Holds only the queue sender and shared counters — never the worker
/// threads — so an engine owning a handle does not keep the scheduler alive
/// or interfere with its shutdown.
#[derive(Clone)]
pub struct MaintenanceHandle {
    tx: Sender<Message>,
    state: Arc<SchedulerState>,
    /// This handle's own pending counters; distinct per registered engine so
    /// shards sharing one scheduler observe only their own queue depth.
    local: Arc<HandleState>,
    engine: Weak<dyn MaintainableEngine>,
}

impl std::fmt::Debug for MaintenanceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceHandle")
            .field("pending", &self.state.pending_jobs())
            .finish()
    }
}

impl MaintenanceHandle {
    /// Enqueues a job. Returns false if the scheduler has shut down.
    pub fn submit(&self, kind: JobKind) -> bool {
        if self.state.shutdown.load(Ordering::Acquire) {
            return false;
        }
        self.local.pending.fetch_add(1, Ordering::AcqRel);
        self.local.pending_per_kind[kind.index()].fetch_add(1, Ordering::AcqRel);
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        self.state.pending_per_kind[kind.index()].fetch_add(1, Ordering::AcqRel);
        let job = Job {
            kind,
            engine: Weak::clone(&self.engine),
            local: Arc::clone(&self.local),
        };
        if self.tx.send(Message::Work(job)).is_err() {
            self.state.job_skipped(kind, &self.local);
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

    /// Scheduler counters (global across every handle of the scheduler).
    pub fn state(&self) -> &Arc<SchedulerState> {
        &self.state
    }

    /// Jobs this handle enqueued that are still queued or running. On a
    /// dedicated scheduler this equals the global queue depth; on a shared
    /// one it is this engine's share, which is what backpressure should see.
    pub fn pending_jobs(&self) -> usize {
        self.local.pending.load(Ordering::Acquire)
    }

    /// Jobs queued or running across the whole scheduler (every handle).
    pub fn scheduler_pending_jobs(&self) -> usize {
        self.state.pending_jobs()
    }
}

/// A cloneable submission-side view of a [`JobScheduler`]: just the queue
/// sender and the shared counters, without the worker threads. It lets a
/// component that cannot borrow the scheduler itself — e.g. the replication
/// health monitor re-provisioning a lost replica from its own thread —
/// register late-arriving engines with the shared pool. A client outliving
/// its scheduler degrades gracefully: handles registered through it refuse
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
    /// Creates a submission handle for `engine` on the scheduler's queue
    /// (see [`JobScheduler::register`]).
    pub fn register(&self, engine: &Arc<dyn MaintainableEngine>) -> MaintenanceHandle {
        MaintenanceHandle {
            tx: self.tx.clone(),
            state: Arc::clone(&self.state),
            local: Arc::new(HandleState::default()),
            engine: Arc::downgrade(engine),
        }
    }
}

/// Backpressure thresholds, mirrored from the engine options.
#[derive(Debug, Clone, Copy)]
pub struct BackpressureConfig {
    /// L0 pressure at which writers briefly yield.
    pub l0_slowdown_files: usize,
    /// L0 pressure at which writers block until a job completes.
    pub l0_stall_files: usize,
    /// Pending-job depth at which writers block.
    pub max_pending_jobs: usize,
}

/// What the gate did to one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throttle {
    /// No threshold was hit.
    None,
    /// The writer yielded briefly (slowdown threshold).
    Slowdown,
    /// The writer blocked until background work made room (stall threshold).
    Stall,
}

/// The writer-side throttling gate shared by both engines: the two-step
/// slowdown/stall policy over L0 pressure and scheduler queue depth.
/// Maintenance jobs call [`BackpressureGate::notify`] after making progress.
#[derive(Default)]
pub struct BackpressureGate {
    lock: Mutex<()>,
    condvar: Condvar,
}

impl std::fmt::Debug for BackpressureGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BackpressureGate")
    }
}

impl BackpressureGate {
    /// Creates an open gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wakes all writers parked on the gate.
    pub fn notify(&self) {
        let _guard = self.lock.lock();
        self.condvar.notify_all();
    }

    /// Applies the two-step policy before a write. `l0_pressure` counts
    /// on-disk L0 files plus frozen memtables; `needs_flush` reports whether
    /// frozen memtables await flushing (so a stalled writer kicks a Flush
    /// rather than a useless compaction); `compaction_kind` is the engine's
    /// compaction job flavour. Returns what happened, for stats accounting.
    /// Returns immediately once the scheduler has shut down — the caller
    /// then maintains the tree inline.
    pub fn wait_for_room(
        &self,
        config: BackpressureConfig,
        handle: &MaintenanceHandle,
        l0_pressure: &dyn Fn() -> usize,
        needs_flush: &dyn Fn() -> bool,
        compaction_kind: JobKind,
    ) -> Throttle {
        if handle.is_shutdown() {
            return Throttle::None;
        }
        let l0 = l0_pressure();
        let pending = handle.pending_jobs();
        if l0 >= config.l0_stall_files || pending >= config.max_pending_jobs {
            let failed_at_entry = handle.state().failed_jobs();
            let mut guard = self.lock.lock();
            loop {
                if handle.is_shutdown() {
                    break;
                }
                // A backend that keeps failing jobs will never clear the
                // pileup; stop stalling rather than hang the writer (the
                // failure stays visible via stats().bg_jobs_failed).
                if handle.state().failed_jobs() > failed_at_entry + 1 {
                    break;
                }
                if l0_pressure() < config.l0_stall_files
                    && handle.pending_jobs() < config.max_pending_jobs
                {
                    break;
                }
                // Make sure something is scheduled that can clear the pileup:
                // a flush if frozen memtables are the pressure, otherwise a
                // compaction. If nothing can be scheduled, bail out rather
                // than waiting forever.
                if handle.pending_jobs() == 0 {
                    let kind = if needs_flush() {
                        JobKind::Flush
                    } else {
                        compaction_kind
                    };
                    // A false return here usually means another writer won
                    // the submission race (fine — a job is now pending);
                    // only a shut-down scheduler justifies giving up.
                    if !handle.submit_if_idle(kind) && handle.is_shutdown() {
                        break;
                    }
                }
                self.condvar
                    .wait_for(&mut guard, std::time::Duration::from_millis(20));
            }
            Throttle::Stall
        } else if l0 >= config.l0_slowdown_files {
            std::thread::sleep(std::time::Duration::from_millis(1));
            Throttle::Slowdown
        } else {
            Throttle::None
        }
    }
}

/// The engine-side maintenance protocol. The engine shell
/// ([`EngineShell`](crate::EngineShell), the one implementation) supplies
/// the storage-specific primitives (freeze, flush one frozen memtable, one
/// compaction step, pressure gauges) and inherits the whole write-path
/// maintenance protocol as default methods: backpressure, freeze-and-enqueue
/// after a write, the inline fallback when no scheduler is attached, and the
/// background job bodies themselves.
///
/// [`attach_engine`] registers a [`JobScheduler`] with an engine implementing
/// this trait, and the engine's [`MaintainableEngine::run_maintenance_job`]
/// impl simply forwards to [`EngineMaintenance::run_job`].
pub trait EngineMaintenance: MaintainableEngine {
    /// The cell holding the registered scheduler handle (set once by
    /// [`attach_engine`]).
    fn maintenance_cell(&self) -> &OnceLock<MaintenanceHandle>;
    /// The gate stalled writers park on.
    fn write_room(&self) -> &BackpressureGate;
    /// Backpressure thresholds, mirrored from the engine options.
    fn backpressure_config(&self) -> BackpressureConfig;
    /// The engine's compaction job flavour.
    fn compaction_kind(&self) -> JobKind;
    /// Freezes the mutable memtable if it crossed the size threshold
    /// (rotating the WAL segment). Returns true if a memtable was frozen.
    fn freeze_if_full(&self) -> Result<bool>;
    /// Flushes the oldest frozen memtable, if any. Returns true if one was
    /// flushed.
    fn flush_frozen_one(&self) -> Result<bool>;
    /// Runs one compaction step if any level overflows. Returns true if work
    /// was done.
    fn compact_once(&self) -> Result<bool>;
    /// True if some level overflows and a compaction would make progress.
    fn needs_compaction(&self) -> bool;
    /// True if frozen memtables await flushing.
    fn has_frozen_memtables(&self) -> bool;
    /// L0 pressure as seen by backpressure: on-disk Level-0 files plus
    /// frozen memtables still waiting for their flush job.
    fn l0_pressure(&self) -> usize;
    /// Inline flush of the mutable memtable when it crossed the size
    /// threshold (the legacy synchronous path).
    fn maybe_flush(&self) -> Result<()>;
    /// Whether the legacy synchronous path compacts after writes.
    fn auto_compact(&self) -> bool;
    /// Records a throttle outcome in the engine's stats.
    fn record_throttle(&self, throttle: Throttle);
    /// Reports how long a write actually stalled on backpressure, so
    /// attached telemetry can histogram the wait and log a stall event.
    /// Called by the default [`EngineMaintenance::apply_backpressure`] only
    /// for [`Throttle::Stall`].
    fn record_stall_duration(&self, waited: Duration);
    /// Rewrites one SST that still carries entries outside the engine's key
    /// bound, dropping them. Returns true if a file was rewritten.
    fn trim_once(&self) -> Result<bool>;
    /// True if some SST still carries entries outside the engine's key bound
    /// and a [`EngineMaintenance::trim_once`] would make progress.
    fn needs_trim(&self) -> bool;

    // ------------------------------------------------------------------
    // Shared default glue
    // ------------------------------------------------------------------

    /// The registered scheduler handle, if it is still accepting jobs. A
    /// handle whose scheduler has been dropped is treated as absent so
    /// writes fall back to inline maintenance.
    fn active_maintenance(&self) -> Option<&MaintenanceHandle> {
        self.maintenance_cell().get().filter(|h| !h.is_shutdown())
    }

    /// Applies the shared slowdown/stall policy before a write. No-op when
    /// no scheduler is attached.
    fn apply_backpressure(&self) {
        let Some(handle) = self.active_maintenance() else {
            return;
        };
        let start = Instant::now();
        let throttle = self.write_room().wait_for_room(
            self.backpressure_config(),
            handle,
            &|| self.l0_pressure(),
            &|| self.has_frozen_memtables(),
            self.compaction_kind(),
        );
        if throttle != Throttle::None {
            self.record_throttle(throttle);
            if throttle == Throttle::Stall {
                // Engines route this into their telemetry (histogram, event
                // log, and a `stall_wait` retro-span on any active trace).
                self.record_stall_duration(start.elapsed());
            } else {
                // Slowdown yields are brief but real: attribute them when a
                // trace is active (no-op otherwise, off the fast path).
                telemetry::trace::retro_span("slowdown_wait", start.elapsed(), &[]);
            }
        }
    }

    /// Wakes writers parked on backpressure after maintenance made progress.
    fn notify_write_room(&self) {
        self.write_room().notify();
    }

    /// Schedules the flush of already-frozen memtables: enqueues a flush job
    /// when a live scheduler is attached, drains them inline otherwise. The
    /// body of the engines' `freeze_and_schedule` convenience — a manual
    /// `freeze_memtable()` alone leaves the frozen memtable waiting for the
    /// next write-path trigger.
    fn schedule_frozen_flush(&self) -> Result<()> {
        match self.active_maintenance() {
            Some(handle) if handle.submit(JobKind::Flush) => Ok(()),
            // No scheduler (or it shut down between the check and the
            // submit): drain inline instead of leaking the frozen memtable.
            _ => {
                while self.flush_frozen_one()? {}
                Ok(())
            }
        }
    }

    /// The post-write maintenance step: with a scheduler attached, freeze a
    /// full memtable and enqueue flush/compaction jobs; without one, drain
    /// any leftover frozen memtables and run the legacy synchronous path.
    fn after_write_maintenance(&self) -> Result<()> {
        match self.active_maintenance().cloned() {
            Some(handle) => {
                if self.freeze_if_full()? && !handle.submit(JobKind::Flush) {
                    // Scheduler shut down between the check and the submit:
                    // drain the frozen memtable inline instead of leaking it.
                    while self.flush_frozen_one()? {}
                }
                if self.needs_compaction() {
                    handle.submit_if_idle(self.compaction_kind());
                }
            }
            None => {
                // Drain any memtables frozen before a scheduler shutdown,
                // then run the legacy synchronous path.
                if self.has_frozen_memtables() {
                    while self.flush_frozen_one()? {}
                }
                self.maybe_flush()?;
                if self.auto_compact() {
                    while self.compact_once()? {}
                }
            }
        }
        Ok(())
    }

    /// Executes one background job. Flush jobs drain the oldest frozen
    /// memtable and chain a compaction when the tree overflows; compaction
    /// jobs run one step and re-enqueue themselves while work remains, so a
    /// single submission settles the whole tree without monopolising a
    /// worker. Engines forward `MaintainableEngine::run_maintenance_job`
    /// here.
    fn run_job(&self, kind: JobKind) -> Result<()> {
        match kind {
            JobKind::Flush => {
                self.flush_frozen_one()?;
                if self.needs_compaction() {
                    if let Some(handle) = self.maintenance_cell().get() {
                        handle.submit_if_idle(self.compaction_kind());
                    }
                }
                Ok(())
            }
            JobKind::Compaction | JobKind::CgCompaction => {
                let did_work = self.compact_once()?;
                if did_work && self.needs_compaction() {
                    if let Some(handle) = self.maintenance_cell().get() {
                        // `submit_if_idle` would see this running job as
                        // pending, so resubmit directly; bounded because it
                        // only happens while a level still overflows.
                        handle.submit(self.compaction_kind());
                    }
                }
                Ok(())
            }
            JobKind::Trim => {
                // Rewrite one out-of-range file per job and re-enqueue while
                // more remain, so one post-split submission trims the whole
                // shard without monopolising a worker.
                let did_work = self.trim_once()?;
                if did_work && self.needs_trim() {
                    if let Some(handle) = self.maintenance_cell().get() {
                        handle.submit(JobKind::Trim);
                    }
                }
                Ok(())
            }
        }
    }
}

/// Starts a background maintenance scheduler with `num_workers` threads and
/// registers it with `engine` (the shared body of the engines'
/// `attach_maintenance` methods). Errors if a scheduler was already attached.
pub fn attach_engine<E>(engine: &Arc<E>, num_workers: usize) -> Result<JobScheduler>
where
    E: EngineMaintenance + 'static,
{
    let dyn_engine: Arc<dyn MaintainableEngine> = Arc::clone(engine) as Arc<dyn MaintainableEngine>;
    let (scheduler, handle) = JobScheduler::start(&dyn_engine, num_workers);
    if engine.maintenance_cell().set(handle).is_err() {
        return Err(Error::invalid(
            "a maintenance scheduler is already attached",
        ));
    }
    Ok(scheduler)
}

/// Registers one engine with an existing shared scheduler: a submission
/// handle with its own pending counters is created and installed in the
/// engine's maintenance cell. Used both at open (for every initial shard)
/// and when a shard split brings new child engines online mid-flight.
/// Errors if the engine already has a scheduler attached.
pub fn register_shard_engine<E>(scheduler: &JobScheduler, engine: &Arc<E>) -> Result<()>
where
    E: EngineMaintenance + 'static,
{
    register_shard_engine_with(&scheduler.client(), engine)
}

/// [`register_shard_engine`] through a cloneable [`SchedulerClient`], for
/// components that hold a client rather than the scheduler itself (e.g. the
/// replication health monitor registering a re-provisioned replica).
pub fn register_shard_engine_with<E>(client: &SchedulerClient, engine: &Arc<E>) -> Result<()>
where
    E: EngineMaintenance + 'static,
{
    let dyn_engine: Arc<dyn MaintainableEngine> = Arc::clone(engine) as Arc<dyn MaintainableEngine>;
    let handle = client.register(&dyn_engine);
    if engine.maintenance_cell().set(handle).is_err() {
        return Err(Error::invalid(
            "a maintenance scheduler is already attached to a shard",
        ));
    }
    Ok(())
}

/// Starts one shared worker pool with `num_workers` threads and registers
/// every engine of `engines` with it. Used by sharded deployments: all
/// shards submit to the same queue, so flush/compaction of disjoint shards
/// runs in parallel across the pool instead of one-compaction-at-a-time per
/// engine-private scheduler. Errors if any engine already has a scheduler
/// attached (engines registered before the failure keep their handles, whose
/// scheduler is dropped and drained when this function returns).
pub fn attach_shard_engines<E>(engines: &[Arc<E>], num_workers: usize) -> Result<JobScheduler>
where
    E: EngineMaintenance + 'static,
{
    let scheduler = JobScheduler::start_pool(num_workers);
    for engine in engines {
        register_shard_engine(&scheduler, engine)?;
    }
    Ok(scheduler)
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
    /// not yet serving any engine. Engines are attached afterwards with
    /// [`JobScheduler::register`] — a sharded deployment registers every
    /// shard with the same pool, so flushes and compactions of disjoint
    /// shards run genuinely in parallel across the workers.
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

    /// Creates a submission handle for `engine` on this scheduler's queue.
    /// Each handle carries its own pending counters, so per-engine
    /// deduplication and backpressure stay correct when many engines share
    /// one pool.
    pub fn register(&self, engine: &Arc<dyn MaintainableEngine>) -> MaintenanceHandle {
        self.client().register(engine)
    }

    /// A cloneable submission-side view of this scheduler (see
    /// [`SchedulerClient`]).
    pub fn client(&self) -> SchedulerClient {
        SchedulerClient {
            tx: self.tx.clone(),
            state: Arc::clone(&self.state),
        }
    }

    /// Starts `num_workers` worker threads (at least one) for `engine` and
    /// returns the scheduler plus the handle the engine should register via
    /// its `attach_maintenance` method.
    pub fn start(
        engine: &Arc<dyn MaintainableEngine>,
        num_workers: usize,
    ) -> (JobScheduler, MaintenanceHandle) {
        let scheduler = Self::start_pool(num_workers);
        let handle = scheduler.register(engine);
        (scheduler, handle)
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Scheduler counters.
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
                self.state.job_skipped(job.kind, &job.local);
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
                state.job_started();
                let result = engine.run_maintenance_job(job.kind);
                state.job_finished(job.kind, &job.local, &result);
            }
            // Engine dropped while the job sat in the queue: nothing to do.
            None => state.job_skipped(job.kind, &job.local),
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
    }

    impl MaintainableEngine for CountingEngine {
        fn run_maintenance_job(&self, kind: JobKind) -> Result<()> {
            if self.slow {
                std::thread::sleep(Duration::from_millis(5));
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
        JobScheduler::start(&dyn_engine, workers)
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
        assert_eq!(scheduler.state().failed_jobs(), 0);
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
            handle.submit(JobKind::CgCompaction);
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

//! The replica side of WAL shipping: a state machine fed encoded protocol
//! frames over an in-process channel, applying them through the replica
//! engine's own write-ahead path on a dedicated apply thread.
//!
//! ```text
//!              catch-up done                 apply error / thread exit
//! Bootstrapping ───────────▶ Streaming ────────────────────────▶ Lost
//!                                ▲  │ gap detected (frame dropped,
//!                                │  ▼  leader re-ships from ack horizon)
//!                               CatchingUp
//! ```
//!
//! A torn or corrupt frame is *dropped* (checksums catch it), never applied;
//! the resulting sequence gap surfaces on the next good frame as an
//! [`Error::InvalidArgument`] from the engine, flips the replica to
//! `CatchingUp`, and the shipper re-ships from the acknowledged horizon.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use lsm_storage::types::SeqNo;
use lsm_storage::wal::decode_records;
use lsm_storage::{Error, Result};

use crate::engine::ShardEngine;
use crate::replication::protocol::Frame;

/// Where a replica is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Initial sync: adopting the leader's sealed segments and tail.
    Bootstrapping,
    /// Applying live tail frames as the leader ships them.
    Streaming,
    /// A sequence gap was detected; waiting for the shipper to re-ship from
    /// the acknowledged horizon.
    CatchingUp,
    /// The replica stopped applying (engine fail-stop or apply-thread exit)
    /// and no longer counts toward quorum.
    Lost,
}

impl ReplicaState {
    /// Stable lower-case name for exports and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplicaState::Bootstrapping => "bootstrapping",
            ReplicaState::Streaming => "streaming",
            ReplicaState::CatchingUp => "catching_up",
            ReplicaState::Lost => "lost",
        }
    }
}

/// Mutable replica status shared between the apply thread (writer), the
/// quorum waiters and the health monitor (readers).
#[derive(Debug)]
pub struct ReplicaStatus {
    /// Last sequence number applied (and durable per the replica's WAL
    /// policy). Monotonic.
    pub applied_seq: SeqNo,
    /// Lifecycle state.
    pub state: ReplicaState,
    /// When `applied_seq` last advanced (or the replica was created).
    pub last_progress: Instant,
    /// Consecutive health-monitor checks that saw a lagging replica make no
    /// progress (drives the monitor's exponential backoff).
    pub stalled_checks: u32,
}

/// Shared handle to a replica's status plus the condvar quorum waiters
/// block on.
#[derive(Debug)]
pub struct ReplicaShared {
    status: Mutex<ReplicaStatus>,
    progress: Condvar,
}

impl ReplicaShared {
    fn new(applied_seq: SeqNo, state: ReplicaState) -> ReplicaShared {
        ReplicaShared {
            status: Mutex::new(ReplicaStatus {
                applied_seq,
                state,
                last_progress: Instant::now(),
                stalled_checks: 0,
            }),
            progress: Condvar::new(),
        }
    }

    /// Snapshot of `(applied_seq, state)`.
    pub fn applied(&self) -> (SeqNo, ReplicaState) {
        let status = self.status.lock();
        (status.applied_seq, status.state)
    }

    /// Records progress through `seq` and wakes quorum waiters.
    pub fn advance(&self, seq: SeqNo, state: ReplicaState) {
        let mut status = self.status.lock();
        if seq > status.applied_seq {
            status.applied_seq = seq;
            status.last_progress = Instant::now();
            status.stalled_checks = 0;
        }
        status.state = state;
        drop(status);
        self.progress.notify_all();
    }

    /// Sets the lifecycle state without touching the applied horizon.
    pub fn set_state(&self, state: ReplicaState) {
        self.status.lock().state = state;
        self.progress.notify_all();
    }

    /// Runs `f` under the status lock (health-monitor bookkeeping).
    pub fn with_status<T>(&self, f: impl FnOnce(&mut ReplicaStatus) -> T) -> T {
        f(&mut self.status.lock())
    }

    /// Blocks until `applied_seq >= seq`, the replica is lost, or `timeout`
    /// elapses. Returns true if the horizon was reached.
    pub fn wait_applied(&self, seq: SeqNo, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut status = self.status.lock();
        loop {
            if status.applied_seq >= seq {
                return true;
            }
            if status.state == ReplicaState::Lost {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return status.applied_seq >= seq;
            }
            if self
                .progress
                .wait_for(&mut status, deadline - now)
                .timed_out()
            {
                return status.applied_seq >= seq;
            }
        }
    }
}

/// One in-process replica: its engine, storage slot, frame channel and the
/// apply thread draining it.
pub struct ReplicaHandle<E: ShardEngine> {
    /// The replica's own engine instance (readable at its applied horizon).
    pub engine: Arc<E>,
    /// Storage slot the replica's data lives in.
    pub slot: u64,
    /// Status shared with the apply thread.
    pub shared: Arc<ReplicaShared>,
    sender: Mutex<Option<Sender<Vec<u8>>>>,
    join: Mutex<Option<JoinHandle<()>>>,
    /// Test hook: while true, the apply thread parks without draining
    /// frames, simulating a slow or partitioned replica.
    paused: Arc<(Mutex<bool>, Condvar)>,
}

impl<E: ShardEngine> ReplicaHandle<E> {
    /// Wraps `engine` (already bootstrapped to `applied_seq`) and starts its
    /// apply thread.
    pub fn start(engine: Arc<E>, slot: u64, applied_seq: SeqNo) -> ReplicaHandle<E> {
        let shared = Arc::new(ReplicaShared::new(applied_seq, ReplicaState::Streaming));
        let paused = Arc::new((Mutex::new(false), Condvar::new()));
        let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let thread_engine = Arc::clone(&engine);
        let thread_shared = Arc::clone(&shared);
        let thread_paused = Arc::clone(&paused);
        let join = std::thread::Builder::new()
            .name(format!("replica-{slot}"))
            .spawn(move || apply_loop(thread_engine, thread_shared, thread_paused, rx))
            .expect("spawn replica apply thread");
        ReplicaHandle {
            engine,
            slot,
            shared,
            sender: Mutex::new(Some(tx)),
            join: Mutex::new(Some(join)),
            paused,
        }
    }

    /// Enqueues an encoded frame for the apply thread. Returns false if the
    /// replica's channel is closed (apply thread exited).
    pub fn send(&self, frame: Vec<u8>) -> bool {
        match self.sender.lock().as_ref() {
            Some(tx) => tx.send(frame).is_ok(),
            None => false,
        }
    }

    /// Test/failure-injection hook: parks the apply thread after its current
    /// frame, simulating a slow or partitioned replica (frames queue up).
    pub fn pause(&self) {
        *self.paused.0.lock() = true;
    }

    /// Resumes a paused apply thread.
    pub fn resume(&self) {
        *self.paused.0.lock() = false;
        self.paused.1.notify_all();
    }

    /// Stops the apply thread (after it drains already-queued frames) and
    /// joins it. Idempotent. The engine stays usable — promotion calls this
    /// before turning the replica into a leader.
    pub fn stop(&self) {
        self.resume();
        drop(self.sender.lock().take());
        if let Some(join) = self.join.lock().take() {
            let _ = join.join();
        }
    }
}

impl<E: ShardEngine> Drop for ReplicaHandle<E> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The apply loop: decode each frame, apply it through the engine's
/// replicated-write path, publish progress. Exits when the channel closes
/// (leader dropped or promotion stopped the replica).
fn apply_loop<E: ShardEngine>(
    engine: Arc<E>,
    shared: Arc<ReplicaShared>,
    paused: Arc<(Mutex<bool>, Condvar)>,
    rx: Receiver<Vec<u8>>,
) {
    while let Ok(bytes) = rx.recv() {
        {
            let mut flag = paused.0.lock();
            while *flag {
                paused.1.wait(&mut flag);
            }
        }
        match apply_frame(engine.as_ref(), &bytes) {
            Ok(Some(applied)) => shared.advance(applied, ReplicaState::Streaming),
            // Heartbeats and stale retransmissions advance nothing.
            Ok(None) => {}
            Err(Error::InvalidArgument(_)) => {
                // Sequence gap (a frame was dropped as torn/corrupt, or the
                // leader restarted mid-stream): hold position and wait for
                // the shipper to re-ship from the acknowledged horizon.
                shared.set_state(ReplicaState::CatchingUp);
            }
            Err(Error::Corruption(_)) => {
                // Torn or corrupt frame: drop it. The gap (if any) surfaces
                // on the next good frame.
            }
            Err(_) => {
                // Engine fail-stop (storage fault, closed): the replica can
                // no longer apply and leaves the quorum.
                shared.set_state(ReplicaState::Lost);
                return;
            }
        }
    }
}

/// Applies one encoded frame. `Ok(Some(seq))` advances the applied horizon,
/// `Ok(None)` is a no-op frame.
fn apply_frame<E: ShardEngine>(engine: &E, bytes: &[u8]) -> Result<Option<SeqNo>> {
    match Frame::decode(bytes)? {
        Frame::TailRecord { record, .. } => {
            let (records, clean, _) = decode_records(&record)?;
            if !clean {
                return Err(Error::corruption("torn tail record frame"));
            }
            let mut applied = None;
            for record in &records {
                applied = Some(engine.apply_replicated(record.start_seq, &record.batch)?);
            }
            Ok(applied)
        }
        Frame::Segment { image, .. } => match engine.adopt_wal_segment(&image) {
            Ok(applied) => Ok(Some(applied)),
            // Partially overlapping image: apply its records individually
            // (the engine trims the already-applied prefix per record).
            Err(Error::InvalidArgument(msg)) if msg.contains("overlaps applied prefix") => {
                let (records, clean, _) = decode_records(&image)?;
                if !clean {
                    return Err(Error::corruption("torn segment image"));
                }
                let mut applied = None;
                for record in &records {
                    applied = Some(engine.apply_replicated(record.start_seq, &record.batch)?);
                }
                Ok(applied)
            }
            Err(e) => Err(e),
        },
        Frame::Heartbeat { .. } | Frame::Ack { .. } => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_storage::storage::MemStorage;
    use lsm_storage::types::WriteBatch;
    use lsm_storage::wal::encode_record;
    use lsm_storage::{LsmDb, LsmOptions};
    use std::time::Duration;

    fn replica() -> ReplicaHandle<LsmDb> {
        let engine =
            Arc::new(LsmDb::open(MemStorage::new_ref(), LsmOptions::small_for_tests()).unwrap());
        ReplicaHandle::start(engine, 1024, 0)
    }

    fn tail_frame(start_seq: SeqNo, keys: &[u64]) -> Vec<u8> {
        let mut batch = WriteBatch::new();
        for &k in keys {
            batch.put(k, k.to_le_bytes().to_vec());
        }
        Frame::TailRecord {
            shard_slot: 0,
            record: encode_record(start_seq, &batch),
        }
        .encode()
    }

    #[test]
    fn applies_tail_frames_in_order() {
        let replica = replica();
        assert!(replica.send(tail_frame(1, &[10, 11])));
        assert!(replica.send(tail_frame(3, &[12])));
        assert!(replica.shared.wait_applied(3, Duration::from_secs(5)));
        assert_eq!(
            replica.engine.get(11).unwrap(),
            Some(11u64.to_le_bytes().to_vec())
        );
        let (applied, state) = replica.shared.applied();
        assert_eq!(applied, 3);
        assert_eq!(state, ReplicaState::Streaming);
        replica.stop();
    }

    #[test]
    fn corrupt_frame_dropped_and_gap_detected() {
        let replica = replica();
        assert!(replica.send(tail_frame(1, &[10])));
        // A corrupt frame is dropped without applying anything...
        let mut corrupt = tail_frame(2, &[11]);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert!(replica.send(corrupt));
        // ...so the next good frame exposes the gap and the replica flips to
        // CatchingUp instead of applying out of order.
        assert!(replica.send(tail_frame(3, &[12])));
        assert!(!replica.shared.wait_applied(3, Duration::from_millis(300)));
        let (applied, state) = replica.shared.applied();
        assert_eq!(applied, 1);
        assert_eq!(state, ReplicaState::CatchingUp);
        // Re-shipping from the ack horizon (retransmit overlaps included)
        // heals the stream: duplicates are skipped idempotently.
        assert!(replica.send(tail_frame(1, &[10])));
        assert!(replica.send(tail_frame(2, &[11])));
        assert!(replica.send(tail_frame(3, &[12])));
        assert!(replica.shared.wait_applied(3, Duration::from_secs(5)));
        assert_eq!(
            replica.engine.get(11).unwrap(),
            Some(11u64.to_le_bytes().to_vec())
        );
        replica.stop();
    }

    #[test]
    fn pause_queues_frames_until_resume() {
        let replica = replica();
        assert!(replica.send(tail_frame(1, &[1])));
        assert!(replica.shared.wait_applied(1, Duration::from_secs(5)));
        replica.pause();
        assert!(replica.send(tail_frame(2, &[2])));
        assert!(!replica.shared.wait_applied(2, Duration::from_millis(200)));
        replica.resume();
        assert!(replica.shared.wait_applied(2, Duration::from_secs(5)));
        replica.stop();
    }

    #[test]
    fn stop_is_idempotent_and_keeps_engine_usable() {
        let replica = replica();
        assert!(replica.send(tail_frame(1, &[7])));
        assert!(replica.shared.wait_applied(1, Duration::from_secs(5)));
        replica.stop();
        replica.stop();
        assert!(!replica.send(tail_frame(2, &[8])));
        // The engine survives the apply thread — promotion relies on this.
        assert_eq!(
            replica.engine.get(7).unwrap(),
            Some(7u64.to_le_bytes().to_vec())
        );
    }
}

//! Pins the engine shell's one read-snapshot discipline for each level
//! format: a reader takes the engine lock only to clone the memtable `Arc`s
//! and the current file lists, and does every bloom/index/block probe with
//! the lock released. A cold point read parked inside a block fetch must
//! therefore never hold up a concurrent commit or a memtable freeze.
//!
//! The interleaving is forced, not slept for: a storage wrapper parks the
//! reader's first `.sst` `read_at` behind a channel, and the writer runs
//! while the reader is known to sit inside that fetch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use laser::lsm_storage::storage::{
    IoStats, MemStorage, RandomAccessFile, Storage, StorageRef, WritableFile,
};
use laser::lsm_storage::{LsmDb, LsmOptions, Result};
use laser::{LaserDb, LaserOptions, LayoutSpec, Projection, Schema};

/// Once armed, the next `read_at` on an `.sst` file reports that it is
/// parked and blocks until released.
struct Gate {
    armed: AtomicBool,
    parked: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl Gate {
    fn pass(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.parked.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
    }
}

struct GatedStorage {
    inner: StorageRef,
    gate: Arc<Gate>,
}

struct GatedFile {
    inner: Box<dyn RandomAccessFile>,
    gate: Arc<Gate>,
}

impl RandomAccessFile for GatedFile {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.gate.pass();
        self.inner.read_at(offset, len)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Storage for GatedStorage {
    fn create(&self, name: &str) -> Result<Box<dyn WritableFile>> {
        self.inner.create(name)
    }

    fn open(&self, name: &str) -> Result<Box<dyn RandomAccessFile>> {
        let inner = self.inner.open(name)?;
        if name.ends_with(".sst") {
            let gate = Arc::clone(&self.gate);
            Ok(Box::new(GatedFile { inner, gate }))
        } else {
            Ok(inner)
        }
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }

    fn io_stats(&self) -> Arc<IoStats> {
        self.inner.io_stats()
    }
}

const WAIT: Duration = Duration::from_secs(5);

/// `load` fills and flushes the engine; `read` is a cold point read of a
/// flushed key (true if found); `write` commits a new key and freezes the
/// memtable.
fn cold_read_leaves_the_engine_lock_free<D: Send + Sync + 'static>(
    open: impl FnOnce(StorageRef) -> D,
    load: impl FnOnce(&D),
    read: impl FnOnce(&D) -> bool + Send + 'static,
    write: impl FnOnce(&D) + Send + 'static,
) {
    let (parked_tx, parked_rx) = channel();
    let (release_tx, release_rx) = channel();
    let gate = Arc::new(Gate {
        armed: AtomicBool::new(false),
        parked: Mutex::new(parked_tx),
        release: Mutex::new(release_rx),
    });
    let storage: StorageRef = Arc::new(GatedStorage {
        inner: MemStorage::new_ref(),
        gate: Arc::clone(&gate),
    });
    let db = Arc::new(open(storage));
    load(&db);

    gate.armed.store(true, Ordering::SeqCst);
    let reader = {
        let db = Arc::clone(&db);
        thread::spawn(move || read(&db))
    };
    parked_rx
        .recv_timeout(WAIT)
        .expect("the cold read must reach an SST block fetch");

    // The reader now sits inside the fetch. A commit and a freeze on the
    // same engine must still complete.
    let (done_tx, done_rx) = channel();
    let writer = {
        let db = Arc::clone(&db);
        thread::spawn(move || {
            write(&db);
            done_tx.send(()).unwrap();
        })
    };
    let unblocked = done_rx.recv_timeout(WAIT).is_ok();
    release_tx.send(()).unwrap();
    assert!(reader.join().unwrap(), "the parked read must find its key");
    writer.join().unwrap();
    assert!(
        unblocked,
        "a reader parked in a block fetch held the engine lock: the commit \
         and freeze did not complete until it was released"
    );
}

#[test]
fn laser_cold_read_does_not_block_commit_or_freeze() {
    let schema = Schema::with_columns(6);
    let projection = Projection::all(&schema);
    cold_read_leaves_the_engine_lock_free(
        |storage| {
            let layout = LayoutSpec::equi_width(&schema, 5, 2);
            LaserDb::open(storage, LaserOptions::small_for_tests(layout)).unwrap()
        },
        |db| {
            for key in 0..200u64 {
                db.insert_int_row(key, key as i64).unwrap();
            }
            db.compact_all().unwrap();
        },
        move |db| db.read(17, &projection).unwrap().is_some(),
        |db| {
            db.insert_int_row(1_000, 0).unwrap();
            assert!(db.freeze_memtable().unwrap());
        },
    );
}

#[test]
fn lsm_cold_read_does_not_block_commit_or_freeze() {
    cold_read_leaves_the_engine_lock_free(
        |storage| LsmDb::open(storage, LsmOptions::small_for_tests()).unwrap(),
        |db| {
            for key in 0..200u64 {
                db.put(key, vec![key as u8; 32]).unwrap();
            }
            db.flush().unwrap();
        },
        |db| db.get(17).unwrap().is_some(),
        |db| {
            db.put(1_000, vec![0; 32]).unwrap();
            assert!(db.freeze_memtable().unwrap());
        },
    );
}

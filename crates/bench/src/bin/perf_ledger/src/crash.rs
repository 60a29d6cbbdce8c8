//! Durability check from outside the engine: a storage wrapper that knows,
//! for every file, how many bytes were covered by a completed sync.
//!
//! Killing a process leaves the operating system's cache intact, so a real
//! crash test must itself discard what was never flushed. [`CrashDir::crash`]
//! does that — it truncates every file to its last-synced length — and the
//! driver then reopens the database and demands every acknowledged write.
//!
//! The wrapper is also the benchmark's device model. Appends and reads go to
//! real files through `FileStorage`; a sync is *recorded and counted but not
//! issued*. The benchmark may only write inside its checkout, and there the
//! sandbox's virtual disk takes 70-140 us per `fdatasync` and drifts by a
//! third within the hour — more than any bound a metric could carry. What is
//! durable is therefore decided by this wrapper (exactly the bytes a sync
//! covered), and syncs are reported as counts, never as time.
//!
//! Tracking costs two atomic operations per append or sync; the name map is
//! only locked on create, rename and delete.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use laser_sharding::ShardStorageProvider;
use lsm_storage::storage::{
    FileStorage, IoStats, RandomAccessFile, SharedSyncHandle, Storage, StorageRef, WritableFile,
};
use lsm_storage::Result;

#[derive(Debug)]
struct FileState {
    appended: AtomicU64,
    synced: AtomicU64,
    /// The namespace's counters, so elided syncs still count.
    io: Arc<IoStats>,
}

impl FileState {
    /// The modelled sync: everything appended so far is now durable.
    fn sync(&self) {
        let covered = self.appended.load(Ordering::SeqCst);
        self.synced.fetch_max(covered, Ordering::SeqCst);
        self.io.record_sync();
    }
}

type Files = Mutex<HashMap<String, Arc<FileState>>>;

/// One storage namespace (directory) with synced-length tracking.
pub struct CrashStorage {
    inner: StorageRef,
    dir: PathBuf,
    files: Files,
}

struct CrashWritable {
    inner: Box<dyn WritableFile>,
    state: Arc<FileState>,
}

struct CrashSyncHandle(Arc<FileState>);

impl WritableFile for CrashWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.inner.append(data)?;
        self.state
            .appended
            .store(self.inner.len(), Ordering::SeqCst);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.state.sync();
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn shared_sync_handle(&self) -> Option<Arc<dyn SharedSyncHandle>> {
        Some(Arc::new(CrashSyncHandle(Arc::clone(&self.state))))
    }
}

impl SharedSyncHandle for CrashSyncHandle {
    fn sync(&self) -> Result<()> {
        self.0.sync();
        Ok(())
    }
}

impl CrashStorage {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<FileState>>> {
        self.files.lock().expect("crash-storage map poisoned")
    }

    /// Discards every byte no completed fsync covered. Files that predate
    /// this process (none in a benchmark run) are left alone. Returns the
    /// bytes dropped.
    fn crash(&self) -> std::io::Result<u64> {
        let mut dropped = 0;
        for (name, state) in self.lock().iter() {
            let path = self.dir.join(name);
            let Ok(meta) = std::fs::metadata(&path) else {
                continue;
            };
            let synced = state.synced.load(Ordering::SeqCst);
            if meta.len() > synced {
                dropped += meta.len() - synced;
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(synced)?;
            }
        }
        Ok(dropped)
    }
}

impl Storage for CrashStorage {
    fn create(&self, name: &str) -> Result<Box<dyn WritableFile>> {
        let inner = self.inner.create(name)?;
        let state = Arc::new(FileState {
            appended: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            io: self.inner.io_stats(),
        });
        self.lock().insert(name.to_string(), Arc::clone(&state));
        Ok(Box::new(CrashWritable { inner, state }))
    }

    fn open(&self, name: &str) -> Result<Box<dyn RandomAccessFile>> {
        self.inner.open(name)
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)?;
        self.lock().remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)?;
        let mut files = self.lock();
        match files.remove(from) {
            Some(state) => files.insert(to.to_string(), state),
            None => files.remove(to),
        };
        Ok(())
    }

    fn io_stats(&self) -> Arc<IoStats> {
        self.inner.io_stats()
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        self.inner.size_of(name)
    }
}

/// A [`ShardStorageProvider`] over real directories (`root/`,
/// `root/shard-NNN/`, the layout of `DirShardStorage`) whose every namespace
/// is a [`CrashStorage`]. Namespaces are created once and handed out again
/// on every call, so sync tracking and I/O counters survive a reopen.
pub struct CrashDir {
    root: PathBuf,
    namespaces: Mutex<HashMap<PathBuf, Arc<CrashStorage>>>,
}

impl CrashDir {
    pub fn new(root: impl Into<PathBuf>) -> Arc<CrashDir> {
        Arc::new(CrashDir {
            root: root.into(),
            namespaces: Mutex::new(HashMap::new()),
        })
    }

    fn namespace(&self, dir: PathBuf) -> Result<StorageRef> {
        let mut map = self.namespaces.lock().expect("namespace map poisoned");
        if let Some(ns) = map.get(&dir) {
            return Ok(Arc::clone(ns) as StorageRef);
        }
        let ns = Arc::new(CrashStorage {
            inner: FileStorage::open_ref(&dir)?,
            dir: dir.clone(),
            files: Files::default(),
        });
        map.insert(dir, Arc::clone(&ns));
        Ok(ns)
    }

    fn all(&self) -> Vec<Arc<CrashStorage>> {
        let map = self.namespaces.lock().expect("namespace map poisoned");
        map.values().cloned().collect()
    }

    /// Simulates power loss on every namespace; call with the database
    /// dropped. Returns the unsynced bytes discarded.
    pub fn crash(&self) -> std::io::Result<u64> {
        self.all().iter().map(|ns| ns.crash()).sum()
    }

    /// Storage counters summed over every namespace (leaders, replicas and
    /// the root), cumulative since this provider was created.
    pub fn io(&self) -> lsm_storage::IoStatsSnapshot {
        self.all().iter().fold(
            Default::default(),
            |acc: lsm_storage::IoStatsSnapshot, ns| acc.merged(&ns.io_stats().snapshot()),
        )
    }

    /// Bytes currently on storage under the root.
    pub fn bytes_on_storage(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.root)
    }
}

impl ShardStorageProvider for CrashDir {
    fn root(&self) -> Result<StorageRef> {
        self.namespace(self.root.clone())
    }

    fn shard(&self, slot: usize) -> Result<StorageRef> {
        self.namespace(self.root.join(format!("shard-{slot:03}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_keeps_exactly_the_synced_prefix() {
        let dir = std::env::temp_dir().join(format!("perf-ledger-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let provider = CrashDir::new(&dir);
        let ns = provider.shard(0).unwrap();

        let mut a = ns.create("a").unwrap();
        a.append(b"durable").unwrap();
        a.sync().unwrap();
        a.append(b"-lost").unwrap();

        // Synced through a shared handle while the writer keeps appending.
        let mut b = ns.create("b").unwrap();
        b.append(b"12345").unwrap();
        let handle = b.shared_sync_handle().unwrap();
        handle.sync().unwrap();
        b.append(b"678").unwrap();

        // Never synced, then renamed: still nothing durable.
        let mut c = ns.create("c.tmp").unwrap();
        c.append(b"xyz").unwrap();
        ns.rename("c.tmp", "c").unwrap();
        drop((a, b, c));

        assert_eq!(provider.crash().unwrap(), 5 + 3 + 3);
        assert_eq!(ns.open("a").unwrap().read_all().unwrap(), b"durable");
        assert_eq!(ns.open("b").unwrap().read_all().unwrap(), b"12345");
        assert_eq!(ns.size_of("c").unwrap(), 0);
        assert_eq!(provider.bytes_on_storage(), 12);
        assert!(provider.io().syncs >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

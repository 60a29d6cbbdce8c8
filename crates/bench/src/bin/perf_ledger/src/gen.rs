//! The benchmark's own seeded load generator: splitmix64 for uniform draws,
//! Box-Muller for the paper's recency-skewed reads, and one deterministic
//! operation stream per (workload, seed, client).
//!
//! Nothing here touches the engine: the program under test receives only
//! the generated operations, and the same `--seed` always yields the same
//! stream (pinned by the digest tests below).

/// The splitmix64 finaliser: a stateless 64-bit mixer.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64 sequence generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Normal(mean, sd) by Box-Muller (one draw per call; the sine twin is
    /// discarded so the stream position does not depend on caller parity).
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        let u1 = 1.0 - self.unit(); // (0, 1], keeps ln() finite
        let u2 = self.unit();
        mean + sd * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A recency position in `[0, 1)`: normal(mean, sd) clamped, where 1 is
    /// the newest row (the paper's Q2 key distribution, Table 3).
    pub fn recency(&mut self, mean: f64, sd: f64) -> f64 {
        self.normal(mean, sd).clamp(0.0, 1.0 - 1e-9)
    }
}

/// Range-shard split point: shard 0 owns keys below it, shard 1 the rest.
pub const SHARD_BASE: u64 = 1 << 40;

/// Rows are numbered in arrival (time) order and dealt round-robin to the two
/// range shards, so both shards always hold recent data.
pub fn key_of(row: u64) -> u64 {
    (row & 1) * SHARD_BASE + (row >> 1)
}

/// Inverse of [`key_of`].
pub fn row_of(key: u64) -> u64 {
    ((key % SHARD_BASE) << 1) | (key / SHARD_BASE)
}

/// A read projection: the paper's query projections (Table 3) plus the four
/// column groups of the finest `D-opt` level layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proj {
    /// Q2a: every column.
    All,
    /// Q2b: columns 16-30.
    Cols16To30,
    /// Q4 and short scans: columns 21-30.
    Cols21To30,
    /// Q5: columns 28-30 (also the column group <28-30>).
    Cols28To30,
    /// Column group <1-15>.
    Cg1To15,
    /// Column group <16-20>.
    Cg16To20,
    /// Column group <21-27>.
    Cg21To27,
}

impl Proj {
    pub const EVERY: [Proj; 7] = [
        Proj::All,
        Proj::Cols16To30,
        Proj::Cols21To30,
        Proj::Cols28To30,
        Proj::Cg1To15,
        Proj::Cg16To20,
        Proj::Cg21To27,
    ];

    /// The finest column groups: together they cover every column, and no
    /// level of the layout splits any of them.
    pub const COLUMN_GROUPS: [Proj; 4] = [
        Proj::Cg1To15,
        Proj::Cg16To20,
        Proj::Cg21To27,
        Proj::Cols28To30,
    ];

    /// 0-based column range.
    pub fn columns(self) -> std::ops::Range<usize> {
        match self {
            Proj::All => 0..30,
            Proj::Cols16To30 => 15..30,
            Proj::Cols21To30 => 20..30,
            Proj::Cols28To30 => 27..30,
            Proj::Cg1To15 => 0..15,
            Proj::Cg16To20 => 15..20,
            Proj::Cg21To27 => 20..27,
        }
    }
}

/// One client operation. Row numbers are logical (time-ordered); the
/// executor maps them to keys with [`key_of`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Q1: `n` consecutive new rows in one durable batch.
    Insert { first_row: u64, n: u32 },
    /// Q3: overwrite one column of an existing row.
    Update { row: u64, col: u8 },
    /// Q2: projected point read; `absent` reads a key that was never written.
    Get { row: u64, proj: Proj, absent: bool },
    /// A 100-row window inside one shard, columns 21-30.
    ShortScan { shard: u8, lo_local: u64 },
    /// Q4: a window of 5% of all rows inside one shard, columns 21-30.
    ScanQ4 { shard: u8, lo_local: u64, len: u64 },
    /// Q5: 50% of all rows across both shards (the newest half of shard 0
    /// plus the oldest half of shard 1 — one fan-out scan), columns 28-30.
    ScanQ5 { lo_local0: u64, hi_local1: u64 },
}

/// How a workload picks the row a get reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Alternate Q2a normal(0.98, 0.02) and Q2b normal(0.85, 0.02) recency.
    PaperRecency,
    /// Uniform over every existing row, with this share of absent keys.
    Uniform { absent_share: f64 },
}

/// The operation mix of one workload: how many operations of each kind one
/// repeating cycle holds. Every workload carries every kind (the benchmark
/// contract reports every end-to-end metric on every workload); the shares
/// differ by orders of magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Insert batches per cycle.
    pub inserts: u32,
    /// Rows per insert batch.
    pub batch_rows: u32,
    pub gets: u32,
    pub updates: u32,
    pub short_scans: u32,
    /// Long scans per cycle (every fourth is a Q5, the rest Q4).
    pub long_scans: u32,
    pub key_dist: KeyDist,
}

pub const SHORT_SCAN_ROWS: u64 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Insert,
    Get,
    Update,
    ShortScan,
    LongScan,
}

impl Mix {
    /// The cycle as a slot pattern: each kind's operations sit at evenly
    /// spaced positions, so any prefix of the stream holds the mix's ratios.
    fn pattern(&self) -> Vec<Kind> {
        let counts = [
            (Kind::Insert, self.inserts),
            (Kind::Get, self.gets),
            (Kind::Update, self.updates),
            (Kind::ShortScan, self.short_scans),
            (Kind::LongScan, self.long_scans),
        ];
        let mut slots: Vec<(f64, usize, Kind)> = Vec::new();
        for (order, (kind, count)) in counts.into_iter().enumerate() {
            for j in 0..count {
                slots.push(((j as f64 + 0.5) / count as f64, order, kind));
            }
        }
        slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        slots.into_iter().map(|s| s.2).collect()
    }
}

/// Deterministic per-client operation stream.
///
/// With `clients > 1` the row space is dealt to clients in chunks of
/// `batch_rows`, so clients write disjoint keys and each can check its own
/// reads against its own model without coordination.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    mix: Mix,
    pattern: std::sync::Arc<[Kind]>,
    client: u64,
    clients: u64,
    /// Rows owned by this client so far (preloaded share + inserted).
    owned: u64,
    slot: usize,
    gets: u64,
    long_scans: u64,
}

impl OpStream {
    pub fn new(seed: u64, mix: Mix, client: u64, clients: u64, preload_rows: u64) -> OpStream {
        let chunk = mix.batch_rows as u64 * clients;
        assert!(
            preload_rows > 0 && preload_rows.is_multiple_of(chunk),
            "preload must be whole chunks per client"
        );
        OpStream {
            rng: Rng::new(mix64(seed ^ mix64(client + 1))),
            mix,
            pattern: mix.pattern().into(),
            client,
            clients,
            owned: preload_rows / clients,
            slot: 0,
            gets: 0,
            long_scans: 0,
        }
    }

    /// True if this client wrote (and therefore models) `row`.
    pub fn owns(&self, row: u64) -> bool {
        (row / self.mix.batch_rows as u64) % self.clients == self.client
    }

    /// The `k`-th row this client owns, in arrival order.
    fn owned_row(&self, k: u64) -> u64 {
        let b = self.mix.batch_rows as u64;
        ((k / b) * self.clients + self.client) * b + k % b
    }

    fn get(&mut self) -> Op {
        self.gets += 1;
        let proj = if self.gets % 2 == 1 {
            Proj::All
        } else {
            Proj::Cols16To30
        };
        let (pos, absent) = match self.mix.key_dist {
            KeyDist::PaperRecency if proj == Proj::All => (self.rng.recency(0.98, 0.02), false),
            KeyDist::PaperRecency => (self.rng.recency(0.85, 0.02), false),
            KeyDist::Uniform { absent_share } => (self.rng.unit(), self.rng.unit() < absent_share),
        };
        let row = if absent {
            // Far beyond anything a run can insert, still inside the shards.
            (1 << 38) + self.rng.below(1 << 30)
        } else {
            self.owned_row((pos * self.owned as f64) as u64)
        };
        Op::Get { row, proj, absent }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let kind = self.pattern[self.slot];
        self.slot = (self.slot + 1) % self.pattern.len();
        // Rows per shard that every client has certainly finished writing is
        // not knowable without coordination; scans window over this client's
        // own frontier and the executor checks only the rows it owns.
        let frontier = self.owned * self.clients;
        let locals = frontier / 2;
        Some(match kind {
            Kind::Insert => {
                let first_row = self.owned_row(self.owned);
                self.owned += self.mix.batch_rows as u64;
                Op::Insert {
                    first_row,
                    n: self.mix.batch_rows,
                }
            }
            Kind::Get => self.get(),
            Kind::Update => {
                // Q3 hits the newest 1% of this client's rows.
                let newest = (self.owned / 100).max(1);
                let k = self.owned - 1 - self.rng.below(newest);
                Op::Update {
                    row: self.owned_row(k),
                    col: self.rng.below(30) as u8,
                }
            }
            Kind::ShortScan => Op::ShortScan {
                shard: (self.rng.next_u64() & 1) as u8,
                lo_local: self
                    .rng
                    .below(locals.saturating_sub(SHORT_SCAN_ROWS).max(1)),
            },
            Kind::LongScan => {
                self.long_scans += 1;
                if self.long_scans.is_multiple_of(4) {
                    Op::ScanQ5 {
                        lo_local0: locals / 2,
                        hi_local1: locals / 2,
                    }
                } else {
                    // Q4 windows sweep the key range in eight fixed strides,
                    // oldest to newest: where a window lies decides which
                    // levels (and so which layouts) it reads, and a run sees
                    // too few long scans to average random positions out.
                    let len = (frontier / 20).max(1);
                    let stride = (self.long_scans % 8) as f64 / 8.0 + 1.0 / 16.0;
                    Op::ScanQ4 {
                        shard: (self.long_scans % 2) as u8,
                        lo_local: (stride * locals.saturating_sub(len) as f64) as u64,
                        len,
                    }
                }
            }
        })
    }
}

/// FNV-1a over 64-bit words, the benchmark's only checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of the first `n` operations of a stream (used by the tests and
/// recorded in every report so two runs can prove they saw the same load).
pub fn digest(stream: OpStream, n: usize) -> u64 {
    let mut h = Fnv::default();
    for op in stream.take(n) {
        match op {
            Op::Insert { first_row, n } => {
                h.word(1);
                h.word(first_row);
                h.word(n as u64);
            }
            Op::Update { row, col } => {
                h.word(2);
                h.word(row);
                h.word(col as u64);
            }
            Op::Get { row, proj, absent } => {
                h.word(3);
                h.word(row);
                h.word(proj.columns().start as u64);
                h.word(absent as u64);
            }
            Op::ShortScan { shard, lo_local } => {
                h.word(4);
                h.word(shard as u64);
                h.word(lo_local);
            }
            Op::ScanQ4 {
                shard,
                lo_local,
                len,
            } => {
                h.word(5);
                h.word(shard as u64);
                h.word(lo_local);
                h.word(len);
            }
            Op::ScanQ5 {
                lo_local0,
                hi_local1,
            } => {
                h.word(6);
                h.word(lo_local0);
                h.word(hi_local1);
            }
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn key_mapping_round_trips_and_alternates_shards() {
        for row in [0u64, 1, 2, 3, 1000, 1001, 123_456_789] {
            assert_eq!(row_of(key_of(row)), row);
            assert_eq!(key_of(row) / SHARD_BASE, row & 1);
        }
        assert!(key_of(10) < key_of(12), "time order survives per shard");
    }

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        for w in WORKLOADS {
            for client in 0..w.clients {
                let s = |seed| OpStream::new(seed, w.mix, client, w.clients, w.preload_rows);
                assert_eq!(digest(s(7), 50_000), digest(s(7), 50_000), "{}", w.name);
                assert_ne!(digest(s(7), 50_000), digest(s(8), 50_000), "{}", w.name);
            }
        }
    }

    #[test]
    fn clients_write_disjoint_rows() {
        let w = WORKLOADS
            .iter()
            .find(|w| w.clients > 1)
            .expect("a parallel workload");
        let mut seen = std::collections::BTreeSet::new();
        for client in 0..w.clients {
            let s = OpStream::new(1, w.mix, client, w.clients, w.preload_rows);
            let me = s.clone();
            for op in s.take(20_000) {
                if let Op::Insert { first_row, n } = op {
                    for row in first_row..first_row + n as u64 {
                        assert!(row >= w.preload_rows);
                        assert!(me.owns(row));
                        assert!(seen.insert(row), "row {row} written twice");
                    }
                }
            }
        }
    }

    #[test]
    fn hw_mix_holds_the_table3_ratios() {
        // Table 3 / Fig. 8 as the issue scales it: 400k inserts : 200k gets
        // : 4k updates, one long scan per 2000 inserts, every fourth a Q5,
        // gets alternating Q2a / Q2b.
        let w = WORKLOADS.iter().find(|w| w.name == "hw_mix").unwrap();
        let (mut ins, mut get, mut upd, mut q4, mut q5, mut q2a) = (0u64, 0, 0, 0, 0, 0u64);
        for op in OpStream::new(3, w.mix, 0, 1, w.preload_rows).take(600_000) {
            match op {
                Op::Insert { n, .. } => ins += n as u64,
                Op::Get { proj, absent, .. } => {
                    assert!(!absent);
                    get += 1;
                    q2a += (proj == Proj::All) as u64;
                }
                Op::Update { .. } => upd += 1,
                Op::ScanQ4 { .. } => q4 += 1,
                Op::ScanQ5 { .. } => q5 += 1,
                Op::ShortScan { .. } => {}
            }
        }
        let near = |a: f64, b: f64| (a / b - 1.0).abs() < 0.03;
        assert!(
            near(ins as f64 / get as f64, 2.0),
            "{ins} inserts {get} gets"
        );
        assert!(
            near(ins as f64 / upd as f64, 100.0),
            "{ins} inserts {upd} updates"
        );
        assert!(
            near(ins as f64 / (q4 + q5) as f64, 2000.0),
            "{ins} / {q4}+{q5}"
        );
        assert!(near(q4 as f64 / q5 as f64, 3.0), "{q4} Q4 {q5} Q5");
        assert!(near(get as f64 / q2a as f64, 2.0));
    }

    #[test]
    fn recency_reads_land_near_the_newest_rows() {
        let mut rng = Rng::new(11);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.recency(0.98, 0.02)).sum::<f64>() / n as f64;
        assert!((mean - 0.975).abs() < 0.01, "clamped mean {mean}");
        let mean = (0..n).map(|_| rng.recency(0.85, 0.02)).sum::<f64>() / n as f64;
        assert!((mean - 0.85).abs() < 0.005, "{mean}");
    }
}

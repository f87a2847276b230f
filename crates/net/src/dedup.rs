//! Visited-state deduplication backends for exhaustive exploration.
//!
//! The explorer stores one 64-bit fingerprint per visited configuration.
//! Sequentially that is a plain `HashSet<u64>`; the parallel explorer
//! ([`crate::explore::explore_parallel`]) instead funnels every insert
//! through a [`ShardedIndex`] — [`FP_SHARDS`] independently locked shards
//! keyed by a fingerprint prefix, so concurrent workers rarely contend on
//! the same lock — with a pluggable [`FingerprintStore`] backend per shard:
//!
//! * [`ExactStore`] — a `HashSet<u64>`, 8 bytes of accounted storage per
//!   admitted configuration, zero false positives. This is the oracle
//!   backend: state counts are exact and deterministic.
//! * [`BloomStore`] — a classic Bloom filter (double hashing, k probes in
//!   one bit array). Memory is *fixed up front* regardless of how many
//!   configurations are admitted, at the price of a measurable
//!   false-positive rate: a colliding configuration is silently treated as
//!   visited and its subtree pruned. The filter is sized from a capacity
//!   and a target false-positive budget, and [`BloomStore::saturation`]
//!   reports the *measured* fraction of set bits so the explorer can tell
//!   how much of the budget a run actually consumed.
//! * [`MmapStore`] — a file-backed open-addressing table (8-byte slots,
//!   linear probing, grow-by-rehash into a doubled file) that keeps the
//!   exact backend's zero-false-positive contract while moving the storage
//!   *out of RAM*: the table lives in a sparse file whose hot pages the OS
//!   page cache keeps, so the resident footprint is working-set-sized
//!   rather than state-space-sized. This is the out-of-core backend that
//!   makes state spaces larger than RAM exhaustible.
//!
//! Despite its name, the mmap backend is **not memory-mapped**. The crates
//! `forbid(unsafe_code)` and carry no FFI dependency, so instead of an
//! `mmap(2)` mapping it does positioned I/O
//! ([`std::os::unix::fs::FileExt`]): one 8-byte `read_exact_at` system call
//! per probed slot, and one `write_all_at` per admitted fingerprint. The
//! out-of-core behaviour is the same (the kernel caches hot pages, evicts
//! cold ones); the per-probe cost is a system call, not a memory load. The
//! `mmap` name stays because checkpoints store it. Set-equivalence with
//! [`ExactStore`] is asserted by property tests driving both stores with
//! identical insert sequences across grow-by-rehash boundaries.
//!
//! Soundness note: a Bloom false positive can only *under*-count states
//! (prune a subtree that re-merges with the visited space elsewhere); it
//! never fabricates a state. Violations found under a Bloom backend are
//! therefore always real; violations *missed* are possible in principle,
//! which is why the differential tests drive both backends over the same
//! instances (see `tests/explore_parallel.rs`). The exact and mmap backends
//! have no false positives at all.

use crate::snapshot::{put_u64, ByteReader};
use std::collections::HashSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards in a [`ShardedIndex`].
///
/// Sixty-four shards keep lock contention negligible for any worker count
/// the explorer will realistically run (`jobs` ≤ cores), while the per-shard
/// constant overhead stays trivial.
pub const FP_SHARDS: usize = 64;
const SHARD_BITS: u32 = FP_SHARDS.trailing_zeros();

/// Default initial byte budget for the mmap backend: the total size of the
/// initial table files across all shards. Small on purpose — the table
/// grows by rehash, so the budget only sets where growing starts.
pub const MMAP_DEFAULT_BUDGET: usize = 1 << 20;

/// Which deduplication backend a [`ShardedIndex`] uses.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum DedupKind {
    /// Exact `HashSet<u64>` shards: 8 B per admitted configuration, no
    /// false positives.
    #[default]
    Exact,
    /// Bloom-filter shards: fixed memory, tunable false-positive budget.
    Bloom,
    /// File-backed open-addressing shards ([`MmapStore`]): exact answers,
    /// out-of-core storage. Not memory-mapped: every probed slot is one
    /// positioned `read_exact_at` (see the module docs). `budget` is the
    /// initial total file size in bytes across all shards (tables grow by
    /// rehash past it).
    Mmap {
        /// Initial total table-file bytes across all shards.
        budget: usize,
    },
}

impl DedupKind {
    /// All backends, in order (mmap with its default budget).
    pub const ALL: [DedupKind; 3] = [
        DedupKind::Exact,
        DedupKind::Bloom,
        DedupKind::Mmap {
            budget: MMAP_DEFAULT_BUDGET,
        },
    ];

    /// The spellings `FromStr` accepts, for use in error messages and CLI
    /// usage text. Kept in sync with [`DedupKind::ALL`] by a test.
    pub const NAMES: [&'static str; 3] = ["exact", "bloom", "mmap[:BUDGET]"];

    /// Parses `"exact"` / `"bloom"` / `"mmap"` / `"mmap:BUDGET"`; see
    /// [`FromStr`] for the budget syntax.
    #[must_use]
    pub fn parse(s: &str) -> Option<DedupKind> {
        s.parse().ok()
    }
}

impl fmt::Display for DedupKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DedupKind::Exact => f.write_str("exact"),
            DedupKind::Bloom => f.write_str("bloom"),
            DedupKind::Mmap { budget } if *budget == MMAP_DEFAULT_BUDGET => f.write_str("mmap"),
            DedupKind::Mmap { budget } => write!(f, "mmap:{budget}"),
        }
    }
}

/// Error parsing a [`DedupKind`]; lists the valid spellings, matching the
/// registry's "one of: …" error style.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseDedupError(String);

impl fmt::Display for ParseDedupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown dedup backend '{}'; one of: {}",
            self.0,
            DedupKind::NAMES.join(", ")
        )
    }
}

impl std::error::Error for ParseDedupError {}

impl FromStr for DedupKind {
    type Err = ParseDedupError;

    /// `exact`, `bloom`, `mmap`, or `mmap:BUDGET` where BUDGET is a byte
    /// count with an optional `k`/`m`/`g` (×1024) suffix, e.g. `mmap:64m`.
    fn from_str(s: &str) -> Result<DedupKind, ParseDedupError> {
        match s {
            "exact" => return Ok(DedupKind::Exact),
            "bloom" => return Ok(DedupKind::Bloom),
            "mmap" => {
                return Ok(DedupKind::Mmap {
                    budget: MMAP_DEFAULT_BUDGET,
                })
            }
            _ => {}
        }
        if let Some(spec) = s.strip_prefix("mmap:") {
            let (digits, scale) = match spec.strip_suffix(['k', 'K']) {
                Some(d) => (d, 1usize << 10),
                None => match spec.strip_suffix(['m', 'M']) {
                    Some(d) => (d, 1 << 20),
                    None => match spec.strip_suffix(['g', 'G']) {
                        Some(d) => (d, 1 << 30),
                        None => (spec, 1),
                    },
                },
            };
            if let Ok(n) = digits.parse::<usize>() {
                if let Some(budget) = n.checked_mul(scale).filter(|&b| b > 0) {
                    return Ok(DedupKind::Mmap { budget });
                }
            }
        }
        Err(ParseDedupError(s.to_string()))
    }
}

/// Byte accounting for a fingerprint store, split by storage class.
///
/// The exact and Bloom backends are pure heap; the mmap backend is pure
/// file. Exploration byte *limits* apply to the total, but E22 and the
/// bench gate need the split: the whole point of the out-of-core backend is
/// that its `heap` stays ~0 while `file` carries the state space.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DedupBytes {
    /// Bytes resident on the heap.
    pub heap: usize,
    /// Bytes backed by files on disk.
    pub file: usize,
}

impl DedupBytes {
    /// Heap + file bytes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.heap + self.file
    }
}

/// One shard's worth of fingerprint storage.
///
/// `insert` is the only mutation: it returns `true` iff the fingerprint was
/// **not** already present (i.e. the caller just admitted a new
/// configuration). Probabilistic backends may return `false` for a
/// never-seen fingerprint (a false positive) but must never return `true`
/// for a fingerprint previously inserted into the same store.
pub trait FingerprintStore: Send {
    /// Inserts `fp`, returning whether it was new to this store.
    fn insert(&mut self, fp: u64) -> bool;
    /// Bytes of storage this store accounts for, split heap/file.
    fn bytes(&self) -> DedupBytes;
    /// Appends a serialized image of the store's contents (checkpointing).
    fn save(&self, out: &mut Vec<u8>);
    /// Restores contents previously written by [`FingerprintStore::save`]
    /// into this (empty, identically configured) store.
    fn load(&mut self, bytes: &[u8]) -> Result<(), String>;
}

/// Exact per-shard backend: a `HashSet<u64>`.
#[derive(Debug, Default)]
pub struct ExactStore(HashSet<u64>);

impl ExactStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> ExactStore {
        ExactStore::default()
    }
}

impl FingerprintStore for ExactStore {
    fn insert(&mut self, fp: u64) -> bool {
        self.0.insert(fp)
    }

    fn bytes(&self) -> DedupBytes {
        // Accounted cost: the 8-byte payload per entry, matching the
        // sequential explorer's `BYTES_PER_CONFIG` accounting (hash-table
        // overhead is an implementation detail both explorers share).
        DedupBytes {
            heap: self.0.len() * std::mem::size_of::<u64>(),
            file: 0,
        }
    }

    fn save(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0.len() as u64);
        for &fp in &self.0 {
            put_u64(out, fp);
        }
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = ByteReader::new(bytes);
        let count = r.len()?;
        self.0.reserve(count);
        for _ in 0..count {
            self.0.insert(r.u64()?);
        }
        r.finish()
    }
}

/// Bloom-filter per-shard backend: `k` probes into one bit array.
#[derive(Debug)]
pub struct BloomStore {
    bits: Vec<u64>,
    /// Number of usable bits (a multiple of 64).
    m: u64,
    /// Probes per fingerprint.
    k: u32,
    /// Bits currently set (for measured saturation / FP estimates).
    ones: u64,
}

impl BloomStore {
    /// Sizes a filter for `capacity` fingerprints at a target false-positive
    /// probability `fp_budget` (clamped to a sane range).
    ///
    /// Standard sizing: `m = ⌈-n·ln p / (ln 2)²⌉` bits and `k = ⌈(m/n)·ln 2⌉`
    /// probes.
    #[must_use]
    pub fn for_capacity(capacity: usize, fp_budget: f64) -> BloomStore {
        let n = capacity.max(1) as f64;
        let p = fp_budget.clamp(1e-9, 0.5);
        let ln2 = std::f64::consts::LN_2;
        let m = ((-n * p.ln()) / (ln2 * ln2)).ceil().max(64.0) as u64;
        let m = m.div_ceil(64) * 64;
        let k = ((m as f64 / n) * ln2).ceil().clamp(1.0, 16.0) as u32;
        BloomStore {
            bits: vec![0u64; (m / 64) as usize],
            m,
            k,
            ones: 0,
        }
    }

    /// Fraction of bits currently set — the measured load of the filter.
    ///
    /// The false-positive probability of a lookup is `saturation^k`, so a
    /// run can verify after the fact that it stayed inside its budget.
    #[must_use]
    pub fn saturation(&self) -> f64 {
        self.ones as f64 / self.m as f64
    }

    /// The measured false-positive probability estimate `saturation^k`.
    #[must_use]
    pub fn fp_estimate(&self) -> f64 {
        self.saturation().powi(self.k as i32)
    }

    fn bit_index(&self, fp: u64, probe: u32) -> u64 {
        // Double hashing: two independent halves derived from the (already
        // splitmix-diffused) fingerprint; h2 is forced odd so every probe
        // sequence walks the whole array.
        let h1 = fp;
        let h2 = splitmix64(fp ^ 0x9E37_79B9_7F4A_7C15) | 1;
        h1.wrapping_add(u64::from(probe).wrapping_mul(h2)) % self.m
    }
}

impl FingerprintStore for BloomStore {
    fn insert(&mut self, fp: u64) -> bool {
        let mut new = false;
        for probe in 0..self.k {
            let bit = self.bit_index(fp, probe);
            let (word, mask) = ((bit / 64) as usize, 1u64 << (bit % 64));
            if self.bits[word] & mask == 0 {
                self.bits[word] |= mask;
                self.ones += 1;
                new = true;
            }
        }
        new
    }

    fn bytes(&self) -> DedupBytes {
        DedupBytes {
            heap: self.bits.len() * std::mem::size_of::<u64>(),
            file: 0,
        }
    }

    fn save(&self, out: &mut Vec<u8>) {
        put_u64(out, self.m);
        put_u64(out, u64::from(self.k));
        put_u64(out, self.ones);
        for &word in &self.bits {
            put_u64(out, word);
        }
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = ByteReader::new(bytes);
        let (m, k, ones) = (r.u64()?, r.u64()?, r.u64()?);
        if m != self.m || k != u64::from(self.k) {
            return Err(format!(
                "bloom geometry mismatch: checkpoint m={m}/k={k}, store m={}/k={} \
                 (resume with the same --bloom sizing)",
                self.m, self.k
            ));
        }
        for word in &mut self.bits {
            *word = r.u64()?;
        }
        self.ones = ones;
        r.finish()
    }
}

/// Process-unique sequence for table/scratch file names.
static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A process-unique file/dir name: `{prefix}-{pid}-{seq}`. Shared with the
/// explorer's spill files so every on-disk artifact follows one naming
/// scheme.
pub(crate) fn unique_name(prefix: &str) -> String {
    format!(
        "{prefix}-{}-{}",
        std::process::id(),
        FILE_SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// File-backed open-addressing per-shard backend — the out-of-core store.
///
/// Layout: a sparse file of 8-byte little-endian slots (a power of two),
/// linear probing from `splitmix64(fp) & mask`, slot value `0` meaning
/// empty (the fingerprint `0` itself is tracked by a one-bit side flag).
/// When occupancy crosses ⅞ the table grows by rehash into a fresh file of
/// twice the slots and the old file is deleted. Nothing is memory-mapped:
/// all I/O is positioned (one `read_exact_at` per probed slot, one
/// `write_all_at` per insert), and the OS page cache keeps the hot prefix
/// of the probe space resident and evicts the rest — RSS tracks the
/// working set, not the table.
///
/// I/O errors (disk full, table file unlinked underneath us) panic: a
/// dedup store that silently loses inserts would corrupt state counts.
#[derive(Debug)]
pub struct MmapStore {
    file: File,
    path: PathBuf,
    /// Slot count, always a power of two.
    slots: u64,
    /// Occupied (non-empty) slots.
    occupied: u64,
    /// Whether the fingerprint `0` (the empty-slot sentinel) is present.
    has_zero: bool,
    /// Shared total-file-bytes counter, so a [`ShardedIndex`] can report
    /// byte usage without locking every shard.
    file_bytes: Option<Arc<AtomicUsize>>,
}

impl MmapStore {
    /// Minimum slot count per table (one page of slots).
    const MIN_SLOTS: u64 = 512;
    const SLOT: u64 = 8;

    /// Creates a store whose initial table file is ~`initial_bytes` large,
    /// in `dir`. The file is removed on drop.
    pub fn in_dir(dir: &Path, initial_bytes: usize) -> io::Result<MmapStore> {
        MmapStore::with_counter(dir, initial_bytes, None)
    }

    /// Like [`MmapStore::in_dir`], registering table bytes in `counter`.
    pub fn with_counter(
        dir: &Path,
        initial_bytes: usize,
        counter: Option<Arc<AtomicUsize>>,
    ) -> io::Result<MmapStore> {
        let slots = ((initial_bytes as u64) / MmapStore::SLOT)
            .next_power_of_two()
            .max(MmapStore::MIN_SLOTS);
        let (file, path) = MmapStore::create_table(dir, slots)?;
        if let Some(c) = &counter {
            c.fetch_add((slots * MmapStore::SLOT) as usize, Ordering::Relaxed);
        }
        Ok(MmapStore {
            file,
            path,
            slots,
            occupied: 0,
            has_zero: false,
            file_bytes: counter,
        })
    }

    fn create_table(dir: &Path, slots: u64) -> io::Result<(File, PathBuf)> {
        let path = dir.join(format!("{}.fptable", unique_name("co-ring-fp")));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        // Sparse: unwritten slots read back as zero (= empty) without
        // consuming disk blocks up front.
        file.set_len(slots * MmapStore::SLOT)?;
        Ok((file, path))
    }

    fn read_slot(file: &File, i: u64) -> u64 {
        let mut buf = [0u8; 8];
        file.read_exact_at(&mut buf, i * MmapStore::SLOT)
            .expect("mmap store: table read failed");
        u64::from_le_bytes(buf)
    }

    fn write_slot(file: &File, i: u64, fp: u64) {
        file.write_all_at(&fp.to_le_bytes(), i * MmapStore::SLOT)
            .expect("mmap store: table write failed");
    }

    /// Probes for `fp` (non-zero); returns `Ok(slot)` if present at `slot`,
    /// `Err(slot)` with the first empty slot otherwise.
    fn probe(file: &File, slots: u64, fp: u64) -> Result<u64, u64> {
        let mask = slots - 1;
        let mut i = splitmix64(fp) & mask;
        loop {
            match MmapStore::read_slot(file, i) {
                0 => return Err(i),
                v if v == fp => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let new_slots = self.slots * 2;
        let (new_file, new_path) =
            MmapStore::create_table(self.path.parent().expect("table has a dir"), new_slots)
                .expect("mmap store: grow failed");
        // Rehash: stream the old table in page-sized chunks, re-probe every
        // occupied slot into the doubled file.
        let mut buf = [0u8; 4096];
        let mut off = 0u64;
        let total = self.slots * MmapStore::SLOT;
        while off < total {
            let n = ((total - off) as usize).min(buf.len());
            self.file
                .read_exact_at(&mut buf[..n], off)
                .expect("mmap store: rehash read failed");
            for chunk in buf[..n].chunks_exact(8) {
                let fp = u64::from_le_bytes(chunk.try_into().expect("8B"));
                if fp != 0 {
                    let slot = MmapStore::probe(&new_file, new_slots, fp)
                        .expect_err("rehash inserts are distinct");
                    MmapStore::write_slot(&new_file, slot, fp);
                }
            }
            off += n as u64;
        }
        let _ = std::fs::remove_file(&self.path);
        if let Some(c) = &self.file_bytes {
            // Net growth: new table added, old table removed.
            c.fetch_add(
                ((new_slots - self.slots) * MmapStore::SLOT) as usize,
                Ordering::Relaxed,
            );
        }
        self.file = new_file;
        self.path = new_path;
        self.slots = new_slots;
    }

    /// Non-mutating membership probe: true iff `fp` is present.
    #[must_use]
    pub fn contains(&self, fp: u64) -> bool {
        if fp == 0 {
            return self.has_zero;
        }
        MmapStore::probe(&self.file, self.slots, fp).is_ok()
    }

    /// Number of fingerprints stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupied as usize + usize::from(self.has_zero)
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The table file currently backing this store.
    #[must_use]
    pub fn table_path(&self) -> &Path {
        &self.path
    }

    /// Streams every stored fingerprint to `visit`.
    fn for_each(&self, mut visit: impl FnMut(u64)) {
        if self.has_zero {
            visit(0);
        }
        let mut buf = [0u8; 4096];
        let mut off = 0u64;
        let total = self.slots * MmapStore::SLOT;
        while off < total {
            let n = ((total - off) as usize).min(buf.len());
            self.file
                .read_exact_at(&mut buf[..n], off)
                .expect("mmap store: scan read failed");
            for chunk in buf[..n].chunks_exact(8) {
                let fp = u64::from_le_bytes(chunk.try_into().expect("8B"));
                if fp != 0 {
                    visit(fp);
                }
            }
            off += n as u64;
        }
    }
}

impl FingerprintStore for MmapStore {
    fn insert(&mut self, fp: u64) -> bool {
        if fp == 0 {
            let new = !self.has_zero;
            self.has_zero = true;
            return new;
        }
        // Keep occupancy under ⅞ so probe chains stay short.
        if (self.occupied + 1) * 8 >= self.slots * 7 {
            self.grow();
        }
        match MmapStore::probe(&self.file, self.slots, fp) {
            Ok(_) => false,
            Err(slot) => {
                MmapStore::write_slot(&self.file, slot, fp);
                self.occupied += 1;
                true
            }
        }
    }

    fn bytes(&self) -> DedupBytes {
        DedupBytes {
            heap: 0,
            file: (self.slots * MmapStore::SLOT) as usize,
        }
    }

    fn save(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        self.for_each(|fp| put_u64(out, fp));
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = ByteReader::new(bytes);
        let count = r.len()?;
        for _ in 0..count {
            self.insert(r.u64()?);
        }
        r.finish()
    }
}

impl Drop for MmapStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        if let Some(c) = &self.file_bytes {
            c.fetch_sub((self.slots * MmapStore::SLOT) as usize, Ordering::Relaxed);
        }
    }
}

/// SplitMix64 diffusion — spreads fingerprint entropy over all 64 bits so
/// both the shard selector (top bits) and the Bloom probes see uniform
/// input even if the underlying hash has weak high bits.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A concurrently usable visited-fingerprint index: [`FP_SHARDS`] locks,
/// each guarding one [`FingerprintStore`], sharded by fingerprint prefix.
///
/// `insert` takes exactly one shard lock; the global admitted count is an
/// atomic so limit checks never lock anything. For the mmap backend the
/// index creates a unique scratch subdirectory for its table files and
/// removes it on drop.
pub struct ShardedIndex {
    kind: DedupKind,
    shards: Vec<Mutex<Box<dyn FingerprintStore>>>,
    admitted: AtomicUsize,
    /// Fixed total heap cost for backends that preallocate (Bloom);
    /// `None` for backends whose cost grows per entry (exact, mmap).
    fixed_bytes: Option<DedupBytes>,
    /// Live total of table-file bytes (mmap backend; zero otherwise).
    file_bytes: Arc<AtomicUsize>,
    /// Scratch subdirectory owned (and removed on drop) by this index.
    scratch: Option<PathBuf>,
}

impl ShardedIndex {
    /// Builds an index with the given backend.
    ///
    /// `capacity` and `fp_budget` size the Bloom backend (capacity is split
    /// evenly across shards); the exact backend ignores both. The mmap
    /// backend puts its table files under the system temp dir — use
    /// [`ShardedIndex::with_dir`] to choose the directory.
    #[must_use]
    pub fn new(kind: DedupKind, capacity: usize, fp_budget: f64) -> ShardedIndex {
        ShardedIndex::with_dir(kind, capacity, fp_budget, None)
    }

    /// Builds an index, placing any file-backed storage under `scratch_dir`
    /// (`None` = the system temp dir). A unique subdirectory is created
    /// there and removed when the index is dropped.
    #[must_use]
    pub fn with_dir(
        kind: DedupKind,
        capacity: usize,
        fp_budget: f64,
        scratch_dir: Option<&Path>,
    ) -> ShardedIndex {
        let file_bytes = Arc::new(AtomicUsize::new(0));
        let scratch = match kind {
            DedupKind::Mmap { .. } => {
                let root = scratch_dir
                    .map(Path::to_path_buf)
                    .unwrap_or_else(std::env::temp_dir);
                let dir = root.join(unique_name("co-ring-dedup"));
                std::fs::create_dir_all(&dir).expect("mmap store: scratch dir creation failed");
                Some(dir)
            }
            _ => None,
        };
        let shards: Vec<Mutex<Box<dyn FingerprintStore>>> = (0..FP_SHARDS)
            .map(|_| -> Mutex<Box<dyn FingerprintStore>> {
                match kind {
                    DedupKind::Exact => Mutex::new(Box::new(ExactStore::new())),
                    DedupKind::Bloom => Mutex::new(Box::new(BloomStore::for_capacity(
                        capacity.div_ceil(FP_SHARDS),
                        fp_budget,
                    ))),
                    DedupKind::Mmap { budget } => Mutex::new(Box::new(
                        MmapStore::with_counter(
                            scratch.as_deref().expect("mmap scratch dir"),
                            budget.div_ceil(FP_SHARDS),
                            Some(Arc::clone(&file_bytes)),
                        )
                        .expect("mmap store: table creation failed"),
                    )),
                }
            })
            .collect();
        let fixed_bytes = match kind {
            DedupKind::Exact | DedupKind::Mmap { .. } => None,
            DedupKind::Bloom => {
                let mut total = DedupBytes::default();
                for s in &shards {
                    let b = s.lock().expect("fresh shard").bytes();
                    total.heap += b.heap;
                    total.file += b.file;
                }
                Some(total)
            }
        };
        ShardedIndex {
            kind,
            shards,
            admitted: AtomicUsize::new(0),
            fixed_bytes,
            file_bytes,
            scratch,
        }
    }

    /// The backend kind this index was built with.
    #[must_use]
    pub fn kind(&self) -> DedupKind {
        self.kind
    }

    /// Inserts a fingerprint; returns whether it was new (admitted).
    pub fn insert(&self, fp: u64) -> bool {
        let h = splitmix64(fp);
        let shard = (h >> (64 - SHARD_BITS)) as usize;
        let new = self.shards[shard].lock().expect("shard poisoned").insert(h);
        if new {
            self.admitted.fetch_add(1, Ordering::Relaxed);
        }
        new
    }

    /// Number of fingerprints admitted as new so far.
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Current byte cost of the index, split heap/file, cheap enough to
    /// check per insert: exact backends pay 8 B of heap per admitted entry,
    /// Bloom backends a fixed heap preallocation, mmap backends the live
    /// total of their table files (tracked by a shared atomic — no shard
    /// locks taken).
    #[must_use]
    pub fn bytes(&self) -> DedupBytes {
        self.fixed_bytes.unwrap_or_else(|| match self.kind {
            DedupKind::Mmap { .. } => DedupBytes {
                heap: 0,
                file: self.file_bytes.load(Ordering::Relaxed),
            },
            _ => DedupBytes {
                heap: self.admitted() * std::mem::size_of::<u64>(),
                file: 0,
            },
        })
    }

    /// Serializes every shard's contents for checkpointing, in shard order.
    #[must_use]
    pub fn save_shards(&self) -> Vec<Vec<u8>> {
        self.shards
            .iter()
            .map(|s| {
                let mut blob = Vec::new();
                s.lock().expect("shard poisoned").save(&mut blob);
                blob
            })
            .collect()
    }

    /// Restores shard contents saved by [`ShardedIndex::save_shards`] into
    /// this freshly built (empty) index, and sets the admitted count (which
    /// probabilistic backends cannot recount from their own contents).
    pub fn load_shards(&self, blobs: &[Vec<u8>], admitted: usize) -> Result<(), String> {
        if blobs.len() != self.shards.len() {
            return Err(format!(
                "checkpoint has {} dedup shards, index has {}",
                blobs.len(),
                self.shards.len()
            ));
        }
        for (i, (shard, blob)) in self.shards.iter().zip(blobs).enumerate() {
            shard
                .lock()
                .expect("shard poisoned")
                .load(blob)
                .map_err(|e| format!("dedup shard {i}: {e}"))?;
        }
        self.admitted.store(admitted, Ordering::Relaxed);
        Ok(())
    }

    /// Mean measured saturation across shards (Bloom only; `None` for
    /// exact and mmap backends, which have no false positives to budget).
    #[must_use]
    pub fn saturation(&self) -> Option<f64> {
        match self.kind {
            DedupKind::Exact | DedupKind::Mmap { .. } => None,
            DedupKind::Bloom => Some(self.measured_saturation()),
        }
    }

    fn measured_saturation(&self) -> f64 {
        // Downcast-free measurement: re-insert nothing; derive from the
        // admitted count and per-shard geometry. ones ≤ k·admitted, and the
        // expected saturation for n insertions into m bits with k probes is
        // 1 - (1 - 1/m)^{kn}. We report that analytic value; per-bit truth
        // lives in BloomStore::saturation for direct users.
        let per_shard = self.admitted() as f64 / FP_SHARDS as f64;
        let m = (self.bytes().heap * 8) as f64 / FP_SHARDS as f64;
        if m == 0.0 {
            return 0.0;
        }
        // k is re-derived from sizing; sized filters use k = ceil((m/n)ln2)
        // but we only need a representative k for the estimate. Use the
        // classic optimum bound which is what for_capacity targets.
        let k = ((m / per_shard.max(1.0)) * std::f64::consts::LN_2)
            .ceil()
            .clamp(1.0, 16.0);
        1.0 - (1.0 - 1.0 / m).powf(k * per_shard)
    }
}

impl Drop for ShardedIndex {
    fn drop(&mut self) {
        // Table files remove themselves (MmapStore::drop); the unique
        // subdir they lived in goes last. Shards are still alive here, so
        // drain them explicitly first.
        if let Some(dir) = self.scratch.take() {
            self.shards.clear();
            let _ = std::fs::remove_dir(&dir);
        }
    }
}

impl fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("kind", &self.kind)
            .field("shards", &self.shards.len())
            .field("admitted", &self.admitted())
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> PathBuf {
        let dir = std::env::temp_dir().join(unique_name("co-ring-dedup-test"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn exact_store_dedups() {
        let mut s = ExactStore::new();
        assert!(s.insert(1));
        assert!(s.insert(2));
        assert!(!s.insert(1));
        assert_eq!(s.bytes().heap, 16);
        assert_eq!(s.bytes().file, 0);
    }

    #[test]
    fn bloom_never_readmits_an_inserted_fingerprint() {
        let mut b = BloomStore::for_capacity(1_000, 0.01);
        let fps: Vec<u64> = (0..1_000u64).map(|i| splitmix64(i ^ 0xDEAD)).collect();
        for &fp in &fps {
            b.insert(fp);
        }
        for &fp in &fps {
            assert!(!b.insert(fp), "no false negatives allowed");
        }
    }

    #[test]
    fn bloom_false_positive_rate_within_budget() {
        let budget = 0.01;
        let mut b = BloomStore::for_capacity(10_000, budget);
        for i in 0..10_000u64 {
            b.insert(splitmix64(i));
        }
        // Probe 10k fingerprints that were never inserted.
        let false_positives = (0..10_000u64)
            .map(|i| splitmix64(i.wrapping_add(1 << 40)))
            .filter(|&fp| !b.clone_probe(fp))
            .count();
        // clone_probe returns "is new"; a false positive is "not new".
        let rate = false_positives as f64 / 10_000.0;
        assert!(
            rate < budget * 3.0,
            "measured FP rate {rate} blows the {budget} budget"
        );
        assert!(b.fp_estimate() < budget * 3.0);
        assert!(b.saturation() < 0.6);
    }

    impl BloomStore {
        /// Test-only non-mutating membership probe: true iff `fp` would be
        /// admitted as new.
        fn clone_probe(&self, fp: u64) -> bool {
            (0..self.k).any(|p| {
                let bit = self.bit_index(fp, p);
                self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0
            })
        }
    }

    #[test]
    fn bloom_memory_is_fixed() {
        let mut b = BloomStore::for_capacity(100, 0.01);
        let before = b.bytes();
        for i in 0..10_000u64 {
            b.insert(splitmix64(i));
        }
        assert_eq!(b.bytes(), before, "bloom storage must not grow");
    }

    /// The store-level backend-equivalence property test of the satellite:
    /// one duplicate-heavy insert sequence that forces several
    /// grow-by-rehash boundaries, driven through all three stores in
    /// lockstep; exact and mmap must agree on every single answer, bloom
    /// may only turn `true` into `false` (a false positive), never the
    /// reverse.
    #[test]
    fn all_stores_agree_on_the_same_insert_sequence() {
        let dir = tmp();
        let mut exact = ExactStore::new();
        let mut bloom = BloomStore::for_capacity(10_000, 1e-4);
        // Start tiny (MIN_SLOTS) so 3 000 distinct inserts at ⅞ load cross
        // several doublings: 512 → 1024 → 2048 → 4096 slots.
        let mut mmap = MmapStore::in_dir(&dir, 1).unwrap();
        assert_eq!(mmap.bytes().file, 512 * 8, "budget floors at MIN_SLOTS");

        // Deterministic duplicate-heavy stream: ~3000 distinct values, each
        // appearing multiple times, plus the empty-slot sentinel 0.
        let stream: Vec<u64> = (0..10_000u64)
            .map(|i| match i % 3 {
                0 => splitmix64(i % 3_000),
                1 => splitmix64((i * 7) % 3_000),
                _ => (i * 31) % 3_000, // small raw values incl. 0
            })
            .collect();
        for &fp in &stream {
            let e = exact.insert(fp);
            let m = mmap.insert(fp);
            let b = bloom.insert(fp);
            assert_eq!(e, m, "exact/mmap diverged on {fp:#x}");
            assert!(e || !b, "bloom admitted a duplicate {fp:#x}");
        }
        assert_eq!(exact.bytes().heap, mmap.len() * 8);
        assert!(
            mmap.bytes().file > 512 * 8,
            "3000 distinct inserts must have grown the table"
        );
        // Membership after growth: every inserted value present, a fresh
        // range absent.
        for &fp in &stream {
            assert!(mmap.contains(fp));
            assert!(!exact.insert(fp) && !mmap.insert(fp));
        }
        for i in 0..1_000u64 {
            let fp = splitmix64(i.wrapping_add(1 << 50));
            assert!(!mmap.contains(fp), "phantom member {fp:#x}");
        }
        drop(mmap);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn mmap_store_removes_its_file_on_drop_and_grow() {
        let dir = tmp();
        let mut m = MmapStore::in_dir(&dir, 1).unwrap();
        let first = m.table_path().to_path_buf();
        assert!(first.exists());
        for i in 0..1_000u64 {
            m.insert(splitmix64(i));
        }
        let grown = m.table_path().to_path_buf();
        assert_ne!(first, grown, "growth rehashes into a fresh file");
        assert!(!first.exists(), "old table must be deleted after growth");
        drop(m);
        assert!(!grown.exists(), "table must be deleted on drop");
        std::fs::remove_dir(&dir).expect("scratch dir left non-empty");
    }

    #[test]
    fn stores_save_and_load_roundtrip() {
        let dir = tmp();
        let fps: Vec<u64> = (0..2_000u64).map(splitmix64).chain([0]).collect();

        let mut exact = ExactStore::new();
        let mut bloom = BloomStore::for_capacity(4_096, 1e-4);
        let mut mmap = MmapStore::in_dir(&dir, 1).unwrap();
        for &fp in &fps {
            exact.insert(fp);
            bloom.insert(fp);
            mmap.insert(fp);
        }

        let mut exact2 = ExactStore::new();
        let mut bloom2 = BloomStore::for_capacity(4_096, 1e-4);
        let mut mmap2 = MmapStore::in_dir(&dir, 1).unwrap();
        for (src, dst) in [
            (
                &exact as &dyn FingerprintStore,
                &mut exact2 as &mut dyn FingerprintStore,
            ),
            (&bloom, &mut bloom2),
            (&mmap, &mut mmap2),
        ] {
            let mut blob = Vec::new();
            src.save(&mut blob);
            dst.load(&blob).unwrap();
        }
        for &fp in &fps {
            assert!(!exact2.insert(fp), "exact lost {fp:#x} across save/load");
            assert!(!bloom2.insert(fp), "bloom lost {fp:#x} across save/load");
            assert!(!mmap2.insert(fp), "mmap lost {fp:#x} across save/load");
        }
        // Geometry mismatch is rejected, not silently mis-probed.
        let mut blob = Vec::new();
        bloom.save(&mut blob);
        let mut tiny = BloomStore::for_capacity(8, 0.5);
        assert!(tiny.load(&blob).is_err());
        drop(mmap);
        drop(mmap2);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn sharded_index_counts_admissions() {
        for kind in DedupKind::ALL {
            let idx = ShardedIndex::new(kind, 10_000, 1e-4);
            let mut admitted = 0usize;
            for i in 0..5_000u64 {
                if idx.insert(i) {
                    admitted += 1;
                }
            }
            assert_eq!(idx.admitted(), admitted, "{kind}");
            // Exact admits everything; bloom may lose a handful to FPs.
            assert!(admitted > 4_900, "{kind}: admitted only {admitted}");
            // Re-inserting admits nothing new.
            for i in 0..5_000u64 {
                assert!(!idx.insert(i), "{kind}: duplicate admitted");
            }
            assert_eq!(idx.admitted(), admitted, "{kind}");
        }
    }

    #[test]
    fn sharded_index_is_thread_safe() {
        for kind in [DedupKind::Exact, DedupKind::Mmap { budget: 1 }] {
            let idx = ShardedIndex::new(kind, 0, 0.0);
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let idx = &idx;
                    scope.spawn(move || {
                        // Overlapping ranges: every value raced by two threads.
                        for i in 0..2_000u64 {
                            idx.insert((t / 2) * 10_000 + i);
                        }
                    });
                }
            });
            assert_eq!(idx.admitted(), 4 * 2_000, "{kind}");
        }
        let exact = ShardedIndex::new(DedupKind::Exact, 0, 0.0);
        for i in 0..100u64 {
            exact.insert(i);
        }
        assert_eq!(exact.bytes().heap, 100 * 8);
    }

    #[test]
    fn exact_bytes_grow_bloom_bytes_do_not() {
        let exact = ShardedIndex::new(DedupKind::Exact, 1_000, 1e-2);
        let bloom = ShardedIndex::new(DedupKind::Bloom, 1_000, 1e-2);
        let bloom_before = bloom.bytes();
        for i in 0..1_000u64 {
            exact.insert(i);
            bloom.insert(i);
        }
        assert_eq!(exact.bytes().heap, exact.admitted() * 8);
        assert_eq!(exact.bytes().file, 0);
        assert_eq!(bloom.bytes(), bloom_before);
        assert!(bloom.saturation().is_some());
        assert!(exact.saturation().is_none());
    }

    #[test]
    fn mmap_index_accounts_file_bytes_and_cleans_up() {
        let root = tmp();
        let idx = ShardedIndex::with_dir(DedupKind::Mmap { budget: 1 }, 0, 0.0, Some(&root));
        assert!(idx.saturation().is_none());
        let before = idx.bytes();
        assert_eq!(before.heap, 0);
        assert_eq!(before.file, FP_SHARDS * 512 * 8);
        for i in 0..60_000u64 {
            idx.insert(i);
        }
        let after = idx.bytes();
        assert!(after.file > before.file, "shards must have grown");
        assert_eq!(after.heap, 0);
        let tables: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(tables.len(), 1, "one scratch subdir: {tables:?}");
        drop(idx);
        assert!(
            !tables[0].exists(),
            "scratch subdir must be removed on drop"
        );
        let _ = std::fs::remove_dir(&root);
    }

    #[test]
    fn sharded_index_save_load_roundtrip_preserves_membership() {
        for kind in DedupKind::ALL {
            let idx = ShardedIndex::new(kind, 10_000, 1e-4);
            for i in 0..5_000u64 {
                idx.insert(i);
            }
            let blobs = idx.save_shards();
            let admitted = idx.admitted();

            let fresh = ShardedIndex::new(kind, 10_000, 1e-4);
            fresh.load_shards(&blobs, admitted).unwrap();
            assert_eq!(fresh.admitted(), admitted, "{kind}");
            for i in 0..5_000u64 {
                assert!(!fresh.insert(i), "{kind}: lost {i} across save/load");
            }
            assert_eq!(fresh.admitted(), admitted, "{kind}");
            assert!(fresh
                .load_shards(&blobs[..FP_SHARDS - 1], admitted)
                .is_err());
        }
    }

    #[test]
    fn dedup_kind_parse_roundtrip() {
        for kind in DedupKind::ALL {
            assert_eq!(DedupKind::parse(&kind.to_string()), Some(kind));
        }
        for kind in [
            DedupKind::Mmap { budget: 4096 },
            DedupKind::Mmap { budget: 64 << 20 },
        ] {
            assert_eq!(
                DedupKind::parse(&kind.to_string()),
                Some(kind),
                "non-default budgets must round-trip"
            );
        }
        assert_eq!(
            DedupKind::parse("mmap"),
            Some(DedupKind::Mmap {
                budget: MMAP_DEFAULT_BUDGET
            })
        );
        assert_eq!(
            DedupKind::parse("mmap:64k"),
            Some(DedupKind::Mmap { budget: 64 << 10 })
        );
        assert_eq!(
            DedupKind::parse("mmap:2M"),
            Some(DedupKind::Mmap { budget: 2 << 20 })
        );
        assert_eq!(
            DedupKind::parse("mmap:1g"),
            Some(DedupKind::Mmap { budget: 1 << 30 })
        );
        for bad in [
            "cuckoo",
            "mmap:",
            "mmap:0",
            "mmap:x",
            "mmap:9999999999999999999999",
        ] {
            assert_eq!(DedupKind::parse(bad), None, "{bad:?}");
            let err = bad.parse::<DedupKind>().unwrap_err().to_string();
            assert!(
                err.contains("one of: exact, bloom, mmap[:BUDGET]"),
                "error must list valid kinds: {err}"
            );
        }
        assert_eq!(DedupKind::default(), DedupKind::Exact);
        assert_eq!(DedupKind::ALL.len(), DedupKind::NAMES.len());
    }
}

//! Embedding table caching (§4.4).
//!
//! Rerankers touch a tiny, Zipf-skewed slice of their vocabulary per request
//! (the paper measures ≤ 6.75 % of 151 k tokens). [`EmbeddingCache`] keeps a
//! configurable fraction of embedding rows in a flat in-memory arena managed
//! by an [`LruIndex`]. A whole token slice is resolved at once
//! ([`EmbeddingCache::embed_into`]): resident rows are copied from the
//! arena, and every distinct missing row is fetched exactly once, by one
//! vectored [`RowSource::read_rows`] against the weight container. The
//! cache exposes hit/miss/eviction statistics and its exact resident byte
//! size for memory accounting.

use std::collections::HashMap;
use std::time::Instant;

use prism_tensor::{LruIndex, Tensor};

use crate::{Container, Result, SectionMeta, StorageError, Throttle};

/// Source of embedding rows (the disk-backed table, or an in-memory table in
/// tests).
pub trait RowSource {
    /// Number of rows (vocabulary size).
    fn rows(&self) -> usize;
    /// Row width (hidden dimension).
    fn cols(&self) -> usize;
    /// Scatter-reads vocabulary rows into `out`, a row-major `[_, cols]`
    /// matrix: each `(row, dst)` pair lands vocabulary row `row` in
    /// destination row `dst`, which the caller keeps inside `out`. `wanted`
    /// is strictly ascending in `row`, so a source may coalesce adjacent
    /// rows into one read.
    fn read_rows(&self, wanted: &[(u32, u32)], out: &mut [f32]) -> Result<()>;
}

fn mismatch(reason: String) -> StorageError {
    StorageError::SectionMismatch {
        name: "embedding".into(),
        reason,
    }
}

/// Disk-backed [`RowSource`] reading from an `f32` container section.
pub struct DiskRowSource {
    container: Container,
    meta: SectionMeta,
    throttle: Throttle,
}

/// Floats in [`DiskRowSource`]'s coalescing bounce buffer: 4 KiB on the
/// stack, whatever the batch. A run of adjacent vocabulary rows is read
/// through it in one positioned read; a lone row (and any row too wide for
/// two to fit) is read straight into its destination.
const BOUNCE_FLOATS: usize = 1024;

impl DiskRowSource {
    /// Opens the named section of `container` as a row source.
    ///
    /// The container is reopened so this source owns its file handle.
    pub fn new(container: &Container, section: &str, throttle: Throttle) -> Result<Self> {
        let meta = container.section(section)?.clone();
        if meta.cols == 0 {
            return Err(StorageError::SectionMismatch {
                name: section.to_string(),
                reason: "zero-width embedding section".into(),
            });
        }
        Ok(DiskRowSource {
            container: container.reopen()?,
            meta,
            throttle,
        })
    }
}

impl RowSource for DiskRowSource {
    fn rows(&self) -> usize {
        self.meta.rows as usize
    }

    fn cols(&self) -> usize {
        self.meta.cols as usize
    }

    /// One positioned read per run of adjacent rows, then one throttle
    /// sleep for the whole call, taken from before the first read and
    /// charged every byte read plus one request latency per run.
    fn read_rows(&self, wanted: &[(u32, u32)], out: &mut [f32]) -> Result<()> {
        let cols = self.cols();
        let max_run = (BOUNCE_FLOATS / cols).max(1);
        let mut bounce = [0.0_f32; BOUNCE_FLOATS];
        let start = Instant::now();
        let mut runs = 0_u32;
        let adjacent = wanted.chunk_by(|a, b| a.0.checked_add(1) == Some(b.0));
        for run in adjacent.flat_map(|rows| rows.chunks(max_run)) {
            let (first, dst) = run[0];
            if run.len() == 1 {
                let row = &mut out[dst as usize * cols..][..cols];
                self.container
                    .read_f32_rows(&self.meta, first as u64, row)?;
            } else {
                let rows = &mut bounce[..run.len() * cols];
                self.container
                    .read_f32_rows(&self.meta, first as u64, rows)?;
                for (&(_, dst), row) in run.iter().zip(rows.chunks_exact(cols)) {
                    out[dst as usize * cols..][..cols].copy_from_slice(row);
                }
            }
            runs += 1;
        }
        self.throttle
            .pace_batch(start, (wanted.len() * cols * 4) as u64, runs);
        Ok(())
    }
}

/// An in-memory [`RowSource`] (tests and the vanilla baseline).
pub struct TensorRowSource {
    table: Tensor,
}

impl TensorRowSource {
    /// Wraps a resident embedding table.
    pub fn new(table: Tensor) -> Self {
        TensorRowSource { table }
    }
}

impl RowSource for TensorRowSource {
    fn rows(&self) -> usize {
        self.table.rows()
    }

    fn cols(&self) -> usize {
        self.table.cols()
    }

    fn read_rows(&self, wanted: &[(u32, u32)], out: &mut [f32]) -> Result<()> {
        let cols = self.table.cols();
        for &(row, dst) in wanted {
            out[dst as usize * cols..][..cols].copy_from_slice(self.table.row(row as usize)?);
        }
        Ok(())
    }
}

/// Cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmbeddingCacheStats {
    /// Lookups served from memory: the row was resident when its batch
    /// began, or it repeats a row the same batch had already fetched.
    pub hits: u64,
    /// Rows read from the backing source: one per distinct missing row of
    /// a batch, however often the batch repeats it.
    pub misses: u64,
    /// Rows evicted to make room.
    pub evictions: u64,
    /// Bytes read from the backing source on misses.
    pub miss_bytes: u64,
    /// Microseconds spent in miss reads: one interval per batch with a
    /// miss, around its vectored read (throttle pacing included).
    pub miss_micros: u64,
}

impl EmbeddingCacheStats {
    /// Hit rate in `[0, 1]`; `1.0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

/// LRU cache over embedding rows backed by a [`RowSource`].
pub struct EmbeddingCache<S: RowSource> {
    source: S,
    capacity_rows: usize,
    cols: usize,
    /// Flat arena: `capacity_rows * cols` floats.
    arena: Vec<f32>,
    /// Which vocabulary row each slot currently holds (`u32::MAX` = empty).
    slot_row: Vec<u32>,
    /// Vocabulary row -> slot.
    map: HashMap<u32, u32>,
    lru: LruIndex,
    free: Vec<u32>,
    stats: EmbeddingCacheStats,
}

impl<S: RowSource> EmbeddingCache<S> {
    /// Creates a cache holding at most `capacity_rows` rows.
    ///
    /// The paper sizes this at 10 % of the vocabulary; callers pick the
    /// policy. A capacity of zero is clamped to one row.
    pub fn new(source: S, capacity_rows: usize) -> Self {
        let capacity_rows = capacity_rows.clamp(1, source.rows().max(1));
        let cols = source.cols();
        EmbeddingCache {
            capacity_rows,
            cols,
            arena: vec![0.0; capacity_rows * cols],
            slot_row: vec![u32::MAX; capacity_rows],
            map: HashMap::with_capacity(capacity_rows * 2),
            lru: LruIndex::new(capacity_rows),
            free: (0..capacity_rows as u32).rev().collect(),
            stats: EmbeddingCacheStats::default(),
            source,
        }
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Maximum rows held.
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// Resident bytes of the row arena (the cache's memory footprint).
    pub fn resident_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<f32>()
    }

    /// Statistics so far.
    pub fn stats(&self) -> EmbeddingCacheStats {
        self.stats
    }

    /// Embeds a token slice: row `i` of `out`, a row-major
    /// `[tokens.len(), cols]` matrix, receives the embedding of
    /// `tokens[i]`. The one lookup path; a single lookup is a slice of one.
    ///
    /// Resident rows are copied from the arena; each distinct missing row
    /// is read once — all of them by one [`RowSource::read_rows`], straight
    /// into its first destination row — and copied to its repeats. Rows
    /// are then admitted from `out` in token order, so the resident set
    /// and its recency order end as a token-by-token LRU leaves them and
    /// one slice's rows never have to fit the arena together.
    ///
    /// The slice is validated first: on any error (a token outside the
    /// vocabulary, a mis-sized `out`, a failed read) the cache and its
    /// statistics are as they were.
    ///
    /// Scratch, freed on return and not metered: the position-sort index
    /// (4 bytes per token, the only buffer that grows with the slice) and
    /// the missing-row list (8 bytes per distinct missing row).
    pub fn embed_into(&mut self, tokens: &[u32], out: &mut [f32]) -> Result<()> {
        let cols = self.cols;
        let vocab = self.source.rows();
        let positions = u32::try_from(tokens.len())
            .map_err(|_| mismatch(format!("{} tokens in one slice", tokens.len())))?;
        if out.len() != tokens.len() * cols {
            let (floats, n) = (out.len(), tokens.len());
            return Err(mismatch(format!("{floats} floats for {n} rows of {cols}")));
        }
        if let Some(token) = tokens.iter().find(|&&t| t as usize >= vocab) {
            return Err(mismatch(format!(
                "token {token} outside vocabulary {vocab}"
            )));
        }

        // Positions grouped by token, ascending inside each group.
        let mut order: Vec<u32> = (0..positions).collect();
        order.sort_unstable_by_key(|&p| (tokens[p as usize], p));
        let groups = || order.chunk_by(|&a, &b| tokens[a as usize] == tokens[b as usize]);

        // Each distinct row reaches its group's first position: from the
        // arena here, from the source below.
        let mut missing: Vec<(u32, u32)> = Vec::new();
        for group in groups() {
            let token = tokens[group[0] as usize];
            match self.map.get(&token) {
                Some(&slot) => out[group[0] as usize * cols..][..cols]
                    .copy_from_slice(&self.arena[slot as usize * cols..][..cols]),
                None => missing.push((token, group[0])),
            }
        }
        if !missing.is_empty() {
            let start = Instant::now();
            self.source.read_rows(&missing, out)?;
            self.stats.miss_micros += start.elapsed().as_micros() as u64;
            self.stats.miss_bytes += (missing.len() * cols * 4) as u64;
        }
        self.stats.misses += missing.len() as u64;
        self.stats.hits += (tokens.len() - missing.len()) as u64;

        for group in groups() {
            let first = group[0] as usize * cols;
            for &p in &group[1..] {
                out.copy_within(first..first + cols, p as usize * cols);
            }
        }
        for (p, &token) in tokens.iter().enumerate() {
            self.admit(token, &out[p * cols..][..cols]);
        }
        Ok(())
    }

    /// Makes `token` the most recently used resident row, taking `row`
    /// (its embedding) into the arena over the least recently used one
    /// when it is not resident.
    fn admit(&mut self, token: u32, row: &[f32]) {
        if let Some(&slot) = self.map.get(&token) {
            self.lru.touch(slot as usize);
            return;
        }
        let slot = match self.free.pop() {
            Some(free) => free as usize,
            None => {
                let victim = self.lru.pop_lru().expect("cache non-empty when full");
                self.map.remove(&self.slot_row[victim]);
                self.stats.evictions += 1;
                victim
            }
        };
        self.arena[slot * self.cols..][..self.cols].copy_from_slice(row);
        self.slot_row[slot] = token;
        self.map.insert(token, slot as u32);
        self.lru.push_front(slot);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::path::PathBuf;
    use std::rc::Rc;
    use std::time::Duration;

    use proptest::prelude::*;

    use super::*;
    use crate::ContainerWriter;

    fn table(rows: usize, cols: usize) -> Tensor {
        Tensor::from_fn(rows, cols, |r, c| (r * cols + c) as f32)
    }

    fn source(rows: usize, cols: usize) -> TensorRowSource {
        TensorRowSource::new(table(rows, cols))
    }

    impl<S: RowSource> EmbeddingCache<S> {
        /// One lookup: a slice of one.
        fn lookup(&mut self, token: u32) -> Result<Vec<f32>> {
            let mut row = vec![0.0; self.cols];
            self.embed_into(&[token], &mut row)?;
            Ok(row)
        }

        /// Resident vocabulary rows, most recently used first.
        fn resident_mru(&self) -> Vec<u32> {
            self.lru.iter_mru().map(|s| self.slot_row[s]).collect()
        }
    }

    /// Writes `table(rows, cols)` as a container's `embedding` section.
    fn disk_source(
        name: &str,
        rows: usize,
        cols: usize,
        throttle: Throttle,
    ) -> (DiskRowSource, PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!("prism-embcache-{name}-{}", std::process::id()));
        let mut w = ContainerWriter::create(&path);
        w.add_f32("embedding", &table(rows, cols));
        w.finish().unwrap();
        let container = Container::open(&path).unwrap();
        let src = DiskRowSource::new(&container, "embedding", throttle).unwrap();
        (src, path)
    }

    #[test]
    fn embed_returns_correct_rows() {
        let mut cache = EmbeddingCache::new(source(10, 4), 4);
        assert_eq!(cache.lookup(3).unwrap(), [12.0, 13.0, 14.0, 15.0]);
        assert_eq!(cache.lookup(0).unwrap(), [0.0, 1.0, 2.0, 3.0]);
        let mut out = [0.0_f32; 12];
        cache.embed_into(&[2, 3, 2], &mut out).unwrap();
        assert_eq!(out[..4], [8.0, 9.0, 10.0, 11.0]);
        assert_eq!(out[4..8], [12.0, 13.0, 14.0, 15.0]);
        assert_eq!(out[8..], [8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn hits_after_first_access() {
        let mut cache = EmbeddingCache::new(source(10, 2), 4);
        for _ in 0..3 {
            cache.lookup(5).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn repeat_of_a_fetched_row_is_a_hit() {
        let mut cache = EmbeddingCache::new(source(8, 3), 3);
        let mut out = [0.0_f32; 9];
        cache.embed_into(&[2, 2, 7], &mut out).unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().miss_bytes, 2 * 3 * 4);
    }

    #[test]
    fn evicts_lru_not_mru() {
        let mut cache = EmbeddingCache::new(source(10, 2), 2);
        cache.lookup(1).unwrap(); // slotted
        cache.lookup(2).unwrap(); // slotted
        cache.lookup(1).unwrap(); // touch 1 -> MRU
        cache.lookup(3).unwrap(); // evicts 2
        assert_eq!(cache.stats().evictions, 1);
        cache.lookup(1).unwrap(); // still a hit
        assert_eq!(cache.stats().misses, 3);
        cache.lookup(2).unwrap(); // miss again
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn capacity_clamped_to_vocab() {
        let cache = EmbeddingCache::new(source(4, 2), 100);
        assert_eq!(cache.capacity_rows(), 4);
        let cache = EmbeddingCache::new(source(4, 2), 0);
        assert_eq!(cache.capacity_rows(), 1);
    }

    #[test]
    fn invalid_slice_rejected_before_anything_changes() {
        let mut cache = EmbeddingCache::new(source(4, 2), 2);
        cache.lookup(1).unwrap();
        let (stats, resident) = (cache.stats(), cache.resident_mru());
        let mut out = [0.0_f32; 6];
        // Out of vocabulary: first, in the middle, last.
        for tokens in [[4, 0, 2], [0, 9, 2], [0, 2, 4]] {
            assert!(matches!(
                cache.embed_into(&tokens, &mut out),
                Err(StorageError::SectionMismatch { .. })
            ));
        }
        // Destination of the wrong size.
        assert!(matches!(
            cache.embed_into(&[0, 2], &mut out),
            Err(StorageError::SectionMismatch { .. })
        ));
        assert_eq!(cache.stats(), stats);
        assert_eq!(cache.resident_mru(), resident);
        assert_eq!(cache.lookup(1).unwrap(), [2.0, 3.0]);
    }

    #[test]
    fn resident_bytes_is_capacity_bound() {
        let cache = EmbeddingCache::new(source(100, 8), 10);
        assert_eq!(cache.resident_bytes(), 10 * 8 * 4);
    }

    #[test]
    fn zipf_workload_beats_uniform_at_10pct_capacity() {
        // The paper's 10%-of-vocab sizing rests on Zipf-skewed token usage.
        // Under uniform traffic a 10% cache hits ~10% of the time; under
        // Zipf(~1) traffic the same cache must hit a solid majority.
        let vocab = 1000_usize;
        let lookups = 20_000;
        let run = |zipf: bool| -> f64 {
            let mut cache = EmbeddingCache::new(source(vocab, 4), vocab / 10);
            let mut x = 88172645463325252_u64;
            for _ in 0..lookups {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x >> 11) as f64 / (1_u64 << 53) as f64;
                let token = if zipf {
                    // Inverse CDF of rank-frequency 1/r: r = V^u.
                    ((vocab as f64).powf(u) as u32).saturating_sub(1) % vocab as u32
                } else {
                    (u * vocab as f64) as u32 % vocab as u32
                };
                cache.lookup(token).unwrap();
            }
            cache.stats().hit_rate()
        };
        let zipf_rate = run(true);
        let uniform_rate = run(false);
        assert!(zipf_rate > 0.5, "Zipf hit rate {zipf_rate} too low");
        assert!(
            uniform_rate < 0.2,
            "uniform hit rate {uniform_rate} unexpectedly high"
        );
        assert!(zipf_rate > uniform_rate + 0.35);
    }

    #[test]
    fn disk_row_source_scatters_runs_and_lone_rows() {
        // 3-float rows coalesce through the bounce buffer; 600-float rows
        // are too wide for two to fit and are read in place.
        for (name, cols) in [("narrow", 3), ("wide", 600)] {
            let (src, path) = disk_source(name, 20, cols, Throttle::unlimited());
            assert_eq!((src.rows(), src.cols()), (20, cols));
            let reference = table(20, cols);
            let mut cache = EmbeddingCache::new(src, 5);
            // Rows 3..=6 are adjacent, 19 and 0 stand alone.
            let tokens = [19, 4, 3, 5, 19, 0, 6];
            let mut out = vec![0.0_f32; tokens.len() * cols];
            cache.embed_into(&tokens, &mut out).unwrap();
            for (row, &t) in out.chunks_exact(cols).zip(&tokens) {
                assert_eq!(row, reference.row(t as usize).unwrap());
            }
            assert_eq!(cache.stats().misses, 6);
            assert_eq!(cache.stats().miss_bytes, 6 * cols as u64 * 4);
            // A row past the section is the container's typed error.
            let mut row = vec![0.0_f32; cols];
            assert!(matches!(
                cache.source.read_rows(&[(20, 0)], &mut row),
                Err(StorageError::SectionMismatch { .. })
            ));
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn throttle_charges_every_byte_and_every_run() {
        // 30 scattered rows of 128 bytes at 256 kB/s: 15 ms of transfer,
        // however the reads are issued.
        let rows: Vec<(u32, u32)> = (0..30).map(|i| (i * 2, i)).collect();
        let mut out = vec![0.0_f32; 30 * 32];
        let (src, path) = disk_source("bandwidth", 64, 32, Throttle::bandwidth(256_000));
        let start = Instant::now();
        src.read_rows(&rows, &mut out).unwrap();
        assert!(start.elapsed() >= Duration::from_secs_f64(30.0 * 128.0 / 256_000.0));
        assert_eq!(out[32..64], *table(64, 32).row(2).unwrap());
        std::fs::remove_file(&path).unwrap();

        // Three runs (rows 0..8, 20..24, 40) pay three request latencies.
        let rows: Vec<(u32, u32)> = (0..8).chain(20..24).chain([40]).zip(0..).collect();
        let latency = Duration::from_millis(4);
        let (src, path) = disk_source("latency", 64, 32, Throttle::with_latency(u64::MAX, latency));
        let start = Instant::now();
        src.read_rows(&rows, &mut out[..13 * 32]).unwrap();
        assert!(start.elapsed() >= 3 * latency);
        assert_eq!(out[12 * 32..13 * 32], *table(64, 32).row(40).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    /// A [`RowSource`] that logs which rows each `read_rows` asked for.
    struct LoggingSource {
        inner: TensorRowSource,
        log: Rc<RefCell<Vec<u32>>>,
    }

    impl RowSource for LoggingSource {
        fn rows(&self) -> usize {
            self.inner.rows()
        }

        fn cols(&self) -> usize {
            self.inner.cols()
        }

        fn read_rows(&self, wanted: &[(u32, u32)], out: &mut [f32]) -> Result<()> {
            assert!(wanted.windows(2).all(|w| w[0].0 < w[1].0));
            self.log.borrow_mut().extend(wanted.iter().map(|w| w.0));
            self.inner.read_rows(wanted, out)
        }
    }

    /// Embeds `warm` then `slice` through a cache of `capacity` rows and
    /// checks the second batch against a token-by-token LRU: output rows,
    /// the resident set and its recency order, the hit/miss counts, and
    /// that the source was asked for each distinct missing row once.
    fn check_against_sequential_lru(
        vocab: usize,
        cols: usize,
        capacity: usize,
        warm: &[u32],
        slice: &[u32],
    ) {
        let reference = table(vocab, cols);
        let log = Rc::new(RefCell::new(Vec::new()));
        let logging = LoggingSource {
            inner: source(vocab, cols),
            log: Rc::clone(&log),
        };
        let mut cache = EmbeddingCache::new(logging, capacity);
        let capacity = cache.capacity_rows();
        // The oracle: front = most recently used.
        let mut lru: Vec<u32> = Vec::new();
        let touch = |lru: &mut Vec<u32>, t: u32| {
            lru.retain(|&x| x != t);
            lru.insert(0, t);
            lru.truncate(capacity);
        };

        let mut out = vec![0.0_f32; warm.len() * cols];
        cache.embed_into(warm, &mut out).unwrap();
        warm.iter().for_each(|&t| touch(&mut lru, t));
        assert_eq!(cache.resident_mru(), lru);

        let mut expected_missing: Vec<u32> =
            slice.iter().copied().filter(|t| !lru.contains(t)).collect();
        expected_missing.sort_unstable();
        expected_missing.dedup();
        let before = cache.stats();
        log.borrow_mut().clear();

        let mut out = vec![f32::NAN; slice.len() * cols];
        cache.embed_into(slice, &mut out).unwrap();
        slice.iter().for_each(|&t| touch(&mut lru, t));

        for (i, &t) in slice.iter().enumerate() {
            let want = reference.row(t as usize).unwrap();
            let got = &out[i * cols..(i + 1) * cols];
            assert!(
                got.iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "position {i} (token {t}): {got:?} vs {want:?}"
            );
        }
        assert_eq!(cache.resident_mru(), lru);
        assert_eq!(*log.borrow(), expected_missing);
        let stats = cache.stats();
        assert_eq!(stats.misses - before.misses, expected_missing.len() as u64);
        assert_eq!(
            stats.hits - before.hits,
            (slice.len() - expected_missing.len()) as u64
        );
    }

    #[test]
    fn batched_embed_matches_sequential_lru_on_edge_shapes() {
        // Empty slice, cold and warm.
        check_against_sequential_lru(8, 2, 3, &[], &[]);
        check_against_sequential_lru(8, 2, 3, &[1, 2], &[]);
        // All one token.
        check_against_sequential_lru(8, 2, 3, &[], &[5; 7]);
        // All hits, in an order that reshuffles the recency list.
        check_against_sequential_lru(8, 2, 4, &[0, 1, 2, 3], &[2, 0, 2, 3, 1, 1]);
        // More distinct misses than the arena holds, some repeated, with
        // a resident row (1) that is evicted and re-admitted on the way.
        check_against_sequential_lru(16, 3, 3, &[1, 2], &[9, 8, 7, 9, 6, 5, 1, 4, 8]);
        // Capacity one.
        check_against_sequential_lru(4, 1, 1, &[3], &[3, 0, 3, 0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn batched_embed_matches_sequential_lru(
            vocab in 1_usize..40,
            cols in 1_usize..5,
            capacity in 1_usize..12,
            warm in prop::collection::vec(0_u32..40, 0..30),
            slice in prop::collection::vec(0_u32..40, 0..120),
        ) {
            let fold = |tokens: Vec<u32>| -> Vec<u32> {
                tokens.into_iter().map(|t| t % vocab as u32).collect()
            };
            check_against_sequential_lru(vocab, cols, capacity, &fold(warm), &fold(slice));
        }
    }
}

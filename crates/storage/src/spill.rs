//! Slot-based spill files for offloaded hidden states (§4.3).
//!
//! Under extreme memory pressure PRISM offloads per-chunk hidden states to
//! disk, keeping at most three chunks resident (computing / offloading /
//! prefetching). [`SpillFile`] provides the disk side: fixed-size slots in
//! a scratch file, written and read back with positioned I/O, with byte
//! accounting for the memory model.
//!
//! # Slot format (version 3)
//!
//! A file has one encoding, its [`SpillPrecision`], and every slot in it
//! is written, read, sized and compacted in that encoding. Every
//! occupied slot starts with a 16-byte header:
//!
//! ```text
//! magic "PSPL" | version u8 (=3) | encoding u8 | pad u16 | rows u32 | cols u32
//! ```
//!
//! followed by the payload the file's encoding dictates:
//!
//! * [`SpillPrecision::F32`] — `rows * cols` little-endian `f32`s (the
//!   historical raw format; round-trips bit-exactly),
//! * [`SpillPrecision::Int8`] — a [`RowQuantBlock`]: `rows` f32 row
//!   minima, `rows` f32 row scales, then `rows * cols` u8 codes
//!   ([`prism_tensor::rowq`]): ~4x fewer bytes through the bandwidth
//!   throttle at a per-element error bounded by `scale / 2`,
//!
//! and a trailing little-endian CRC32 (IEEE) over header + payload.
//! In memory a slot's contents travel as a `Payload` in the same
//! encoding; a tensor is encoded when it enters the spill tier and
//! decoded when it leaves, and [`rowq_round_trip`] is the numeric effect
//! of that trip through an int8 file.
//! Every fetch verifies the checksum; a mismatch **quarantines** the slot
//! (marks it empty, bumps [`SpillFile::quarantined`]) and returns
//! [`StorageError::ChecksumMismatch`] so the engine can recompute the
//! chunk from weights instead of propagating silently corrupted scores.
//! Spill files are per-request scratch files, created empty, so every
//! slot this reader sees was written at version 3.
//!
//! The API takes `&self`: slot metadata sits behind a mutex and the byte
//! counters are atomics, so the overlapped spill pipeline's reader and
//! writer lanes can share one file through an `Arc`.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use prism_tensor::igemm::RowQuantBlock;
use prism_tensor::Tensor;
use serde::Serialize;

use crate::{Result, StorageError, Throttle};

/// Precision of hidden states written to the spill file.
///
/// Carried per request on the engine's `RequestOptions`: the default
/// [`SpillPrecision::Int8`] compresses the offload window's disk traffic
/// 4x, while [`SpillPrecision::F32`] opts out for workloads that need the
/// spill round trip bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum SpillPrecision {
    /// Per-row affine u8 codes plus `(min, scale)` metadata (~4x fewer
    /// bytes; error `<= scale / 2` per element).
    #[default]
    Int8,
    /// Raw little-endian `f32` (bit-exact round trip).
    F32,
}

impl SpillPrecision {
    /// Exact on-disk bytes (header and CRC trailer included) of a
    /// `rows x cols` tensor encoded at this precision — also the cost
    /// model's spill-byte term.
    pub fn encoded_bytes(self, rows: usize, cols: usize) -> usize {
        HEADER_BYTES + self.payload_bytes(rows, cols) + CRC_BYTES
    }

    /// Payload bytes alone (no header, no checksum trailer).
    fn payload_bytes(self, rows: usize, cols: usize) -> usize {
        match self {
            SpillPrecision::F32 => 4 * rows * cols,
            SpillPrecision::Int8 => 8 * rows + rows * cols,
        }
    }

    fn tag(self) -> u8 {
        match self {
            SpillPrecision::Int8 => 1,
            SpillPrecision::F32 => 0,
        }
    }
}

const MAGIC: [u8; 4] = *b"PSPL";
const VERSION: u8 = 3;
const HEADER_BYTES: usize = 16;
const CRC_BYTES: usize = 4;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the same
/// checksum gzip/zip use, small enough to hand-roll and fast enough to
/// disappear under the spill throttle.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0_u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0_u32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Deterministic read-fault injection for tests.
///
/// The engine creates its spill files internally, so corruption faults
/// cannot be injected per-file from outside; this knob flips one payload
/// byte in every `n`-th slot read *before* checksum verification,
/// turning it into a [`StorageError::ChecksumMismatch`] at a
/// deterministic point in the fetch sequence. Injection is scoped to
/// files under a path prefix (a server's spill directory, a single test
/// file) so concurrently running tests cannot perturb each other. Off
/// by default.
pub mod fault {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    static TARGET: Mutex<Option<String>> = Mutex::new(None);
    static EVERY: AtomicUsize = AtomicUsize::new(0);
    static FETCHES: AtomicUsize = AtomicUsize::new(0);

    /// Corrupts every `n`-th fetch (1 = every fetch) from spill files
    /// whose path starts with `prefix`; resets the fetch counter.
    /// `n = 0` disables injection.
    pub fn corrupt_fetches_under(prefix: impl Into<String>, n: usize) {
        let mut target = TARGET.lock().expect("fault target lock");
        *target = (n > 0).then(|| prefix.into());
        FETCHES.store(0, Ordering::SeqCst);
        EVERY.store(n, Ordering::SeqCst);
    }

    /// Turns injection off and resets the counter.
    pub fn reset() {
        corrupt_fetches_under(String::new(), 0);
    }

    pub(crate) fn take_corrupt(path: &std::path::Path) -> bool {
        let n = EVERY.load(Ordering::SeqCst);
        if n == 0 {
            return false;
        }
        {
            let target = TARGET.lock().expect("fault target lock");
            match target.as_ref() {
                Some(prefix) if path.starts_with(prefix) => {}
                _ => return false,
            }
        }
        FETCHES.fetch_add(1, Ordering::SeqCst) % n == n - 1
    }
}

/// What one slot holds, in its file's encoding: a tensor for an
/// [`SpillPrecision::F32`] file, a rowq block for an
/// [`SpillPrecision::Int8`] one. The spill pipeline's lanes carry exactly
/// this, so the codec runs only where a tensor enters
/// ([`Payload::encode`]) or leaves ([`Payload::decode`]) the spill tier.
pub(crate) enum Payload {
    F32(Tensor),
    Int8(RowQuantBlock),
}

impl Payload {
    /// Encodes `tensor` at `precision` (an f32 tensor moves in as is).
    pub(crate) fn encode(precision: SpillPrecision, tensor: Tensor) -> Result<Payload> {
        Ok(match precision {
            SpillPrecision::F32 => Payload::F32(tensor),
            SpillPrecision::Int8 => Payload::Int8(RowQuantBlock::encode(&tensor)?),
        })
    }

    /// The tensor this payload stands for.
    pub(crate) fn decode(self) -> Result<Tensor> {
        match self {
            Payload::F32(t) => Ok(t),
            Payload::Int8(b) => {
                let mut t = Tensor::zeros(0, 0);
                b.decode_into(&mut t)?;
                Ok(t)
            }
        }
    }

    /// `rows` (by index, in order) of this payload, copied in its own
    /// encoding. rowq is per row, so gathering codes equals encoding the
    /// gathered rows: compaction never re-quantizes.
    pub(crate) fn gather_rows(&self, rows: &[usize]) -> Result<Payload> {
        Ok(match self {
            Payload::F32(t) => Payload::F32(t.gather_rows(rows)?),
            Payload::Int8(b) => Payload::Int8(b.gather_rows(rows)?),
        })
    }

    /// In-memory bytes held.
    pub(crate) fn size_bytes(&self) -> u64 {
        match self {
            Payload::F32(t) => t.size_bytes() as u64,
            Payload::Int8(b) => b.size_bytes() as u64,
        }
    }
}

/// One rowq encode/decode cycle in place: the exact numeric effect an
/// [`SpillPrecision::Int8`] slot has on a tensor between write and
/// fetch. The engine applies it to the chunks an int8-spill request
/// keeps resident, so their values track the spilled chunks' values.
pub fn rowq_round_trip(t: &mut Tensor) -> Result<()> {
    RowQuantBlock::encode(t)?.decode_into(t)?;
    Ok(())
}

/// A scratch file divided into equal-capacity versioned slots, every one
/// encoded at the file's precision.
pub struct SpillFile {
    path: PathBuf,
    file: File,
    slots: usize,
    max_rows: usize,
    cols: usize,
    slot_bytes: usize,
    precision: SpillPrecision,
    /// Row count of each occupied slot (`None` = empty).
    rows: Mutex<Vec<Option<usize>>>,
    throttle: Throttle,
    write_micros: AtomicU64,
    read_micros: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    quarantined: AtomicU64,
}

impl SpillFile {
    /// Creates a spill file at `path` with `slots` slots, each sized for
    /// a tensor of up to `max_rows` rows by exactly `cols` columns at
    /// `precision`.
    pub fn create(
        path: impl AsRef<Path>,
        slots: usize,
        max_rows: usize,
        cols: usize,
        precision: SpillPrecision,
        throttle: Throttle,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let slot_bytes = precision.encoded_bytes(max_rows, cols);
        file.set_len((slots * slot_bytes) as u64)?;
        Ok(SpillFile {
            path,
            file,
            slots,
            max_rows,
            cols,
            slot_bytes,
            precision,
            rows: Mutex::new(vec![None; slots]),
            throttle,
            write_micros: AtomicU64::new(0),
            read_micros: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// Path of the backing scratch file (tests inject on-disk faults
    /// through it).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Slots quarantined after a checksum mismatch.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Maximum tensor rows a slot can hold.
    pub fn max_rows(&self) -> usize {
        self.max_rows
    }

    /// Column count every stored tensor must have.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The precision tensors are encoded at.
    pub fn precision(&self) -> SpillPrecision {
        self.precision
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Total bytes read back so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Microseconds spent in spill writes.
    pub fn write_micros(&self) -> u64 {
        self.write_micros.load(Ordering::Relaxed)
    }

    /// Microseconds spent in spill reads.
    pub fn read_micros(&self) -> u64 {
        self.read_micros.load(Ordering::Relaxed)
    }

    fn bad_slot(&self, slot: usize) -> StorageError {
        StorageError::SectionMismatch {
            name: "spill".into(),
            reason: format!("slot {slot} out of {}", self.slots),
        }
    }

    /// Writes `tensor` into `slot` at the file's precision, replacing
    /// previous contents. Returns the encoded byte count.
    pub fn offload(&self, slot: usize, tensor: &Tensor) -> Result<u64> {
        match self.precision {
            SpillPrecision::F32 => self.write_f32(slot, tensor),
            SpillPrecision::Int8 => self.write_block(slot, &RowQuantBlock::encode(tensor)?),
        }
    }

    /// Writes an already-encoded payload into `slot` (the pipeline's
    /// writer lane). Returns the encoded byte count.
    pub(crate) fn write(&self, slot: usize, payload: &Payload) -> Result<u64> {
        match payload {
            Payload::F32(t) => self.write_f32(slot, t),
            Payload::Int8(b) => self.write_block(slot, b),
        }
    }

    fn write_f32(&self, slot: usize, t: &Tensor) -> Result<u64> {
        let (rows, cols) = t.shape();
        self.write_slot(slot, SpillPrecision::F32, rows, cols, |b| {
            for &v in t.data() {
                b.extend_from_slice(&v.to_le_bytes());
            }
        })
    }

    fn write_block(&self, slot: usize, block: &RowQuantBlock) -> Result<u64> {
        let (rows, cols) = (block.rows(), block.cols());
        self.write_slot(slot, SpillPrecision::Int8, rows, cols, |b| {
            for &m in block.mins() {
                b.extend_from_slice(&m.to_le_bytes());
            }
            for &s in block.scales() {
                b.extend_from_slice(&s.to_le_bytes());
            }
            b.extend_from_slice(block.codes());
        })
    }

    /// The one slot writer: header, the payload `fill` appends, CRC
    /// trailer, then the paced write and the slot's row count. `enc` is
    /// the payload's encoding, which must be the file's.
    fn write_slot(
        &self,
        slot: usize,
        enc: SpillPrecision,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64> {
        if slot >= self.slots {
            return Err(self.bad_slot(slot));
        }
        if enc != self.precision || cols != self.cols || rows > self.max_rows {
            return Err(StorageError::SectionMismatch {
                name: "spill".into(),
                reason: format!(
                    "{enc:?} {rows}x{cols} does not fit a {:?} slot of {}x{}",
                    self.precision, self.max_rows, self.cols
                ),
            });
        }
        let start = Instant::now();
        let len = enc.encoded_bytes(rows, cols);
        let mut bytes = Vec::with_capacity(len);
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(enc.tag());
        bytes.extend_from_slice(&[0, 0]);
        bytes.extend_from_slice(&(rows as u32).to_le_bytes());
        bytes.extend_from_slice(&(cols as u32).to_le_bytes());
        fill(&mut bytes);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(bytes.len(), len);
        write_at(&self.file, (slot * self.slot_bytes) as u64, &bytes)?;
        self.throttle.pace(start, bytes.len() as u64);
        self.write_micros
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.rows.lock().expect("spill rows lock")[slot] = Some(rows);
        Ok(len as u64)
    }

    /// The one slot reader: reads `slot`, cross-checks the header against
    /// the file's precision and the slot's recorded rows, and verifies
    /// the trailing CRC32. On a checksum mismatch the slot is
    /// **quarantined** — marked empty, counted in
    /// [`SpillFile::quarantined`] — and the typed
    /// [`StorageError::ChecksumMismatch`] tells the caller to recompute
    /// the chunk rather than consume corrupted data. Returns the payload
    /// in the file's encoding.
    pub(crate) fn read(&self, slot: usize) -> Result<Payload> {
        if slot >= self.slots {
            return Err(self.bad_slot(slot));
        }
        let corrupt = |reason: String| StorageError::SectionMismatch {
            name: "spill".into(),
            reason: format!("slot {slot}: {reason}"),
        };
        let rows = self.rows.lock().expect("spill rows lock")[slot]
            .ok_or_else(|| corrupt("empty".into()))?;
        let (enc, cols) = (self.precision, self.cols);
        let body = HEADER_BYTES + enc.payload_bytes(rows, cols);
        let start = Instant::now();
        let mut bytes = vec![0_u8; body + CRC_BYTES];
        read_at(&self.file, (slot * self.slot_bytes) as u64, &mut bytes)?;
        self.throttle.pace(start, bytes.len() as u64);
        self.read_micros
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        if fault::take_corrupt(&self.path) && bytes.len() > HEADER_BYTES {
            bytes[HEADER_BYTES] ^= 0x40;
        }

        if bytes[0..4] != MAGIC || bytes[4] != VERSION {
            return Err(corrupt("bad header".into()));
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        if bytes[5] != enc.tag() || u32_at(8) as usize != rows || u32_at(12) as usize != cols {
            return Err(corrupt("header/metadata mismatch".into()));
        }
        let stored = u32_at(body);
        let computed = crc32(&bytes[..body]);
        if stored != computed {
            self.rows.lock().expect("spill rows lock")[slot] = None;
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::ChecksumMismatch {
                slot,
                reason: format!("stored {stored:#010x}, computed {computed:#010x}"),
            });
        }
        let payload = &bytes[HEADER_BYTES..body];
        let f32s = |b: &[u8]| -> Vec<f32> {
            b.chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect()
        };
        Ok(match enc {
            SpillPrecision::F32 => Payload::F32(Tensor::from_vec(rows, cols, f32s(payload))?),
            SpillPrecision::Int8 => {
                let (mins, rest) = payload.split_at(4 * rows);
                let (scales, codes) = rest.split_at(4 * rows);
                Payload::Int8(RowQuantBlock::from_parts(
                    rows,
                    cols,
                    f32s(mins),
                    f32s(scales),
                    codes.to_vec(),
                )?)
            }
        })
    }

    /// Reads the tensor stored in `slot` back into memory, decoding at
    /// the file's precision after checksum verification.
    pub fn fetch(&self, slot: usize) -> Result<Tensor> {
        self.read(slot)?.decode()
    }

    /// Marks a slot empty (no I/O).
    pub fn release(&self, slot: usize) {
        if slot < self.slots {
            self.rows.lock().expect("spill rows lock")[slot] = None;
        }
    }

    /// Removes the backing scratch file.
    pub fn cleanup(self) -> Result<()> {
        drop(self.file);
        std::fs::remove_file(&self.path)?;
        Ok(())
    }
}

#[cfg(unix)]
fn read_at(file: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(unix)]
fn write_at(file: &File, offset: u64, buf: &[u8]) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

#[cfg(not(unix))]
fn read_at(file: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(not(unix))]
fn write_at(file: &File, offset: u64, buf: &[u8]) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("prism-spill-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn f32_offload_fetch_round_trip_is_bit_exact() {
        let path = tmp("rt");
        let spill =
            SpillFile::create(&path, 3, 4, 8, SpillPrecision::F32, Throttle::unlimited()).unwrap();
        let t = Tensor::from_fn(4, 8, |r, c| (r * 8 + c) as f32 * 0.25);
        spill.offload(1, &t).unwrap();
        let back = spill.fetch(1).unwrap();
        assert_eq!(back, t);
        let expected = SpillPrecision::F32.encoded_bytes(4, 8) as u64;
        assert_eq!(spill.bytes_written(), expected);
        assert_eq!(spill.bytes_read(), expected);
        spill.cleanup().unwrap();
    }

    #[test]
    fn int8_round_trip_bounded_and_4x_smaller() {
        let path = tmp("int8");
        let rows = 16;
        let cols = 64;
        let spill = SpillFile::create(
            &path,
            2,
            rows,
            cols,
            SpillPrecision::Int8,
            Throttle::unlimited(),
        )
        .unwrap();
        let t = Tensor::from_fn(rows, cols, |r, c| ((r * 31 + c * 7) as f32 * 0.11).sin());
        let written = spill.offload(0, &t).unwrap();
        let back = spill.fetch(0).unwrap();
        assert_eq!(back.shape(), t.shape());
        // Row error bound: (max-min)/255/2; inputs live in [-1, 1].
        let bound = 2.0 / 255.0 / 2.0 + 1e-6;
        assert!(t.max_abs_diff(&back).unwrap() <= bound);
        // >= 3.5x fewer bytes than the f32 encoding of the same tensor.
        let f32_bytes = SpillPrecision::F32.encoded_bytes(rows, cols) as u64;
        assert!(written * 7 <= f32_bytes * 2, "{written} vs {f32_bytes}");
        spill.cleanup().unwrap();
    }

    #[test]
    fn block_offload_fetch_round_trip_is_bit_exact() {
        let path = tmp("block");
        let spill = SpillFile::create(&path, 2, 8, 32, SpillPrecision::Int8, Throttle::unlimited())
            .unwrap();
        let t = Tensor::from_fn(8, 32, |r, c| ((r * 13 + c * 5) as f32 * 0.23).cos());
        let block = RowQuantBlock::encode(&t).unwrap();
        let written = spill.offload(0, &t).unwrap();
        assert_eq!(written, SpillPrecision::Int8.encoded_bytes(8, 32) as u64);
        // The codes round-trip bit-exactly: no decode/re-encode drift.
        match spill.read(0).unwrap() {
            Payload::Int8(back) => assert_eq!(back, block),
            Payload::F32(_) => panic!("an int8 file reads back blocks"),
        }
        // A tensor fetch is the block's decode, i.e. the rowq round trip.
        let mut expect = t.clone();
        rowq_round_trip(&mut expect).unwrap();
        assert_eq!(spill.fetch(0).unwrap(), expect);
        // Payloads in another encoding, and oversized blocks, are rejected.
        assert!(spill.write(0, &Payload::F32(t)).is_err());
        let big = RowQuantBlock::encode(&Tensor::zeros(9, 32)).unwrap();
        assert!(spill.write(0, &Payload::Int8(big)).is_err());
        spill.cleanup().unwrap();
    }

    #[test]
    fn int8_compaction_equals_encoding_the_kept_rows() {
        // The recovery arm of slot compaction encodes the kept rows of a
        // recomputed tensor; it must write the codes a healthy gather of
        // the stored block would.
        let t = Tensor::from_fn(6, 24, |r, c| {
            ((r * 7 + c * 3) as f32 * 0.41).sin() * r as f32
        });
        let rows = [1, 2, 5];
        let gathered = Payload::encode(SpillPrecision::Int8, t.clone())
            .unwrap()
            .gather_rows(&rows)
            .unwrap();
        let encoded = Payload::encode(SpillPrecision::Int8, t.gather_rows(&rows).unwrap()).unwrap();
        match (gathered, encoded) {
            (Payload::Int8(a), Payload::Int8(b)) => assert_eq!(a, b),
            _ => panic!("int8 payloads are blocks"),
        }
    }

    #[test]
    fn slots_are_independent_and_overwrite_keeps_new_shape() {
        let path = tmp("indep");
        let spill =
            SpillFile::create(&path, 2, 4, 4, SpillPrecision::F32, Throttle::unlimited()).unwrap();
        let a = Tensor::full(2, 4, 1.0);
        let b = Tensor::full(4, 4, 2.0);
        spill.offload(0, &a).unwrap();
        spill.offload(1, &b).unwrap();
        assert_eq!(spill.fetch(0).unwrap(), a);
        assert_eq!(spill.fetch(1).unwrap(), b);
        spill.offload(0, &b).unwrap();
        assert_eq!(spill.fetch(0).unwrap(), b);
        spill.cleanup().unwrap();
    }

    #[test]
    fn oversize_and_bad_slot_rejected() {
        let path = tmp("bad");
        let spill =
            SpillFile::create(&path, 1, 2, 4, SpillPrecision::Int8, Throttle::unlimited()).unwrap();
        // Too many rows.
        assert!(spill.offload(0, &Tensor::zeros(3, 4)).is_err());
        // Wrong column count.
        assert!(spill.offload(0, &Tensor::zeros(2, 3)).is_err());
        // Slot out of range.
        assert!(spill.offload(1, &Tensor::zeros(2, 4)).is_err());
        assert!(spill.fetch(0).is_err(), "empty slot fetch must fail");
        spill.cleanup().unwrap();
    }

    #[test]
    fn release_empties_slot() {
        let path = tmp("release");
        let spill =
            SpillFile::create(&path, 1, 2, 4, SpillPrecision::Int8, Throttle::unlimited()).unwrap();
        spill.offload(0, &Tensor::zeros(2, 4)).unwrap();
        spill.release(0);
        assert!(spill.fetch(0).is_err());
        spill.cleanup().unwrap();
    }

    #[test]
    fn throttled_spill_takes_time_and_int8_takes_less() {
        let path = tmp("throttle");
        // 1 MB/s: a ~1 KiB f32 write should take ~1 ms.
        let throttle = Throttle::bandwidth(1 << 20);
        let spill = SpillFile::create(&path, 1, 16, 16, SpillPrecision::F32, throttle).unwrap();
        let t = Tensor::zeros(16, 16);
        let start = Instant::now();
        spill.offload(0, &t).unwrap();
        assert!(start.elapsed().as_micros() >= 900);
        assert!(spill.write_micros() >= 900);
        let f32_bytes = spill.bytes_written();
        spill.cleanup().unwrap();

        let path8 = tmp("throttle8");
        let spill8 = SpillFile::create(&path8, 1, 16, 16, SpillPrecision::Int8, throttle).unwrap();
        spill8.offload(0, &t).unwrap();
        // ~400 bytes instead of ~1 KiB: well under the f32 pace. Judged
        // by the throttle's own accounting, not the wall clock, which a
        // loaded host stretches.
        assert!(spill8.bytes_written() < f32_bytes);
        let int8_pace = throttle.transfer_time(spill8.bytes_written());
        assert!(int8_pace.as_micros() < 900);
        spill8.cleanup().unwrap();
    }

    #[test]
    fn encoded_bytes_matches_contract() {
        assert_eq!(
            SpillPrecision::F32.encoded_bytes(3, 8),
            HEADER_BYTES + 3 * 8 * 4 + CRC_BYTES
        );
        assert_eq!(
            SpillPrecision::Int8.encoded_bytes(3, 8),
            HEADER_BYTES + 3 * 8 + 3 * 8 + CRC_BYTES
        );
        // Default is the compressed format.
        assert_eq!(SpillPrecision::default(), SpillPrecision::Int8);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE reference vectors ("check" values from the CRC catalogue).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn corrupted_slot_quarantines_with_typed_error() {
        for precision in [SpillPrecision::F32, SpillPrecision::Int8] {
            let path = tmp(&format!("crc-{precision:?}"));
            let spill =
                SpillFile::create(&path, 2, 4, 8, precision, Throttle::unlimited()).unwrap();
            let t = Tensor::from_fn(4, 8, |r, c| ((r * 8 + c) as f32 * 0.3).sin());
            spill.offload(0, &t).unwrap();
            // Flip one payload byte on disk, behind the file's back.
            let mut raw = vec![0_u8; 1];
            read_at(&spill.file, HEADER_BYTES as u64 + 2, &mut raw).unwrap();
            raw[0] ^= 0x01;
            write_at(&spill.file, HEADER_BYTES as u64 + 2, &raw).unwrap();
            match spill.fetch(0) {
                Err(StorageError::ChecksumMismatch { slot, .. }) => assert_eq!(slot, 0),
                other => panic!("expected checksum mismatch, got {other:?}"),
            }
            assert_eq!(spill.quarantined(), 1);
            // Quarantine emptied the slot; a rewrite heals it.
            assert!(spill.fetch(0).is_err(), "quarantined slot must read empty");
            spill.offload(0, &t).unwrap();
            assert_eq!(spill.fetch(0).unwrap().shape(), t.shape());
            assert_eq!(spill.quarantined(), 1);
            spill.cleanup().unwrap();
        }
    }

    #[test]
    fn fault_hook_corrupts_every_nth_fetch_deterministically() {
        let path = tmp("faulthook");
        let spill =
            SpillFile::create(&path, 2, 4, 8, SpillPrecision::Int8, Throttle::unlimited()).unwrap();
        let t = Tensor::from_fn(4, 8, |r, c| ((r + 2 * c) as f32 * 0.2).cos());
        spill.offload(0, &t).unwrap();
        spill.offload(1, &t).unwrap();
        fault::corrupt_fetches_under(path.display().to_string(), 2);
        let first = spill.fetch(0);
        let second = spill.fetch(1);
        fault::reset();
        assert!(first.is_ok(), "fetch 1 of 2 must pass: {first:?}");
        assert!(
            matches!(second, Err(StorageError::ChecksumMismatch { .. })),
            "fetch 2 of 2 must trip the injected corruption: {second:?}"
        );
        assert_eq!(spill.quarantined(), 1);
        spill.cleanup().unwrap();
    }
}

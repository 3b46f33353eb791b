//! The overlapped spill pipeline: background I/O lanes over a spill file
//! (§4.3's three-stage window).
//!
//! The paper's offload regime keeps three chunks in flight — one
//! *computing*, one *offloading* (write-back of the previous chunk), one
//! *prefetching* (read-ahead of the next) — so the spill traffic of the
//! neighbouring chunks hides behind the current chunk's compute. The
//! synchronous [`SpillFile`] serializes all three stages;
//! [`SpillPipeline`] restores the overlap with two background lanes built
//! like the dual-buffer weight prefetcher in [`crate::stream`]:
//!
//! * a **reader** lane servicing [`SpillPipeline::prefetch`] /
//!   [`SpillPipeline::fetch`] / [`SpillPipeline::retain_rows`],
//! * a **writer** lane servicing [`SpillPipeline::write_back`]
//!   (fire-and-forget; errors surface on the next call that must
//!   synchronize, and at [`SpillPipeline::drain`] / cleanup).
//!
//! The lanes carry exactly what the file stores — a rowq block for an
//! int8 file, a tensor for an f32 file — so the codec runs on the
//! caller's thread: `write_back` encodes before queueing, `fetch` decodes
//! after the read lands, and `retain_rows` compacts a slot without
//! decoding it at all. A queued int8 write-back holds ~4x fewer bytes
//! than the tensor it came from.
//!
//! Both lanes share one [`SpillFile`] through an `Arc` — positioned I/O
//! needs no seek cursor — and pace themselves independently against the
//! file's throttle, modelling a full-duplex NVMe SSD. Ordering hazards
//! are resolved at the consumer: a fetch or prefetch of a slot with an
//! outstanding write first waits for that write's acknowledgement, so a
//! read can never observe a half-written slot.
//!
//! [`SpillPipeline::synchronous`] wraps the same file without threads —
//! every call runs inline. The engine always runs the overlapped lanes;
//! the synchronous mode is the reference they are tested against (the
//! unit tests here, `spill_proptests.rs`, `failure_injection.rs`).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver, Sender};
use prism_tensor::Tensor;

use crate::spill::Payload;
use crate::{Result, SpillFile, StorageError};

/// Aggregate spill-pipeline statistics (the spill analogue of
/// [`crate::StreamStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Slot reads completed.
    pub reads: u64,
    /// Slot writes completed.
    pub writes: u64,
    /// Bytes read from the spill file.
    pub bytes_read: u64,
    /// Bytes written to the spill file.
    pub bytes_written: u64,
    /// Microseconds the I/O lanes spent in reads + writes.
    pub io_micros: u64,
    /// Microseconds the consumer blocked waiting on spill I/O.
    pub wait_micros: u64,
    /// Slots quarantined after a checksum mismatch (each one forced a
    /// recompute of its chunk from weights).
    pub quarantined: u64,
}

impl SpillStats {
    /// Total bytes moved to/from the spill file.
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Fraction of spill I/O time hidden behind computation, in `[0, 1]`
    /// (`1.0` = the consumer never waited; `0.0` = fully synchronous).
    pub fn overlap_efficiency(&self) -> f64 {
        if self.io_micros == 0 {
            return 1.0;
        }
        let hidden = self.io_micros.saturating_sub(self.wait_micros);
        hidden as f64 / self.io_micros as f64
    }
}

struct ReadDone {
    slot: usize,
    payload: Result<Payload>,
}

struct WriteJob {
    slot: usize,
    payload: Payload,
}

struct WriteDone {
    slot: usize,
    result: Result<u64>,
}

struct Lanes {
    read_tx: Option<Sender<usize>>,
    read_rx: Receiver<ReadDone>,
    write_tx: Option<Sender<WriteJob>>,
    write_rx: Receiver<WriteDone>,
    reader: Option<std::thread::JoinHandle<()>>,
    writer: Option<std::thread::JoinHandle<()>>,
    /// Slots with reads in flight, in submission order.
    pending_reads: VecDeque<usize>,
    /// Read results that arrived ahead of their consumer.
    parked_reads: Vec<ReadDone>,
    /// Slots with unacknowledged writes (submission order), with each
    /// queued payload's in-memory byte size.
    pending_writes: VecDeque<(usize, u64)>,
}

impl Lanes {
    fn has_pending_write(&self, slot: usize) -> bool {
        self.pending_writes.iter().any(|&(s, _)| s == slot)
    }
}

/// Spill I/O front-end: overlapped (background lanes) or synchronous.
pub struct SpillPipeline {
    file: Option<Arc<SpillFile>>,
    lanes: Option<Lanes>,
    /// First write error observed; surfaced on the next synchronizing
    /// call so a failed background write-back cannot pass silently.
    sticky: Option<String>,
    wait_micros: u64,
    reads: u64,
    writes: u64,
}

impl SpillPipeline {
    /// Wraps `file` without background lanes: every operation runs
    /// inline, exactly like pre-pipeline spilling.
    pub fn synchronous(file: SpillFile) -> Self {
        SpillPipeline {
            file: Some(Arc::new(file)),
            lanes: None,
            sticky: None,
            wait_micros: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Wraps `file` with a background reader and writer lane.
    ///
    /// Lane depth enforces the §4.3 memory bound: at most two write-backs
    /// are alive off the compute thread (one queued, one being written)
    /// and at most three reads, so [`SpillPipeline::write_back`] exerts
    /// backpressure — a producer outrunning the throttled writer blocks
    /// instead of accumulating the whole batch's hidden states in the
    /// channel.
    pub fn overlapped(file: SpillFile) -> Result<Self> {
        let file = Arc::new(file);
        let slots = file.slots().max(1);
        let (read_tx, read_job_rx) = bounded::<usize>(2);
        let (read_done_tx, read_rx) = bounded::<ReadDone>(slots + 1);
        let (write_tx, write_job_rx) = bounded::<WriteJob>(1);
        let (write_done_tx, write_rx) = bounded::<WriteDone>(slots + 1);

        let reader_file = Arc::clone(&file);
        let reader = std::thread::Builder::new()
            .name("prism-spill-rd".into())
            .spawn(move || {
                while let Ok(slot) = read_job_rx.recv() {
                    let payload = reader_file.read(slot);
                    if read_done_tx.send(ReadDone { slot, payload }).is_err() {
                        break;
                    }
                }
            })
            .map_err(StorageError::Io)?;

        let writer_file = Arc::clone(&file);
        let writer = std::thread::Builder::new()
            .name("prism-spill-wr".into())
            .spawn(move || {
                while let Ok(WriteJob { slot, payload }) = write_job_rx.recv() {
                    let result = writer_file.write(slot, &payload);
                    if write_done_tx.send(WriteDone { slot, result }).is_err() {
                        break;
                    }
                }
            })
            .map_err(StorageError::Io)?;

        Ok(SpillPipeline {
            file: Some(file),
            lanes: Some(Lanes {
                read_tx: Some(read_tx),
                read_rx,
                write_tx: Some(write_tx),
                write_rx,
                reader: Some(reader),
                writer: Some(writer),
                pending_reads: VecDeque::new(),
                parked_reads: Vec::new(),
                pending_writes: VecDeque::new(),
            }),
            sticky: None,
            wait_micros: 0,
            reads: 0,
            writes: 0,
        })
    }

    /// Whether background lanes are active.
    pub fn is_overlapped(&self) -> bool {
        self.lanes.is_some()
    }

    fn file(&self) -> &SpillFile {
        self.file.as_ref().expect("live spill file")
    }

    fn sticky_error(&mut self) -> Option<StorageError> {
        self.sticky
            .take()
            .map(|reason| StorageError::SectionMismatch {
                name: "spill-pipeline".into(),
                reason,
            })
    }

    fn note_write_done(sticky: &mut Option<String>, lanes: &mut Lanes, done: &WriteDone) {
        if let Some(pos) = lanes
            .pending_writes
            .iter()
            .position(|&(s, _)| s == done.slot)
        {
            lanes.pending_writes.remove(pos);
        }
        if let Err(e) = &done.result {
            sticky.get_or_insert_with(|| format!("write-back of slot {}: {e}", done.slot));
        }
    }

    /// Absorbs already-arrived write acknowledgements without blocking.
    fn drain_write_acks(&mut self) {
        let Some(lanes) = self.lanes.as_mut() else {
            return;
        };
        while let Ok(done) = lanes.write_rx.try_recv() {
            Self::note_write_done(&mut self.sticky, lanes, &done);
        }
    }

    /// Blocks until no write to `slot` is outstanding.
    fn flush_writes_to(&mut self, slot: usize) -> Result<()> {
        self.drain_write_acks();
        let Some(lanes) = self.lanes.as_mut() else {
            return Ok(());
        };
        let wait = Instant::now();
        while lanes.has_pending_write(slot) {
            let done = lanes
                .write_rx
                .recv()
                .map_err(|_| StorageError::StreamerGone)?;
            Self::note_write_done(&mut self.sticky, lanes, &done);
        }
        self.wait_micros += wait.elapsed().as_micros() as u64;
        Ok(())
    }

    /// Discards any queued or parked read of `slot` (it predates a new
    /// write, so its data is stale). Blocks only while an in-flight read
    /// of that slot finishes.
    fn discard_reads_to(&mut self, slot: usize) -> Result<()> {
        let Some(lanes) = self.lanes.as_mut() else {
            return Ok(());
        };
        lanes.parked_reads.retain(|r| r.slot != slot);
        while lanes.pending_reads.contains(&slot) {
            let done = lanes
                .read_rx
                .recv()
                .map_err(|_| StorageError::StreamerGone)?;
            if let Some(pos) = lanes.pending_reads.iter().position(|&s| s == done.slot) {
                lanes.pending_reads.remove(pos);
            }
            if done.slot != slot {
                lanes.parked_reads.push(done);
            }
            // A stale read of `slot` (data or error) is dropped silently:
            // the caller is about to overwrite the slot anyway.
        }
        Ok(())
    }

    /// Schedules a background read of `slot` (no-op in synchronous mode;
    /// the later [`SpillPipeline::fetch`] does the work inline).
    pub fn prefetch(&mut self, slot: usize) -> Result<()> {
        if self.lanes.is_none() {
            return Ok(());
        }
        self.flush_writes_to(slot)?;
        let lanes = self.lanes.as_mut().expect("overlapped lanes");
        if lanes.pending_reads.contains(&slot) || lanes.parked_reads.iter().any(|r| r.slot == slot)
        {
            return Ok(());
        }
        lanes
            .read_tx
            .as_ref()
            .expect("reader lane open")
            .send(slot)
            .map_err(|_| StorageError::StreamerGone)?;
        lanes.pending_reads.push_back(slot);
        Ok(())
    }

    /// Returns the payload stored in `slot`: inline when synchronous,
    /// otherwise waiting for (or issuing) its read on the reader lane.
    /// Also the point where a prior background write error surfaces.
    fn read(&mut self, slot: usize) -> Result<Payload> {
        if self.lanes.is_none() {
            let wait = Instant::now();
            let out = self.file().read(slot);
            self.wait_micros += wait.elapsed().as_micros() as u64;
            if out.is_ok() {
                self.reads += 1;
            }
            return out;
        }
        self.prefetch(slot)?;
        if let Some(e) = self.sticky_error() {
            return Err(e);
        }
        let lanes = self.lanes.as_mut().expect("overlapped lanes");
        let wait = Instant::now();
        let done = loop {
            if let Some(pos) = lanes.parked_reads.iter().position(|r| r.slot == slot) {
                break lanes.parked_reads.swap_remove(pos);
            }
            let done = lanes
                .read_rx
                .recv()
                .map_err(|_| StorageError::StreamerGone)?;
            if let Some(pos) = lanes.pending_reads.iter().position(|&s| s == done.slot) {
                lanes.pending_reads.remove(pos);
            }
            if done.slot == slot {
                break done;
            }
            lanes.parked_reads.push(done);
        };
        self.wait_micros += wait.elapsed().as_micros() as u64;
        if done.payload.is_ok() {
            self.reads += 1;
        }
        done.payload
    }

    /// Returns the tensor stored in `slot`, decoded on the caller's
    /// thread.
    pub fn fetch(&mut self, slot: usize) -> Result<Tensor> {
        self.read(slot)?.decode()
    }

    /// Compacts `slot` to `rows` (by index, in order) in the file's own
    /// encoding: waits for the slot's read, gathers the rows and queues
    /// the write — no decode, no re-encode. A checksum mismatch on the
    /// read quarantines the slot and comes back as
    /// [`StorageError::ChecksumMismatch`]; the caller then writes the
    /// recomputed rows with [`SpillPipeline::write_back`].
    pub fn retain_rows(&mut self, slot: usize, rows: &[usize]) -> Result<()> {
        let kept = self.read(slot)?.gather_rows(rows)?;
        self.write(slot, kept)
    }

    /// Writes `tensor` back into `slot`, encoded at the file's precision
    /// on the caller's thread — queued on the writer lane when
    /// overlapped, inline otherwise.
    pub fn write_back(&mut self, slot: usize, tensor: Tensor) -> Result<()> {
        let payload = Payload::encode(self.file().precision(), tensor)?;
        self.write(slot, payload)
    }

    fn write(&mut self, slot: usize, payload: Payload) -> Result<()> {
        if self.lanes.is_none() {
            let wait = Instant::now();
            let out = self.file().write(slot, &payload).map(|_| ());
            self.wait_micros += wait.elapsed().as_micros() as u64;
            if out.is_ok() {
                self.writes += 1;
            }
            return out;
        }
        // A read issued before this write would observe stale data; drop
        // it so only post-write fetches resolve.
        self.discard_reads_to(slot)?;
        let bytes = payload.size_bytes();
        let lanes = self.lanes.as_mut().expect("overlapped lanes");
        lanes
            .write_tx
            .as_ref()
            .expect("writer lane open")
            .send(WriteJob { slot, payload })
            .map_err(|_| StorageError::StreamerGone)?;
        lanes.pending_writes.push_back((slot, bytes));
        self.writes += 1;
        self.drain_write_acks();
        Ok(())
    }

    /// Marks `slot` empty, after flushing any outstanding write to it.
    pub fn release(&mut self, slot: usize) -> Result<()> {
        self.flush_writes_to(slot)?;
        self.file().release(slot);
        Ok(())
    }

    /// Waits for every outstanding read and write; surfaces the first
    /// deferred error.
    pub fn drain(&mut self) -> Result<()> {
        if let Some(lanes) = self.lanes.as_mut() {
            let wait = Instant::now();
            while !lanes.pending_reads.is_empty() {
                let done = lanes
                    .read_rx
                    .recv()
                    .map_err(|_| StorageError::StreamerGone)?;
                if let Some(pos) = lanes.pending_reads.iter().position(|&s| s == done.slot) {
                    lanes.pending_reads.remove(pos);
                }
                if let Err(e) = done.payload {
                    self.sticky
                        .get_or_insert_with(|| format!("prefetch of slot {}: {e}", done.slot));
                }
            }
            lanes.parked_reads.clear();
            while !lanes.pending_writes.is_empty() {
                let done = lanes
                    .write_rx
                    .recv()
                    .map_err(|_| StorageError::StreamerGone)?;
                Self::note_write_done(&mut self.sticky, lanes, &done);
            }
            self.wait_micros += wait.elapsed().as_micros() as u64;
        }
        match self.sticky_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Statistics so far (bytes/io from the shared file counters, wait
    /// time from the consumer side).
    pub fn stats(&self) -> SpillStats {
        let file = self.file();
        SpillStats {
            reads: self.reads,
            writes: self.writes,
            bytes_read: file.bytes_read(),
            bytes_written: file.bytes_written(),
            io_micros: file.read_micros() + file.write_micros(),
            wait_micros: self.wait_micros,
            quarantined: file.quarantined(),
        }
    }

    /// In-memory bytes of payloads currently held by the background
    /// lanes: queued/in-flight write-backs plus read results parked on
    /// the consumer side. Results sitting unobserved in the reader's
    /// done channel (at most the lane depth) are not visible here; the
    /// engine folds this into its hidden-state metering so the §4.3
    /// peak includes what the pipeline keeps alive.
    pub fn held_bytes(&self) -> u64 {
        let Some(lanes) = self.lanes.as_ref() else {
            return 0;
        };
        let writes: u64 = lanes.pending_writes.iter().map(|&(_, b)| b).sum();
        let parked: u64 = lanes
            .parked_reads
            .iter()
            .filter_map(|r| r.payload.as_ref().ok().map(Payload::size_bytes))
            .sum();
        writes + parked
    }

    fn shutdown_lanes(&mut self) {
        let Some(mut lanes) = self.lanes.take() else {
            return;
        };
        // Closing the job senders ends both lane loops; drain their done
        // channels so a lane blocked on a full channel can exit its send.
        lanes.read_tx = None;
        lanes.write_tx = None;
        while lanes.read_rx.try_recv().is_ok() {}
        while lanes.write_rx.try_recv().is_ok() {}
        if let Some(h) = lanes.reader.take() {
            while !h.is_finished() {
                while lanes.read_rx.try_recv().is_ok() {}
                std::thread::yield_now();
            }
            let _ = h.join();
        }
        if let Some(h) = lanes.writer.take() {
            while !h.is_finished() {
                while lanes.write_rx.try_recv().is_ok() {}
                std::thread::yield_now();
            }
            let _ = h.join();
        }
    }

    /// Stops the lanes (draining in-flight work) and deletes the backing
    /// file. An abort path: pending I/O errors are reported after the
    /// file is gone, so a failing request can never leak its spill file.
    pub fn cleanup(mut self) -> Result<()> {
        let drained = self.drain();
        self.shutdown_lanes();
        let file = self.file.take().expect("live spill file");
        let removed = match Arc::try_unwrap(file) {
            Ok(file) => file.cleanup(),
            Err(_) => Err(StorageError::StreamerGone),
        };
        drained.and(removed)
    }
}

impl Drop for SpillPipeline {
    fn drop(&mut self) {
        self.shutdown_lanes();
        if let Some(file) = self.file.take() {
            if let Ok(file) = Arc::try_unwrap(file).map_err(|_| ()) {
                let _ = file.cleanup();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpillPrecision, Throttle};
    use prism_tensor::igemm::RowQuantBlock;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("prism-spillpipe-{}-{}", std::process::id(), name));
        p
    }

    fn file(name: &str, precision: SpillPrecision, throttle: Throttle) -> (SpillFile, PathBuf) {
        let path = tmp(name);
        let f = SpillFile::create(&path, 6, 8, 16, precision, throttle).unwrap();
        (f, path)
    }

    fn tensor(seed: usize) -> Tensor {
        Tensor::from_fn(8, 16, |r, c| ((r * 16 + c + seed) as f32 * 0.17).sin())
    }

    #[test]
    fn overlapped_matches_synchronous_results() {
        for precision in [SpillPrecision::F32, SpillPrecision::Int8] {
            let (f_sync, p_sync) = file("sync", precision, Throttle::unlimited());
            let mut sync = SpillPipeline::synchronous(f_sync);
            let (f_over, p_over) = file("over", precision, Throttle::unlimited());
            let mut over = SpillPipeline::overlapped(f_over).unwrap();
            assert!(over.is_overlapped() && !sync.is_overlapped());

            for slot in 0..4 {
                sync.write_back(slot, tensor(slot)).unwrap();
                over.write_back(slot, tensor(slot)).unwrap();
            }
            over.prefetch(0).unwrap();
            for slot in 0..4 {
                if slot + 1 < 4 {
                    over.prefetch(slot + 1).unwrap();
                }
                let a = sync.fetch(slot).unwrap();
                let b = over.fetch(slot).unwrap();
                assert_eq!(a, b, "slot {slot} diverged ({precision:?})");
            }
            over.drain().unwrap();
            sync.cleanup().unwrap();
            over.cleanup().unwrap();
            assert!(!p_sync.exists() && !p_over.exists());
        }
    }

    #[test]
    fn block_write_back_holds_fewer_bytes_than_f32() {
        let (f, path) = file(
            "blockheld",
            SpillPrecision::Int8,
            Throttle::bandwidth(1 << 20),
        );
        let mut pipe = SpillPipeline::overlapped(f).unwrap();
        let t = tensor(3);
        let block_bytes = RowQuantBlock::encode(&t).unwrap().size_bytes() as u64;
        // An int8 file's write-back is encoded before it is queued, so
        // the lane holds the block, not the tensor.
        pipe.write_back(0, t.clone()).unwrap();
        let held = pipe.held_bytes();
        assert!(held <= block_bytes, "held {held} > block {block_bytes}");
        // 16-col rows make the per-row affine overhead visible; even so
        // the codes stay well under half the f32 footprint.
        assert!(block_bytes * 2 < t.size_bytes() as u64);
        pipe.drain().unwrap();
        pipe.cleanup().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn write_then_fetch_same_slot_is_ordered() {
        let (f, path) = file("order", SpillPrecision::F32, Throttle::bandwidth(4 << 20));
        let mut pipe = SpillPipeline::overlapped(f).unwrap();
        for round in 0..3 {
            let t = tensor(round * 10);
            pipe.write_back(2, t.clone()).unwrap();
            // Immediate fetch must observe the just-queued write.
            assert_eq!(pipe.fetch(2).unwrap(), t, "round {round}");
        }
        pipe.cleanup().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn overlap_hides_io_under_compute() {
        // 2 MB/s: each ~0.5 KiB f32 slot costs ~250 us of paced I/O.
        let (f, path) = file("hide", SpillPrecision::F32, Throttle::bandwidth(2 << 20));
        let mut pipe = SpillPipeline::overlapped(f).unwrap();
        for slot in 0..6 {
            pipe.write_back(slot, tensor(slot)).unwrap();
        }
        pipe.drain().unwrap();
        pipe.prefetch(0).unwrap();
        for slot in 0..6 {
            let t = pipe.fetch(slot).unwrap();
            if slot + 1 < 6 {
                pipe.prefetch(slot + 1).unwrap();
            }
            // "Compute" longer than one slot's I/O.
            let start = Instant::now();
            while start.elapsed() < std::time::Duration::from_micros(400) {
                std::hint::black_box(t.data().iter().sum::<f32>());
            }
            pipe.write_back(slot, t).unwrap();
        }
        pipe.drain().unwrap();
        let stats = pipe.stats();
        assert!(
            stats.overlap_efficiency() > 0.3,
            "overlap too low: {stats:?}"
        );
        assert!(stats.bytes() > 0);
        pipe.cleanup().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn write_back_invalidates_earlier_prefetch() {
        let (f, path) = file("stale", SpillPrecision::F32, Throttle::unlimited());
        let mut pipe = SpillPipeline::overlapped(f).unwrap();
        let old = tensor(1);
        let new = tensor(2);
        pipe.write_back(3, old).unwrap();
        pipe.drain().unwrap();
        // Prefetch the old contents (parked or in flight), then
        // overwrite: the fetch must observe the write, not the stale
        // prefetched tensor.
        pipe.prefetch(3).unwrap();
        pipe.write_back(3, new.clone()).unwrap();
        assert_eq!(pipe.fetch(3).unwrap(), new);
        pipe.cleanup().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn release_after_pending_write_is_flushed() {
        let (f, path) = file("rel", SpillPrecision::Int8, Throttle::bandwidth(8 << 20));
        let mut pipe = SpillPipeline::overlapped(f).unwrap();
        pipe.write_back(1, tensor(1)).unwrap();
        pipe.release(1).unwrap();
        assert!(pipe.fetch(1).is_err(), "released slot must be empty");
        pipe.cleanup().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn drop_mid_flight_removes_file() {
        let (f, path) = file("drop", SpillPrecision::Int8, Throttle::bandwidth(2 << 20));
        let mut pipe = SpillPipeline::overlapped(f).unwrap();
        for slot in 0..6 {
            pipe.write_back(slot, tensor(slot)).unwrap();
        }
        pipe.prefetch(0).unwrap();
        drop(pipe); // Must join lanes and delete the file without deadlock.
        assert!(!path.exists());
    }

    #[test]
    fn stats_overlap_edge_cases() {
        let empty = SpillStats::default();
        assert_eq!(empty.overlap_efficiency(), 1.0);
        let none_hidden = SpillStats {
            io_micros: 100,
            wait_micros: 100,
            ..Default::default()
        };
        assert_eq!(none_hidden.overlap_efficiency(), 0.0);
        let over = SpillStats {
            io_micros: 50,
            wait_micros: 80,
            ..Default::default()
        };
        assert_eq!(over.overlap_efficiency(), 0.0);
    }
}

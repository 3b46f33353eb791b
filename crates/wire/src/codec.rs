//! The PRISM wire format: length-prefixed binary frames.
//!
//! ```text
//!  [u32 len LE][u8 msg_type][payload ...]
//!   └── len = 1 + payload bytes, bounded by MAX_FRAME ──┘
//! ```
//!
//! Design rules, enforced here and locked in by the robustness
//! proptests (`tests/wire_codec_props.rs`):
//!
//! * **Typed failures, never panics.** Every malformed input — truncated
//!   frame, unknown message type, oversized length, corrupt payload —
//!   decodes to the matching [`WireError`] variant. No `unwrap` on wire
//!   bytes.
//! * **No over-allocation.** Every count read from the wire is validated
//!   against the bytes actually present *before* any buffer is sized
//!   from it, so a hostile 4-byte header cannot make the server reserve
//!   gigabytes.
//! * **Bit-exact scores.** `f32` scores travel as their IEEE-754 bit
//!   patterns, so a selection read off the wire compares bit-identical
//!   to the server-side computation — the property the loopback
//!   conformance suite pins.

use std::io::{Read, Write};

use prism_api::{Progress, SelectionOutcome, ServiceError};
use prism_core::{
    ComputePrecision, EngineTrace, PruneMode, RankedCandidate, RequestOptions, Selection,
    SemCacheMode, SpillPrecision,
};
use prism_model::SequenceBatch;

/// Protocol version carried in the `Hello` handshake.
///
/// Version history: 1 = initial protocol; 2 = `Submit` options grew the
/// trailing semantic-result-cache mode byte (`SemCacheMode`); 3 =
/// `Submit` options grew the degraded-mode byte and `Result` outcomes
/// carry the selection's coverage fraction; 4 = the degraded-mode byte
/// and the coverage fraction are gone again (one engine serves every
/// request, so every selection is complete), and error tag 7 (the shard
/// failure) is unassigned and decodes as corrupt; 5 = `Submit` options
/// lost the priority byte (the coalescing window is FIFO), and error
/// tag 6 (the per-tenant quota rejection) is unassigned and decodes as
/// corrupt.
pub const WIRE_VERSION: u32 = 5;

/// Hard ceiling on one frame's byte length (type byte + payload). Large
/// enough for a maximal candidate batch, small enough that a hostile
/// length prefix cannot balloon server memory.
pub const MAX_FRAME: usize = 16 << 20;

/// Everything that can go wrong reading or writing frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The frame (or a field inside it) ended before its declared
    /// length.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`] (or is zero).
    Oversized {
        /// The offending declared length.
        len: u64,
    },
    /// The message-type byte is not part of the protocol.
    UnknownType(u8),
    /// The payload violates the format (bad UTF-8, bad enum tag,
    /// trailing bytes, inconsistent counts).
    Corrupt(String),
    /// Transport-level I/O failure.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized { len } => {
                write!(f, "frame length {len} outside (0, {MAX_FRAME}]")
            }
            WireError::UnknownType(t) => write!(f, "unknown message type 0x{t:02x}"),
            WireError::Corrupt(why) => write!(f, "corrupt payload: {why}"),
            WireError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// One protocol message (either direction).
#[derive(Debug, Clone)]
pub enum Message {
    /// Client → server: opens a session.
    Hello {
        /// Protocol version ([`WIRE_VERSION`]).
        version: u32,
        /// Session key submissions run under.
        session: String,
    },
    /// Client → server: submits one selection request.
    Submit {
        /// Client-assigned correlation id (unique per connection).
        request_id: u64,
        /// Per-request selection parameters.
        options: RequestOptions,
        /// The candidate batch.
        batch: SequenceBatch,
    },
    /// Client → server: requests cancellation of an in-flight submit.
    Cancel {
        /// The submit's correlation id.
        request_id: u64,
    },
    /// Client → server: liveness probe.
    Ping {
        /// Echo payload.
        nonce: u64,
    },
    /// Server → client: handshake acknowledgement.
    HelloAck {
        /// Server protocol version.
        version: u32,
    },
    /// Server → client: the submit was admitted.
    Accepted {
        /// The submit's correlation id.
        request_id: u64,
        /// Server-assigned submission ticket.
        ticket: u64,
    },
    /// Server → client: layer-granularity progress of an in-flight
    /// request.
    Progress {
        /// The submit's correlation id.
        request_id: u64,
        /// Aggregated progress snapshot.
        progress: Progress,
    },
    /// Server → client: the request finished with a selection.
    Result {
        /// The submit's correlation id.
        request_id: u64,
        /// The outcome (scores bit-exact).
        outcome: Box<SelectionOutcome>,
    },
    /// Server → client: the request failed with a typed service error.
    /// `request_id == 0` signals a connection-level failure.
    Error {
        /// The submit's correlation id (0 = connection-level).
        request_id: u64,
        /// The typed error.
        error: ServiceError,
    },
    /// Server → client: answer to [`Message::Ping`].
    Pong {
        /// Echoed payload.
        nonce: u64,
    },
}

const T_HELLO: u8 = 0x01;
const T_SUBMIT: u8 = 0x02;
const T_CANCEL: u8 = 0x03;
const T_PING: u8 = 0x04;
const T_HELLO_ACK: u8 = 0x81;
const T_ACCEPTED: u8 = 0x82;
const T_PROGRESS: u8 = 0x83;
const T_RESULT: u8 = 0x84;
const T_ERROR: u8 = 0x85;
const T_PONG: u8 = 0x86;

// ---------------------------------------------------------------- encode

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32_bits(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }
    fn opt_f32(&mut self, v: Option<f32>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f32_bits(x);
            }
            None => self.u8(0),
        }
    }

    fn options(&mut self, o: &RequestOptions) {
        self.u32(o.k as u32);
        self.opt_u64(o.tag);
        self.opt_f32(o.dispersion_threshold);
        match o.mode {
            None => self.u8(0),
            Some(PruneMode::TopKOnly) => self.u8(1),
            Some(PruneMode::ExactOrder) => self.u8(2),
        }
        match o.pruning {
            None => self.u8(0),
            Some(false) => self.u8(1),
            Some(true) => self.u8(2),
        }
        self.opt_u64(o.deadline_us);
        self.u8(match o.spill_precision {
            SpillPrecision::Int8 => 0,
            SpillPrecision::F32 => 1,
        });
        self.u8(match o.compute_precision {
            ComputePrecision::F32 => 0,
            ComputePrecision::Int8 => 1,
        });
        self.u8(match o.semcache {
            SemCacheMode::Off => 0,
            SemCacheMode::VerifyAndFallback => 1,
            SemCacheMode::Aggressive => 2,
        });
    }

    fn batch(&mut self, b: &SequenceBatch) {
        self.u32(b.num_sequences() as u32);
        for i in 0..b.num_sequences() {
            let seq = b.sequence(i);
            self.u32(seq.len() as u32);
            for &t in seq {
                self.u32(t);
            }
        }
    }

    fn outcome(&mut self, o: &SelectionOutcome) {
        self.u64(o.ticket);
        self.u64(o.queued_us);
        self.u64(o.service_us);
        self.u32(o.batch_size as u32);
        self.bool(o.served_from_cache);
        let sel = &o.selection;
        self.u32(sel.ranked.len() as u32);
        for r in &sel.ranked {
            self.u64(r.id as u64);
            self.f32_bits(r.score);
            self.u32(r.decided_at_layer as u32);
        }
        self.u32(sel.last_scores.len() as u32);
        for &s in &sel.last_scores {
            self.f32_bits(s);
        }
        // Trace summary: the routing events and score trace are
        // server-side diagnostics; the wire carries the conformance
        // surface (ranked + last_scores, both bit-exact) plus the cheap
        // execution counters.
        self.u32(sel.trace.active_per_layer.len() as u32);
        for &a in &sel.trace.active_per_layer {
            self.u32(a as u32);
        }
        self.u32(sel.trace.executed_layers as u32);
        self.u64(sel.trace.spill_bytes);
    }

    fn error(&mut self, e: &ServiceError) {
        match e {
            ServiceError::Backpressure {
                capacity,
                queue_depth,
                retry_after,
            } => {
                self.u8(1);
                self.u32(*capacity as u32);
                self.u32(*queue_depth as u32);
                self.u64(retry_after.as_micros() as u64);
            }
            ServiceError::DeadlineExceeded => self.u8(2),
            ServiceError::Cancelled => self.u8(3),
            ServiceError::ShuttingDown => self.u8(4),
            ServiceError::Disconnected => self.u8(5),
            ServiceError::Engine(s) => {
                self.u8(8);
                self.string(s);
            }
            ServiceError::Config(s) => {
                self.u8(9);
                self.string(s);
            }
        }
    }
}

/// Encodes a message to its frame body: `[u8 msg_type][payload]` (the
/// length prefix is added by [`write_frame`]).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    match msg {
        Message::Hello { version, session } => {
            e.u8(T_HELLO);
            e.u32(*version);
            e.string(session);
        }
        Message::Submit {
            request_id,
            options,
            batch,
        } => {
            e.u8(T_SUBMIT);
            e.u64(*request_id);
            e.options(options);
            e.batch(batch);
        }
        Message::Cancel { request_id } => {
            e.u8(T_CANCEL);
            e.u64(*request_id);
        }
        Message::Ping { nonce } => {
            e.u8(T_PING);
            e.u64(*nonce);
        }
        Message::HelloAck { version } => {
            e.u8(T_HELLO_ACK);
            e.u32(*version);
        }
        Message::Accepted { request_id, ticket } => {
            e.u8(T_ACCEPTED);
            e.u64(*request_id);
            e.u64(*ticket);
        }
        Message::Progress {
            request_id,
            progress,
        } => {
            e.u8(T_PROGRESS);
            e.u64(*request_id);
            e.u32(progress.layers_gated as u32);
            e.u32(progress.layers_forwarded as u32);
            e.u32(progress.candidates_active as u32);
            e.u32(progress.candidates_accepted as u32);
            e.u32(progress.candidates_pruned as u32);
        }
        Message::Result {
            request_id,
            outcome,
        } => {
            e.u8(T_RESULT);
            e.u64(*request_id);
            e.outcome(outcome);
        }
        Message::Error { request_id, error } => {
            e.u8(T_ERROR);
            e.u64(*request_id);
            e.error(error);
        }
        Message::Pong { nonce } => {
            e.u8(T_PONG);
            e.u64(*nonce);
        }
    }
    e.buf
}

// ---------------------------------------------------------------- decode

struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn f32_bits(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::Corrupt(format!("bool tag {v}"))),
        }
    }
    /// A count whose elements each occupy at least `elem_bytes` on the
    /// wire: validated against the bytes actually present before any
    /// allocation is sized from it.
    fn count(&mut self, elem_bytes: usize, what: &str) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(WireError::Corrupt(format!(
                "{what} count {n} exceeds frame ({} bytes left)",
                self.remaining()
            )));
        }
        Ok(n)
    }
    fn string(&mut self) -> Result<String, WireError> {
        let n = self.count(1, "string")?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Corrupt("string not UTF-8".into()))
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            v => Err(WireError::Corrupt(format!("option tag {v}"))),
        }
    }
    fn opt_f32(&mut self) -> Result<Option<f32>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f32_bits()?)),
            v => Err(WireError::Corrupt(format!("option tag {v}"))),
        }
    }

    fn options(&mut self) -> Result<RequestOptions, WireError> {
        let k = self.u32()? as usize;
        if k == 0 {
            return Err(WireError::Corrupt("k must be >= 1".into()));
        }
        let tag = self.opt_u64()?;
        let dispersion_threshold = self.opt_f32()?;
        let mode = match self.u8()? {
            0 => None,
            1 => Some(PruneMode::TopKOnly),
            2 => Some(PruneMode::ExactOrder),
            v => return Err(WireError::Corrupt(format!("mode tag {v}"))),
        };
        let pruning = match self.u8()? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            v => return Err(WireError::Corrupt(format!("pruning tag {v}"))),
        };
        let deadline_us = self.opt_u64()?;
        let spill_precision = match self.u8()? {
            0 => SpillPrecision::Int8,
            1 => SpillPrecision::F32,
            v => return Err(WireError::Corrupt(format!("spill tag {v}"))),
        };
        let compute_precision = match self.u8()? {
            0 => ComputePrecision::F32,
            1 => ComputePrecision::Int8,
            v => return Err(WireError::Corrupt(format!("compute tag {v}"))),
        };
        let semcache = match self.u8()? {
            0 => SemCacheMode::Off,
            1 => SemCacheMode::VerifyAndFallback,
            2 => SemCacheMode::Aggressive,
            v => return Err(WireError::Corrupt(format!("semcache tag {v}"))),
        };
        Ok(RequestOptions {
            k,
            tag,
            dispersion_threshold,
            mode,
            pruning,
            deadline_us,
            spill_precision,
            compute_precision,
            semcache,
        })
    }

    fn batch(&mut self) -> Result<SequenceBatch, WireError> {
        // Each sequence costs at least 4 bytes (its length prefix) plus
        // 4 per token — both counts bounded by the frame before any Vec
        // is reserved.
        let n = self.count(4, "sequence")?;
        let mut sequences = Vec::with_capacity(n);
        for _ in 0..n {
            let len = self.count(4, "token")?;
            let bytes = self.take(len * 4)?;
            let mut seq = Vec::with_capacity(len);
            for c in bytes.chunks_exact(4) {
                seq.push(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
            }
            sequences.push(seq);
        }
        SequenceBatch::new(&sequences).map_err(|e| WireError::Corrupt(format!("batch: {e}")))
    }

    fn outcome(&mut self) -> Result<SelectionOutcome, WireError> {
        let ticket = self.u64()?;
        let queued_us = self.u64()?;
        let service_us = self.u64()?;
        let batch_size = self.u32()? as usize;
        let served_from_cache = self.bool()?;
        let n_ranked = self.count(16, "ranked")?;
        let mut ranked = Vec::with_capacity(n_ranked);
        for _ in 0..n_ranked {
            let id = self.u64()? as usize;
            let score = self.f32_bits()?;
            let decided_at_layer = self.u32()? as usize;
            ranked.push(RankedCandidate {
                id,
                score,
                decided_at_layer,
            });
        }
        let n_scores = self.count(4, "score")?;
        let mut last_scores = Vec::with_capacity(n_scores);
        for _ in 0..n_scores {
            last_scores.push(self.f32_bits()?);
        }
        let n_active = self.count(4, "active-per-layer")?;
        let mut active_per_layer = Vec::with_capacity(n_active);
        for _ in 0..n_active {
            active_per_layer.push(self.u32()? as usize);
        }
        let executed_layers = self.u32()? as usize;
        let spill_bytes = self.u64()?;
        let trace = EngineTrace {
            active_per_layer,
            executed_layers,
            spill_bytes,
            ..Default::default()
        };
        Ok(SelectionOutcome {
            selection: Selection {
                ranked,
                last_scores,
                trace,
            },
            ticket,
            queued_us,
            service_us,
            batch_size,
            served_from_cache,
        })
    }

    fn error(&mut self) -> Result<ServiceError, WireError> {
        Ok(match self.u8()? {
            1 => ServiceError::Backpressure {
                capacity: self.u32()? as usize,
                queue_depth: self.u32()? as usize,
                retry_after: std::time::Duration::from_micros(self.u64()?),
            },
            2 => ServiceError::DeadlineExceeded,
            3 => ServiceError::Cancelled,
            4 => ServiceError::ShuttingDown,
            5 => ServiceError::Disconnected,
            8 => ServiceError::Engine(self.string()?),
            9 => ServiceError::Config(self.string()?),
            v => return Err(WireError::Corrupt(format!("error tag {v}"))),
        })
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Corrupt(format!(
                "{} trailing bytes",
                self.buf.len()
            )))
        }
    }
}

/// Decodes one frame body (`[u8 msg_type][payload]`) into a message.
/// Total function of the input bytes: malformed input returns the
/// matching [`WireError`], never panics, never over-allocates.
pub fn decode_message(body: &[u8]) -> Result<Message, WireError> {
    let mut d = Dec { buf: body };
    let msg_type = d.u8()?;
    let msg = match msg_type {
        T_HELLO => Message::Hello {
            version: d.u32()?,
            session: d.string()?,
        },
        T_SUBMIT => Message::Submit {
            request_id: d.u64()?,
            options: d.options()?,
            batch: d.batch()?,
        },
        T_CANCEL => Message::Cancel {
            request_id: d.u64()?,
        },
        T_PING => Message::Ping { nonce: d.u64()? },
        T_HELLO_ACK => Message::HelloAck { version: d.u32()? },
        T_ACCEPTED => Message::Accepted {
            request_id: d.u64()?,
            ticket: d.u64()?,
        },
        T_PROGRESS => Message::Progress {
            request_id: d.u64()?,
            progress: Progress {
                layers_gated: d.u32()? as usize,
                layers_forwarded: d.u32()? as usize,
                candidates_active: d.u32()? as usize,
                candidates_accepted: d.u32()? as usize,
                candidates_pruned: d.u32()? as usize,
            },
        },
        T_RESULT => Message::Result {
            request_id: d.u64()?,
            outcome: Box::new(d.outcome()?),
        },
        T_ERROR => Message::Error {
            request_id: d.u64()?,
            error: d.error()?,
        },
        T_PONG => Message::Pong { nonce: d.u64()? },
        t => return Err(WireError::UnknownType(t)),
    };
    d.finish()?;
    Ok(msg)
}

/// Writes one framed message: `[u32 len LE]` + body.
pub fn write_frame(w: &mut impl Write, msg: &Message) -> Result<(), WireError> {
    let body = encode_message(msg);
    if body.len() > MAX_FRAME {
        return Err(WireError::Oversized {
            len: body.len() as u64,
        });
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(())
}

/// Reads one framed message. [`WireError::Closed`] means the peer hung
/// up cleanly at a frame boundary; EOF *inside* a frame is
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Message, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(WireError::Oversized { len: len as u64 });
    }
    let mut body = vec![0u8; len];
    if let Err(e) = r.read_exact(&mut body) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            e.into()
        });
    }
    decode_message(&body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        read_frame(&mut &buf[..]).unwrap()
    }

    #[test]
    fn submit_round_trips_options_and_batch() {
        let batch = SequenceBatch::new(&[vec![1, 2, 3], vec![9]]).unwrap();
        let options = RequestOptions {
            k: 3,
            tag: Some(42),
            dispersion_threshold: Some(0.25),
            mode: Some(PruneMode::ExactOrder),
            pruning: Some(false),
            deadline_us: Some(5_000),
            spill_precision: SpillPrecision::F32,
            compute_precision: ComputePrecision::Int8,
            semcache: SemCacheMode::VerifyAndFallback,
        };
        let got = round_trip(&Message::Submit {
            request_id: 7,
            options: options.clone(),
            batch: batch.clone(),
        });
        match got {
            Message::Submit {
                request_id,
                options: o,
                batch: b,
            } => {
                assert_eq!(request_id, 7);
                assert_eq!(o, options);
                assert_eq!(b.num_sequences(), 2);
                assert_eq!(b.sequence(0), &[1, 2, 3]);
                assert_eq!(b.sequence(1), &[9]);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn result_scores_bit_exact() {
        let outcome = SelectionOutcome {
            selection: Selection {
                ranked: vec![RankedCandidate {
                    id: 3,
                    score: 0.1 + 0.2, // deliberately non-representable
                    decided_at_layer: 4,
                }],
                last_scores: vec![f32::MIN_POSITIVE, -0.0, 3.25],
                trace: EngineTrace {
                    active_per_layer: vec![5, 3, 1],
                    executed_layers: 3,
                    spill_bytes: 77,
                    ..Default::default()
                },
            },
            ticket: 9,
            queued_us: 10,
            service_us: 20,
            batch_size: 4,
            served_from_cache: false,
        };
        let got = round_trip(&Message::Result {
            request_id: 1,
            outcome: Box::new(outcome.clone()),
        });
        match got {
            Message::Result { outcome: o, .. } => {
                assert_eq!(o.selection.ranked.len(), 1);
                assert_eq!(
                    o.selection.ranked[0].score.to_bits(),
                    outcome.selection.ranked[0].score.to_bits()
                );
                let got_bits: Vec<u32> = o
                    .selection
                    .last_scores
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                let want_bits: Vec<u32> = outcome
                    .selection
                    .last_scores
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                assert_eq!(got_bits, want_bits);
                assert_eq!(o.selection.trace.active_per_layer, vec![5, 3, 1]);
                assert_eq!(o.selection.trace.spill_bytes, 77);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn truncated_and_oversized_are_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Ping { nonce: 5 }).unwrap();
        // Cut mid-payload: typed Truncated, not a panic.
        assert!(matches!(
            read_frame(&mut &buf[..buf.len() - 3]),
            Err(WireError::Truncated)
        ));
        // Cut mid-header.
        assert!(matches!(
            read_frame(&mut &buf[..2]),
            Err(WireError::Truncated)
        ));
        // Clean EOF at the boundary.
        assert!(matches!(read_frame(&mut &buf[..0]), Err(WireError::Closed)));
        // Hostile length prefix.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn unknown_type_and_trailing_bytes_are_typed() {
        assert!(matches!(
            decode_message(&[0x7f]),
            Err(WireError::UnknownType(0x7f))
        ));
        let mut body = encode_message(&Message::Cancel { request_id: 1 });
        body.push(0);
        assert!(matches!(decode_message(&body), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A Submit claiming u32::MAX sequences in a tiny frame must be
        // rejected by the count-vs-remaining check, not attempted.
        let mut e = Enc { buf: Vec::new() };
        e.options(&RequestOptions::top_k(1));
        let mut body = vec![T_SUBMIT];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&e.buf);
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // sequence count
        assert!(matches!(decode_message(&body), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn service_errors_round_trip() {
        for err in [
            ServiceError::Backpressure {
                capacity: 8,
                queue_depth: 8,
                retry_after: std::time::Duration::from_micros(1234),
            },
            ServiceError::DeadlineExceeded,
            ServiceError::Cancelled,
            ServiceError::ShuttingDown,
            ServiceError::Disconnected,
            ServiceError::Engine("boom".into()),
            ServiceError::Config("bad".into()),
        ] {
            let got = round_trip(&Message::Error {
                request_id: 3,
                error: err.clone(),
            });
            match got {
                Message::Error { error, .. } => {
                    assert_eq!(format!("{error:?}"), format!("{err:?}"))
                }
                other => panic!("wrong message: {other:?}"),
            }
        }
        // Tags 6 (the tenant quota of protocol 4) and 7 (the shard
        // failure of protocol 3) are unassigned.
        let mut body = encode_message(&Message::Error {
            request_id: 3,
            error: ServiceError::Engine("boom".into()),
        });
        assert_eq!(body[9], 8, "engine error tag");
        for tag in [6, 7] {
            body[9] = tag;
            assert!(matches!(decode_message(&body), Err(WireError::Corrupt(_))));
        }
    }
}

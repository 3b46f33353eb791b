//! Frame-codec robustness properties: every message round-trips to
//! byte-identical encodings, and no mutation of the byte stream —
//! truncation, corruption, arbitrary garbage — can make the decoder
//! panic or produce anything but a typed [`WireError`].

use prism_api::{Progress, SelectionOutcome, ServiceError};
use prism_core::{
    EngineTrace, PruneMode, RankedCandidate, RequestOptions, Selection, SemCacheMode,
    SpillPrecision,
};
use prism_model::SequenceBatch;
use prism_wire::{decode_message, encode_message, read_frame, write_frame, Message, WireError};
use proptest::prelude::*;

/// Deterministically builds one message of every wire type from sampled
/// primitives. `kind` picks the variant; the other inputs fill it.
fn build_message(
    kind: usize,
    id: u64,
    small: u32,
    bits: &[u32],
    seqs: &[Vec<u32>],
    text: &'static str,
) -> Message {
    let options = RequestOptions {
        k: (small as usize % 8) + 1,
        tag: (small.is_multiple_of(2)).then_some(id),
        dispersion_threshold: (small.is_multiple_of(3))
            .then(|| f32::from_bits(bits.first().copied().unwrap_or(0x3e80_0000))),
        mode: match small % 3 {
            0 => None,
            1 => Some(PruneMode::TopKOnly),
            _ => Some(PruneMode::ExactOrder),
        },
        pruning: match small % 3 {
            0 => None,
            1 => Some(false),
            _ => Some(true),
        },
        deadline_us: (small.is_multiple_of(5)).then_some(id % 1_000_000),
        spill_precision: if small.is_multiple_of(2) {
            SpillPrecision::Int8
        } else {
            SpillPrecision::F32
        },
        semcache: if small.is_multiple_of(3) {
            SemCacheMode::Off
        } else {
            SemCacheMode::On
        },
    };
    let error = match small % 7 {
        0 => ServiceError::Backpressure {
            capacity: small as usize,
            queue_depth: small as usize + 1,
            retry_after: std::time::Duration::from_micros(id % 100_000),
        },
        1 => ServiceError::DeadlineExceeded,
        2 => ServiceError::Cancelled,
        3 => ServiceError::ShuttingDown,
        4 => ServiceError::Disconnected,
        5 => ServiceError::Engine(text.to_string()),
        _ => ServiceError::Config(text.to_string()),
    };
    match kind {
        0 => Message::Hello {
            version: small,
            session: text.to_string(),
        },
        1 => Message::Submit {
            request_id: id,
            options,
            batch: SequenceBatch::new(seqs).expect("sampled sequences are non-empty"),
        },
        2 => Message::Cancel { request_id: id },
        3 => Message::Ping { nonce: id },
        4 => Message::HelloAck { version: small },
        5 => Message::Accepted {
            request_id: id,
            ticket: id ^ 0x5EED,
        },
        6 => Message::Progress {
            request_id: id,
            progress: Progress {
                layers_gated: small as usize % 32,
                layers_forwarded: small as usize % 32 + 1,
                candidates_active: bits.len(),
                candidates_accepted: small as usize % 8,
                candidates_pruned: small as usize % 16,
            },
        },
        7 => Message::Result {
            request_id: id,
            outcome: Box::new(SelectionOutcome {
                selection: Selection {
                    ranked: bits
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| RankedCandidate {
                            id: i,
                            score: f32::from_bits(b),
                            decided_at_layer: i % 7,
                        })
                        .collect(),
                    last_scores: bits.iter().map(|&b| f32::from_bits(b)).collect(),
                    trace: EngineTrace {
                        active_per_layer: bits.iter().map(|&b| b as usize % 64).collect(),
                        executed_layers: small as usize % 12,
                        spill_bytes: id % (1 << 32),
                        ..Default::default()
                    },
                },
                ticket: id,
                queued_us: id % 10_000,
                service_us: id % 100_000,
                batch_size: small as usize % 8 + 1,
                served_from_cache: small % 2 == 1,
            }),
        },
        8 => Message::Error {
            request_id: id,
            error,
        },
        _ => Message::Pong { nonce: id },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode → encode is byte-identical for every message
    /// type, through both the body codec and the frame layer. Byte
    /// equality is stronger than structural equality: it pins score bit
    /// patterns (NaNs included) and rules out any lossy field.
    #[test]
    fn every_message_round_trips_to_identical_bytes(
        kind in 0_usize..10,
        id in 0_u64..u64::MAX,
        small in 0_u32..1000,
        bits in prop::collection::vec(0_u32..=u32::MAX, 0..8),
        seqs in prop::collection::vec(prop::collection::vec(0_u32..50_000, 1..10), 1..5),
        text in prop::sample::select(vec!["", "s", "tenant-α", "a longer session name with spaces"]),
    ) {
        let msg = build_message(kind, id, small, &bits, &seqs, text);
        let body = encode_message(&msg);
        let decoded = decode_message(&body);
        prop_assert!(decoded.is_ok(), "decode failed on {msg:?}: {decoded:?}");
        prop_assert_eq!(encode_message(&decoded.unwrap()), body.clone());

        let mut frame = Vec::new();
        write_frame(&mut frame, &msg).unwrap();
        let read = read_frame(&mut &frame[..]);
        prop_assert!(read.is_ok(), "frame read failed on {msg:?}: {read:?}");
        prop_assert_eq!(encode_message(&read.unwrap()), body);
    }

    /// Cutting a valid frame anywhere before its end yields a typed
    /// Truncated (or Closed at the zero boundary) — never Ok, never a
    /// panic, never a decode of partial bytes.
    #[test]
    fn any_truncation_of_a_valid_frame_is_typed(
        kind in 0_usize..10,
        id in 0_u64..u64::MAX,
        small in 0_u32..1000,
        bits in prop::collection::vec(0_u32..=u32::MAX, 0..8),
        seqs in prop::collection::vec(prop::collection::vec(0_u32..50_000, 1..10), 1..5),
        cut_frac in 0.0_f64..1.0,
    ) {
        let msg = build_message(kind, id, small, &bits, &seqs, "t");
        let mut frame = Vec::new();
        write_frame(&mut frame, &msg).unwrap();
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < frame.len());
        match read_frame(&mut &frame[..cut]) {
            Err(WireError::Closed) => prop_assert_eq!(cut, 0),
            Err(WireError::Truncated) => prop_assert!(cut > 0),
            other => prop_assert!(false, "cut at {cut}/{} gave {other:?}", frame.len()),
        }
    }

    /// Flipping any byte of a valid frame never panics: the result is
    /// either a structurally valid message or a typed error, and
    /// whatever decodes re-encodes without panicking.
    #[test]
    fn single_byte_corruption_never_panics(
        kind in 0_usize..10,
        id in 0_u64..u64::MAX,
        small in 0_u32..1000,
        bits in prop::collection::vec(0_u32..=u32::MAX, 0..8),
        seqs in prop::collection::vec(prop::collection::vec(0_u32..50_000, 1..10), 1..5),
        pos_frac in 0.0_f64..1.0,
        mask in 1_u8..=255,
    ) {
        let msg = build_message(kind, id, small, &bits, &seqs, "t");
        let mut frame = Vec::new();
        write_frame(&mut frame, &msg).unwrap();
        let pos = ((frame.len() as f64) * pos_frac) as usize % frame.len();
        frame[pos] ^= mask;
        if let Ok(decoded) = read_frame(&mut &frame[..]) {
            let _ = encode_message(&decoded);
        }
    }

    /// The semantic-cache mode byte of a `Submit` is 0 or 1: any other
    /// value (2 was the near-duplicate mode of protocol 5) is a typed
    /// corrupt payload, whatever the rest of the request holds.
    #[test]
    fn semcache_byte_above_one_is_corrupt(
        id in 0_u64..u64::MAX,
        small in 0_u32..1000,
        seqs in prop::collection::vec(prop::collection::vec(0_u32..50_000, 1..10), 1..5),
        tag in 2_u8..=255,
    ) {
        let msg = build_message(1, id, small, &[], &seqs, "t");
        let mut body = encode_message(&msg);
        // The batch follows the options: a 4-byte count, then per
        // sequence a 4-byte length and 4 bytes per token.
        let batch_bytes = 4 + seqs.iter().map(|s| 4 + 4 * s.len()).sum::<usize>();
        let at = body.len() - batch_bytes - 1;
        prop_assert!(body[at] <= 1, "semcache byte {}", body[at]);
        body[at] = tag;
        let decoded = decode_message(&body);
        prop_assert!(
            matches!(decoded, Err(WireError::Corrupt(ref why)) if why.contains("semcache")),
            "tag {tag} gave {decoded:?}"
        );
    }

    /// Arbitrary garbage fed to both codec layers terminates quickly
    /// with a typed result — the count-vs-remaining rule means a hostile
    /// prefix can never size an allocation the bytes don't back.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(0_u8..=255, 0..256),
    ) {
        let _ = decode_message(&bytes);
        let _ = read_frame(&mut &bytes[..]);
    }
}

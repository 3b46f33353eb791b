//! Property tests for the quantized spill round trip.
//!
//! The int8 slot format trades exactness for 4x less disk traffic; these
//! properties pin down what the trade keeps: every element reconstructs
//! within half a quantization step of its row, constant rows round-trip
//! exactly, f32 slots stay bit-exact, and the overlapped pipeline
//! delivers the same bytes as the synchronous path under interleaved
//! reads, writes, releases and compactions, at both precisions — for
//! empty, single-element and otherwise awkward shapes included.

use prism_storage::{SpillFile, SpillPipeline, SpillPrecision, Throttle};
use prism_tensor::{rowq, Tensor};
use proptest::prelude::*;

fn tmp(name: &str, case: u64) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "prism-spill-prop-{}-{name}-{case}",
        std::process::id()
    ));
    p
}

/// A tensor whose values mix magnitudes and signs, plus degenerate rows.
fn tensor_from(rows: usize, cols: usize, seed: i64, constant_row: bool) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| {
        if constant_row && r == 0 {
            2.5
        } else {
            let x = (r * cols + c) as f32 + seed as f32 * 0.37;
            (x * 0.91).sin() * (1.0 + (seed.unsigned_abs() % 7) as f32)
        }
    })
}

/// Per-row worst-case reconstruction bound: half a quantization step of
/// that row's value range.
fn row_bound(row: &[f32]) -> f32 {
    let lo = row.iter().cloned().fold(f32::INFINITY, f32::min);
    let hi = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    rowq::max_row_error((hi - lo) / 255.0) + 1e-6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rowq_round_trip_error_bounded_per_row(
        cols in 1_usize..200,
        seed in -1000_i64..1000,
    ) {
        let t = tensor_from(1, cols, seed, false);
        let row = t.data();
        let mut codes = vec![0_u8; cols];
        let (min, scale) = rowq::encode_row(row, &mut codes).unwrap();
        let mut back = vec![0.0_f32; cols];
        rowq::decode_row(&codes, min, scale, &mut back).unwrap();
        let bound = row_bound(row);
        for (x, y) in row.iter().zip(&back) {
            prop_assert!((x - y).abs() <= bound, "{x} vs {y} (bound {bound})");
        }
    }

    #[test]
    fn spill_file_round_trip_at_both_precisions(
        rows in 1_usize..12,
        cols in 1_usize..48,
        seed in -500_i64..500,
        constant_flag in 0_u8..2,
        case in 0_u64..u64::MAX,
    ) {
        let constant_row = constant_flag == 1;
        let t = tensor_from(rows, cols, seed, constant_row);

        // f32 slots are bit-exact.
        let path = tmp("f32", case);
        let file = SpillFile::create(&path, 2, rows, cols, SpillPrecision::F32,
            Throttle::unlimited()).unwrap();
        file.offload(0, &t).unwrap();
        prop_assert_eq!(&file.fetch(0).unwrap(), &t);
        file.cleanup().unwrap();

        // int8 slots reconstruct within each row's half-step bound, and
        // a constant row is exact.
        let path = tmp("int8", case);
        let file = SpillFile::create(&path, 2, rows, cols, SpillPrecision::Int8,
            Throttle::unlimited()).unwrap();
        let written = file.offload(0, &t).unwrap();
        prop_assert_eq!(written, SpillPrecision::Int8.encoded_bytes(rows, cols) as u64);
        // Compression wins once the 8-byte/row metadata amortizes
        // (8r + rc <= 4rc requires c >= 3); degenerate 1-2 column
        // shapes still round-trip, they just aren't smaller.
        if cols >= 3 {
            prop_assert!(written <= SpillPrecision::F32.encoded_bytes(rows, cols) as u64);
        }
        let back = file.fetch(0).unwrap();
        prop_assert_eq!(back.shape(), t.shape());
        for r in 0..rows {
            let bound = row_bound(t.row(r).unwrap());
            for (x, y) in t.row(r).unwrap().iter().zip(back.row(r).unwrap()) {
                prop_assert!((x - y).abs() <= bound, "row {r}: {x} vs {y}");
            }
        }
        if constant_row {
            prop_assert_eq!(t.row(0).unwrap(), back.row(0).unwrap());
        }
        file.cleanup().unwrap();
    }

    #[test]
    fn pipeline_matches_synchronous_under_interleaving(
        rows in 1_usize..8,
        cols in 1_usize..24,
        ops in prop::collection::vec((0_usize..4, 0_u8..4), 1..24),
        case in 0_u64..u64::MAX,
    ) {
        for precision in [SpillPrecision::F32, SpillPrecision::Int8] {
            let slots = 4;
            let make = |tag: &str, overlapped: bool| {
                let path = tmp(&format!("{tag}-{precision:?}"), case);
                let file = SpillFile::create(&path, slots, rows, cols,
                    precision, Throttle::unlimited()).unwrap();
                if overlapped {
                    SpillPipeline::overlapped(file).unwrap()
                } else {
                    SpillPipeline::synchronous(file)
                }
            };
            let mut sync = make("sync", false);
            let mut over = make("over", true);
            // Replay the same randomized op sequence against both modes;
            // every observable result must agree.
            for (i, &(slot, op)) in ops.iter().enumerate() {
                match op {
                    0 => {
                        let t = tensor_from(rows, cols, i as i64, false);
                        sync.write_back(slot, t.clone()).unwrap();
                        over.write_back(slot, t).unwrap();
                    }
                    1 => {
                        let a = sync.fetch(slot);
                        let b = over.fetch(slot);
                        match (a, b) {
                            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                            (Err(_), Err(_)) => {}
                            (a, b) => prop_assert!(false, "sync {a:?} vs overlapped {b:?}"),
                        }
                    }
                    2 => {
                        sync.release(slot).unwrap();
                        over.release(slot).unwrap();
                    }
                    _ => {
                        // Compaction: a fetch after retain equals the
                        // gathered rows of a fetch before it.
                        let before = sync.fetch(slot);
                        let kept: Vec<usize> = match &before {
                            Ok(t) => (0..t.rows()).filter(|r| (r + i) % 3 != 0).collect(),
                            Err(_) => vec![0],
                        };
                        let a = sync.retain_rows(slot, &kept);
                        let b = over.retain_rows(slot, &kept);
                        prop_assert_eq!(a.is_ok(), b.is_ok(), "sync {:?} vs overlapped {:?}", a, b);
                        if let Ok(before) = before {
                            let want = before.gather_rows(&kept).unwrap();
                            prop_assert_eq!(&sync.fetch(slot).unwrap(), &want);
                            prop_assert_eq!(&over.fetch(slot).unwrap(), &want);
                        }
                    }
                }
            }
            over.drain().unwrap();
            prop_assert_eq!(sync.stats().bytes_written, over.stats().bytes_written);
            sync.cleanup().unwrap();
            over.cleanup().unwrap();
        }
    }
}

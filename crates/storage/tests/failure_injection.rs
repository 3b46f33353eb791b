//! Failure injection: corrupted containers, truncation, concurrent
//! access — and the spill tier: torn writes, truncation and bit-flips
//! against `SpillFile`/`SpillPipeline` must surface as typed errors or
//! quarantine-and-recompute, never a panic or silently wrong data.

use prism_storage::{
    fault, Container, ContainerWriter, LayerStreamer, SectionKind, SpillFile, SpillPipeline,
    SpillPrecision, StorageError, Throttle,
};
use prism_tensor::Tensor;

fn tmp(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("prism-failinj-{tag}-{}", std::process::id()));
    p
}

fn write_container(path: &std::path::Path, layers: usize) {
    let mut w = ContainerWriter::create(path);
    for i in 0..layers {
        w.add_raw(
            &format!("layer.{i}"),
            SectionKind::Raw,
            0,
            0,
            vec![i as u8; 4096],
        );
    }
    w.add_f32(
        "embedding",
        &Tensor::from_fn(16, 4, |r, c| (r * 4 + c) as f32),
    );
    w.finish().unwrap();
}

#[test]
fn every_truncation_point_fails_cleanly() {
    // Truncating the file anywhere must produce an error from open or
    // read, never a panic or silent garbage.
    let path = tmp("trunc");
    write_container(&path, 3);
    let bytes = std::fs::read(&path).unwrap();
    for cut in [1, 4, 9, 16, 40, bytes.len() / 2, bytes.len() - 1] {
        let cut_path = tmp(&format!("trunc-cut{cut}"));
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        match Container::open(&cut_path) {
            Err(_) => {}
            Ok(c) => {
                // Header may fit; payload reads must then fail.
                let mut failed = false;
                let mut buf = Vec::new();
                for s in c.sections().to_vec() {
                    if c.read_section_into(&s.name, &mut buf).is_err() {
                        failed = true;
                    }
                }
                assert!(
                    failed,
                    "cut at {cut}: all reads succeeded on truncated file"
                );
            }
        }
        std::fs::remove_file(&cut_path).unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bitflips_in_header_fail_cleanly() {
    let path = tmp("bitflip");
    write_container(&path, 2);
    let bytes = std::fs::read(&path).unwrap();
    for pos in [0_usize, 3, 8, 10, 13, 20] {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0xFF;
        let bad = tmp(&format!("bitflip-{pos}"));
        std::fs::write(&bad, &corrupted).unwrap();
        // Must not panic; errors are fine, and a still-parsable header is
        // also fine as long as section reads stay within bounds.
        if let Ok(c) = Container::open(&bad) {
            let mut buf = Vec::new();
            for s in c.sections().to_vec() {
                let _ = c.read_section_into(&s.name, &mut buf);
            }
        }
        std::fs::remove_file(&bad).unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn streamer_surfaces_io_errors_without_hanging() {
    // Delete the file mid-stream: next() must eventually error or finish,
    // not deadlock (page cache may serve some reads).
    let path = tmp("delete-mid");
    write_container(&path, 8);
    let c = Container::open(&path).unwrap();
    let names: Vec<String> = (0..8).map(|i| format!("layer.{i}")).collect();
    let mut s = LayerStreamer::new(&c, &names, 2, Throttle::unlimited()).unwrap();
    let first = s.next().unwrap().expect("first section");
    s.recycle(first).unwrap();
    std::fs::remove_file(&path).unwrap();
    // Unix keeps the inode alive through the open fd; the stream should
    // complete (or error) — either way, terminate.
    let mut delivered = 1;
    while let Ok(Some(sec)) = s.next() {
        delivered += 1;
        if s.recycle(sec).is_err() {
            break;
        }
    }
    assert!(delivered >= 1);
}

fn spill_tensor(seed: f32) -> Tensor {
    Tensor::from_fn(8, 16, |r, c| ((r * 16 + c) as f32 * 0.25 - 3.0) * seed)
}

fn flip_byte(path: &std::path::Path, offset: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[offset] ^= 0xFF;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn spill_payload_bitflip_quarantines_then_recomputes() {
    // A flipped payload byte must fail the CRC as a typed
    // `ChecksumMismatch`, quarantine the slot (a re-read sees it empty,
    // never the corrupted bytes), and a recomputed write-back must
    // restore the bit-exact round trip.
    let path = tmp("spill-flip");
    let file =
        SpillFile::create(&path, 4, 8, 16, SpillPrecision::F32, Throttle::unlimited()).unwrap();
    let tensor = spill_tensor(1.0);
    file.offload(0, &tensor).unwrap();
    flip_byte(&path, 16 + 5); // inside slot 0's payload, past the header
    let err = file.fetch(0).unwrap_err();
    assert!(
        matches!(err, StorageError::ChecksumMismatch { .. }),
        "{err:?}"
    );
    assert_eq!(file.quarantined(), 1);
    // Quarantined means empty, not reusable garbage.
    let err = file.fetch(0).unwrap_err();
    assert!(
        matches!(err, StorageError::SectionMismatch { .. }),
        "{err:?}"
    );
    // The recompute path: re-offload and the round trip is exact again.
    file.offload(0, &tensor).unwrap();
    assert_eq!(file.fetch(0).unwrap().data(), tensor.data());
    file.cleanup().unwrap();
}

#[test]
fn spill_block_bitflip_quarantines_the_int8_path() {
    // An int8 file's encoded round trip gets the same protection: a
    // flipped code byte is a typed checksum failure, not silently wrong
    // scores.
    let path = tmp("spill-blockflip");
    let file =
        SpillFile::create(&path, 2, 8, 16, SpillPrecision::Int8, Throttle::unlimited()).unwrap();
    let tensor = spill_tensor(0.7);
    file.offload(1, &tensor).unwrap();
    let reread = file.fetch(1).unwrap();
    assert_eq!(file.fetch(1).unwrap(), reread, "clean round trip is stable");
    // Slots are sized at the file's precision; this lands on a code
    // byte of slot 1.
    flip_byte(
        &path,
        SpillPrecision::Int8.encoded_bytes(8, 16) + 16 + 8 * 8 + 3,
    );
    let err = file.fetch(1).unwrap_err();
    assert!(
        matches!(err, StorageError::ChecksumMismatch { .. }),
        "{err:?}"
    );
    assert_eq!(file.quarantined(), 1);
    file.cleanup().unwrap();
}

#[test]
fn spill_header_corruption_is_typed_never_wrong_data() {
    // Flips across the slot header (magic, version, encoding tag, shape
    // fields) must all produce typed errors — whichever validation
    // catches them first — and never a panic or a tensor built from a
    // lying header.
    for offset in [0_usize, 4, 5, 8, 12] {
        let path = tmp(&format!("spill-hdr-{offset}"));
        let file =
            SpillFile::create(&path, 2, 8, 16, SpillPrecision::F32, Throttle::unlimited()).unwrap();
        file.offload(0, &spill_tensor(1.3)).unwrap();
        flip_byte(&path, offset);
        assert!(file.fetch(0).is_err(), "header flip at {offset} fetched Ok");
        file.cleanup().unwrap();
    }
}

#[test]
fn spill_truncation_fails_the_cut_slot_only() {
    // A truncated scratch file (lost tail after a crash) must fail reads
    // of the cut slot with a typed error while intact slots stay
    // readable.
    let path = tmp("spill-trunc");
    let file =
        SpillFile::create(&path, 2, 8, 16, SpillPrecision::F32, Throttle::unlimited()).unwrap();
    let tensor = spill_tensor(2.1);
    file.offload(0, &tensor).unwrap();
    file.offload(1, &tensor).unwrap();
    let keep = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    // Cut into slot 1 (slots are sized at the file's precision).
    keep.set_len((SpillPrecision::F32.encoded_bytes(8, 16) + 24) as u64)
        .unwrap();
    drop(keep);
    assert!(
        file.fetch(1).is_err(),
        "read past EOF must be a typed error"
    );
    assert_eq!(file.fetch(0).unwrap().data(), tensor.data());
    file.cleanup().unwrap();
}

#[test]
fn spill_torn_write_is_caught_by_the_checksum() {
    // A torn write — prefix landed, tail didn't — leaves a plausible
    // header with a stale payload; the CRC trailer catches it and the
    // slot quarantines.
    let path = tmp("spill-torn");
    let file =
        SpillFile::create(&path, 2, 8, 16, SpillPrecision::F32, Throttle::unlimited()).unwrap();
    file.offload(0, &spill_tensor(0.4)).unwrap();
    let len = SpillPrecision::F32.encoded_bytes(8, 16);
    let mut bytes = std::fs::read(&path).unwrap();
    for b in &mut bytes[len / 2..len] {
        *b = 0;
    }
    std::fs::write(&path, bytes).unwrap();
    let err = file.fetch(0).unwrap_err();
    assert!(
        matches!(err, StorageError::ChecksumMismatch { .. }),
        "{err:?}"
    );
    assert_eq!(file.quarantined(), 1);
    file.cleanup().unwrap();
}

#[test]
fn pipeline_corrupted_fetch_is_typed_then_recomputable() {
    // Both pipeline modes must surface a corrupted slot as the typed
    // checksum error (through the reader lane when overlapped) and
    // accept a recomputed write-back afterwards — the engine's
    // quarantine-and-recompute contract.
    let run = |overlapped: bool, tag: &str| {
        let path = tmp(&format!("spill-pipe-{tag}"));
        let file =
            SpillFile::create(&path, 2, 8, 16, SpillPrecision::F32, Throttle::unlimited()).unwrap();
        let tensor = spill_tensor(1.9);
        let mut pipe = if overlapped {
            SpillPipeline::overlapped(file).unwrap()
        } else {
            SpillPipeline::synchronous(file)
        };
        pipe.write_back(0, tensor.clone()).unwrap();
        pipe.drain().unwrap();
        fault::corrupt_fetches_under(path.to_string_lossy().into_owned(), 1);
        pipe.prefetch(0).unwrap();
        let err = pipe.fetch(0).unwrap_err();
        assert!(
            matches!(err, StorageError::ChecksumMismatch { .. }),
            "{err:?}"
        );
        fault::reset();
        pipe.write_back(0, tensor.clone()).unwrap();
        assert_eq!(pipe.fetch(0).unwrap().data(), tensor.data());
        pipe.cleanup().unwrap();
    };
    run(false, "sync");
    run(true, "over");
}

#[test]
fn concurrent_streamers_share_one_container_file() {
    // Two streamers over the same file must not interfere (independent
    // handles, positioned reads).
    let path = tmp("concurrent");
    write_container(&path, 6);
    let c = Container::open(&path).unwrap();
    let names: Vec<String> = (0..6).map(|i| format!("layer.{i}")).collect();
    let mut s1 = LayerStreamer::new(&c, &names, 2, Throttle::unlimited()).unwrap();
    let mut s2 = LayerStreamer::new(&c, &names, 2, Throttle::unlimited()).unwrap();
    for i in 0..6 {
        let a = s1.next().unwrap().unwrap();
        let b = s2.next().unwrap().unwrap();
        assert_eq!(a.bytes, b.bytes, "section {i} diverged across streamers");
        s1.recycle(a).unwrap();
        s2.recycle(b).unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}

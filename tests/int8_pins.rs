//! Bit pins for the int8 compute path and the int8 spill path.
//!
//! Every other int8 test compares against f32 within a tolerance, or
//! int8 against int8, so a reordered projection or a changed rowq encode
//! would pass them all. These tests fold the exact `f32` bits of int8
//! results into FNV-1a digests recorded from a known-good build:
//!
//! * one layer forward through `forward_layer_int8`, for both
//!   architectures over dense and 4-bit source weights;
//! * `select_with(.. ComputePrecision::Int8)` on a resident engine and
//!   on streamed and resident offload engines at both spill precisions,
//!   plus a streamed run whose spill fetches are corrupted, which forces
//!   the recovery replay to rebuild chunks from the container;
//! * f32-compute offload selections at both spill precisions with two
//!   candidates per chunk, so a gate compacts spilled slots partially,
//!   fault-free and with corrupted reads.
//!
//! A digest that moves means results changed bit for bit; if that is
//! intended, the new digest is printed in the failure message. Never
//! edit a digest to make a test pass.

use prism::core::{ComputePrecision, EngineOptions, PrismEngine, RequestOptions, Selection};
use prism::metrics::MemoryMeter;
use prism::model::layer::{forward_layer_int8, ForwardScratch};
use prism::model::{Int8LayerWeights, LayerWeights, Model, ModelArch, ModelConfig, SequenceBatch};
use prism::storage::{fault, Container, SpillPrecision};
use prism::tensor::Tensor;
use prism::workload::{dataset_by_name, WorkloadGenerator};

/// Fails naming every `(label, got, want)` whose digest moved.
fn check(digests: &[(String, u64, u64)]) {
    let moved: Vec<String> = digests
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(label, got, _)| format!("{label}: {got:#018x}"))
        .collect();
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn layer_digest(arch: ModelArch, q4_source: bool) -> u64 {
    let config = ModelConfig::test_config(arch, 2);
    let mut weights = LayerWeights::generate(&config, 1, 11);
    if q4_source {
        weights = weights.quantize().unwrap();
    }
    let int8 = Int8LayerWeights::from_layer(&weights).unwrap();
    let mut hidden = Tensor::from_fn(12, config.hidden_dim, |r, c| {
        ((r * 7 + c * 3) as f32 * 0.13).sin() * 0.5
    });
    let ranges = [(0, 5), (5, 12)];
    let mut scratch = ForwardScratch::new(&config, hidden.rows());
    forward_layer_int8(&config, &int8, 1, &mut hidden, &ranges, &mut scratch).unwrap();
    fnv1a(hidden.data().iter().map(|x| x.to_bits()))
}

#[test]
fn int8_layer_forward_bits_are_pinned() {
    let cases = [
        (ModelArch::DecoderOnly, false, 0x316e_a8e7_2089_7ab6_u64),
        (ModelArch::DecoderOnly, true, 0x7ccc_5989_b6d2_8fb2),
        (ModelArch::EncoderOnly, false, 0x0201_0b88_c915_66ef),
        (ModelArch::EncoderOnly, true, 0xd656_b379_6b5a_d68c),
    ];
    let digests: Vec<_> = cases
        .into_iter()
        .map(|(arch, q4, want)| {
            let label = format!("{arch:?} (q4 source: {q4})");
            (label, layer_digest(arch, q4), want)
        })
        .collect();
    check(&digests);
}

struct Fixture {
    model: Model,
    container: std::path::PathBuf,
    spill_dir: std::path::PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let model =
            Model::generate(ModelConfig::test_config(ModelArch::DecoderOnly, 6), 42).unwrap();
        let base =
            std::env::temp_dir().join(format!("prism-int8-pins-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let container = base.join("model.prsm");
        model.write_container(&container).unwrap();
        let spill_dir = base.join("spill");
        std::fs::create_dir_all(&spill_dir).unwrap();
        Fixture {
            model,
            container,
            spill_dir,
        }
    }

    fn engine(&self, options: EngineOptions) -> PrismEngine {
        PrismEngine::new(
            Container::open(&self.container).unwrap(),
            self.model.config.clone(),
            options,
            MemoryMeter::new(),
        )
        .unwrap()
        .with_spill_dir(self.spill_dir.clone())
    }

    fn batch(&self) -> SequenceBatch {
        let profile = dataset_by_name("wikipedia").unwrap();
        let gen = WorkloadGenerator::new(
            profile,
            self.model.config.vocab_size,
            self.model.config.max_seq,
            7,
        );
        SequenceBatch::new(&gen.request(0, 12).sequences()).unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(base) = self.container.parent() {
            let _ = std::fs::remove_dir_all(base);
        }
    }
}

fn offload(streaming: bool) -> EngineOptions {
    offload_chunked(streaming, 1)
}

fn offload_chunked(streaming: bool, chunk_candidates: usize) -> EngineOptions {
    EngineOptions {
        streaming,
        chunking: true,
        chunk_candidates: Some(chunk_candidates),
        hidden_offload: true,
        pruning: true,
        ..EngineOptions::all_off()
    }
}

/// Offload int8 selection digests, one per spill precision: resident
/// and streamed weights agree bit for bit.
const F32_SPILL: u64 = 0xc034_e50d_4147_c4e4;
const INT8_SPILL: u64 = 0xf830_6b34_6e80_f6f2;

/// Offload f32-compute selection digests with two candidates per chunk,
/// one per spill precision: the spill path the offload benchmark runs,
/// including slots a gate compacts partially.
const F32_COMPUTE_F32_SPILL: u64 = 0xa809_09e6_5759_5908;
const F32_COMPUTE_INT8_SPILL: u64 = 0xd32a_b0c7_af46_f130;

/// Whether some gate removed part, but not all, of a chunk that lives in
/// the spill file — the only event that compacts a slot in place.
/// Chunks hold `chunk_candidates` consecutive ids and every chunk after
/// the first three is spilled.
fn compacted_a_spilled_chunk(sel: &Selection, n: usize, chunk_candidates: usize) -> bool {
    let mut alive = vec![true; n];
    sel.trace.routes.iter().any(|route| {
        let gone: Vec<usize> = route
            .selected
            .iter()
            .chain(&route.dropped)
            .copied()
            .collect();
        let partial = (3 * chunk_candidates..n)
            .step_by(chunk_candidates)
            .any(|start| {
                let members = start..(start + chunk_candidates).min(n);
                let live: Vec<usize> = members.filter(|&id| alive[id]).collect();
                let leaving = live.iter().filter(|id| gone.contains(id)).count();
                leaving > 0 && leaving < live.len()
            });
        for id in gone {
            alive[id] = false;
        }
        partial
    })
}

/// The f32-compute offload request: with two candidates per chunk, its
/// layer-1 gate drops one candidate of each of two spilled chunks.
fn f32_offload_request(spill: SpillPrecision) -> RequestOptions {
    RequestOptions::tagged(4, 0).with_spill_precision(spill)
}

fn selection_digest(sel: &Selection) -> u64 {
    let ranked = sel
        .ranked
        .iter()
        .flat_map(|r| [r.id as u32, r.score.to_bits(), r.decided_at_layer as u32]);
    let scores = sel.last_scores.iter().map(|s| s.to_bits());
    fnv1a(ranked.chain(scores))
}

fn int8_select(engine: &PrismEngine, batch: &SequenceBatch, spill: SpillPrecision) -> Selection {
    let options = RequestOptions::tagged(4, 9)
        .with_compute_precision(ComputePrecision::Int8)
        .with_spill_precision(spill);
    engine.select_with(batch, options).unwrap()
}

#[test]
fn int8_selection_bits_are_pinned() {
    let fx = Fixture::new("select");
    let batch = fx.batch();
    let resident = fx.engine(EngineOptions::all_off());
    let mut digests = vec![(
        "resident".to_string(),
        selection_digest(&int8_select(&resident, &batch, SpillPrecision::Int8)),
        0xd733_e751_03ae_ad8c,
    )];

    let cases = [
        (false, SpillPrecision::F32, F32_SPILL),
        (false, SpillPrecision::Int8, INT8_SPILL),
        (true, SpillPrecision::F32, F32_SPILL),
        (true, SpillPrecision::Int8, INT8_SPILL),
    ];
    for (streaming, spill, want) in cases {
        let engine = fx.engine(offload(streaming));
        let sel = int8_select(&engine, &batch, spill);
        assert!(sel.trace.spill_bytes > 0, "offload engine must spill");
        let label = format!("offload (streaming: {streaming}, spill {spill:?})");
        digests.push((label, selection_digest(&sel), want));
    }

    let cases = [
        (false, SpillPrecision::F32, F32_COMPUTE_F32_SPILL),
        (false, SpillPrecision::Int8, F32_COMPUTE_INT8_SPILL),
        (true, SpillPrecision::F32, F32_COMPUTE_F32_SPILL),
        (true, SpillPrecision::Int8, F32_COMPUTE_INT8_SPILL),
    ];
    for (streaming, spill, want) in cases {
        let engine = fx.engine(offload_chunked(streaming, 2));
        let sel = engine
            .select_with(&batch, f32_offload_request(spill))
            .unwrap();
        assert!(sel.trace.spill_bytes > 0, "offload engine must spill");
        assert!(
            compacted_a_spilled_chunk(&sel, batch.num_sequences(), 2),
            "some gate must compact a spilled chunk partially: {:?}",
            sel.trace.routes
        );
        let label = format!("f32 compute offload (streaming: {streaming}, spill {spill:?})");
        digests.push((label, selection_digest(&sel), want));
    }
    check(&digests);
}

/// The only test in this binary that injects spill faults (the hook is
/// process-wide).
#[test]
fn int8_recovery_replay_bits_are_pinned() {
    let fx = Fixture::new("replay");
    let batch = fx.batch();
    // A recovered chunk is bit-identical to the one it replaces, so the
    // faulty runs land on the fault-free digests.
    let cases = [
        (SpillPrecision::F32, F32_SPILL),
        (SpillPrecision::Int8, INT8_SPILL),
    ];
    let mut digests = Vec::new();
    for (spill, want) in cases {
        let engine = fx.engine(offload(true));
        fault::corrupt_fetches_under(fx.spill_dir.to_string_lossy(), 3);
        let sel = engine.select_with(
            &batch,
            RequestOptions::tagged(4, 9)
                .with_compute_precision(ComputePrecision::Int8)
                .with_spill_precision(spill),
        );
        fault::reset();
        let sel = sel.unwrap();
        assert!(
            sel.trace.spill_stats.quarantined > 0,
            "{spill:?}: fault injection must have fired"
        );
        let label = format!("streamed replay (spill {spill:?})");
        digests.push((label, selection_digest(&sel), want));
    }

    // F32 compute with two candidates per chunk: every fourth read is
    // corrupted, and the fourth is the first read that compacts a slot
    // after the layer-1 gate, so the compaction's recovery arm runs.
    let cases = [
        (false, SpillPrecision::F32, F32_COMPUTE_F32_SPILL),
        (false, SpillPrecision::Int8, F32_COMPUTE_INT8_SPILL),
        (true, SpillPrecision::F32, F32_COMPUTE_F32_SPILL),
        (true, SpillPrecision::Int8, F32_COMPUTE_INT8_SPILL),
    ];
    for (streaming, spill, want) in cases {
        let engine = fx.engine(offload_chunked(streaming, 2));
        fault::corrupt_fetches_under(fx.spill_dir.to_string_lossy(), 4);
        let sel = engine.select_with(&batch, f32_offload_request(spill));
        fault::reset();
        let sel = sel.unwrap();
        assert!(
            sel.trace.spill_stats.quarantined > 0,
            "{spill:?}: fault injection must have fired"
        );
        let label = format!("f32 compute replay (streaming: {streaming}, spill {spill:?})");
        digests.push((label, selection_digest(&sel), want));
    }
    check(&digests);
}

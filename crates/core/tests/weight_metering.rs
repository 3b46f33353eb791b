//! Every layer-weight copy a streamed engine makes is on the shared
//! meter for as long as it lives, and off it afterwards.
//!
//! A streamed engine holds one layer section and its decode per
//! acquisition, in the engine's weight format: an int8 engine streams the
//! int8 sections it derived at open. The recovery replay of a corrupted
//! spill slot reads and decodes layers straight from the layer store.
//! This binary is separate from `engine_tests.rs` because the spill fault
//! hook is process-wide.

use prism_core::{EngineOptions, PrismEngine, RequestOptions, WeightFormat};
use prism_metrics::{MemCategory, MemoryMeter};
use prism_model::{LayerWeights, Model, ModelArch, ModelConfig, SequenceBatch};
use prism_storage::{fault, Container, SpillPrecision};
use prism_workload::{dataset_by_name, WorkloadGenerator};

struct Fixture {
    model: Model,
    dir: std::path::PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let model = Model::generate(ModelConfig::test_config(ModelArch::DecoderOnly, 6), 42)
            .expect("model");
        let dir = std::env::temp_dir().join(format!(
            "prism-weight-metering-{}-{tag}",
            std::process::id()
        ));
        std::fs::create_dir_all(dir.join("spill")).expect("fixture dir");
        model
            .write_container(dir.join("model.prsm"))
            .expect("container");
        Fixture { model, dir }
    }

    fn engine(&self, options: EngineOptions) -> PrismEngine {
        PrismEngine::new(
            Container::open(self.dir.join("model.prsm")).expect("open"),
            self.model.config.clone(),
            options,
            MemoryMeter::new(),
        )
        .expect("engine")
        .with_spill_dir(self.dir.join("spill"))
    }

    fn batch(&self) -> SequenceBatch {
        let gen = WorkloadGenerator::new(
            dataset_by_name("wikipedia").expect("profile"),
            self.model.config.vocab_size,
            self.model.config.max_seq,
            7,
        );
        SequenceBatch::new(&gen.request(0, 12).sequences()).expect("batch")
    }

    /// One layer in `weights`' format: its section's bytes and its
    /// decoded bytes.
    fn layer_bytes(&self, weights: WeightFormat) -> (u64, u64) {
        let f32_layer = &self.model.weights.layers[0];
        let layer: LayerWeights = match weights {
            WeightFormat::F32 => f32_layer.clone(),
            WeightFormat::Int8 => f32_layer.to_int8().expect("int8 layer"),
        };
        (layer.to_bytes().len() as u64, layer.size_bytes() as u64)
    }

    /// Runs one selection on a fresh engine and returns its peak
    /// layer-weight bytes, after checking they all left the meter.
    fn weight_peak(&self, options: EngineOptions, request: RequestOptions) -> u64 {
        let engine = self.engine(options);
        engine
            .select_with(&self.batch(), request)
            .expect("selection");
        let meter = engine.meter();
        assert_eq!(
            meter.current(MemCategory::LayerWeights),
            0,
            "a streamed engine holds no layer weights between requests"
        );
        meter.peak(MemCategory::LayerWeights)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn streamed(weights: WeightFormat) -> EngineOptions {
    EngineOptions {
        streaming: true,
        weights,
        ..EngineOptions::all_off()
    }
}

/// A streamed engine holds one layer section plus its decode at a time,
/// in its own format: an int8 engine's window is one int8 section and
/// one decoded int8 layer, smaller than the f32 engine's.
#[test]
fn streamed_window_is_one_section_and_one_decoded_layer() {
    let fx = Fixture::new("window");
    let mut peaks = Vec::new();
    for weights in [WeightFormat::F32, WeightFormat::Int8] {
        let peak = fx.weight_peak(streamed(weights), RequestOptions::tagged(4, 9));
        let (section, decoded) = fx.layer_bytes(weights);
        assert_eq!(
            peak,
            section + decoded,
            "{weights:?}: peak {peak} B, section {section} B + decoded layer {decoded} B"
        );
        peaks.push(peak);
    }
    assert!(
        peaks[1] < peaks[0],
        "int8 window {} vs f32 {}",
        peaks[1],
        peaks[0]
    );
}

#[test]
fn recovery_replay_layers_are_metered_while_held() {
    let fx = Fixture::new("replay");
    let offload = EngineOptions {
        chunking: true,
        chunk_candidates: Some(1),
        hidden_offload: true,
        ..streamed(WeightFormat::Int8)
    };
    let request = RequestOptions::tagged(4, 9).with_spill_precision(SpillPrecision::Int8);
    let clean_peak = fx.weight_peak(offload.clone(), request.clone());
    fault::corrupt_fetches_under(fx.dir.join("spill").to_string_lossy(), 3);
    let faulty_peak = fx.weight_peak(offload, request);
    fault::reset();
    // A replay below layer L decodes its own copy of each earlier int8
    // layer while layer L's section and decode are still held for the
    // pass.
    let (section, decoded) = fx.layer_bytes(WeightFormat::Int8);
    assert_eq!(
        clean_peak,
        section + decoded,
        "the clean pass holds one window"
    );
    assert!(
        faulty_peak >= clean_peak + decoded,
        "replay peak {faulty_peak} must exceed the clean peak {clean_peak} by one \
         decoded int8 layer {decoded}"
    );
}

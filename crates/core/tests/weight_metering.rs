//! Every layer-weight copy a streamed engine makes is on the shared
//! meter for as long as it lives, and off it afterwards.
//!
//! A streamed engine decodes each layer per acquisition and, for int8
//! compute, quantizes an int8 copy beside it; the recovery replay of a
//! corrupted spill slot reads and decodes layers straight from the
//! container. This binary is separate from `engine_tests.rs` because the
//! spill fault hook is process-wide.

use prism_core::{ComputePrecision, EngineOptions, PrismEngine, RequestOptions};
use prism_metrics::{MemCategory, MemoryMeter};
use prism_model::{Model, ModelArch, ModelConfig, SequenceBatch};
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

    /// Bytes of one layer's decoded f32 copy and of its int8 copy.
    fn layer_bytes(&self) -> (u64, u64) {
        let layer = &self.model.weights.layers[0];
        let int8 = layer.to_int8().expect("int8 layer");
        (layer.size_bytes() as u64, int8.size_bytes() as u64)
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

fn int8_request() -> RequestOptions {
    RequestOptions::tagged(4, 9).with_compute_precision(ComputePrecision::Int8)
}

#[test]
fn streamed_int8_copy_is_metered_while_held() {
    let fx = Fixture::new("copy");
    let streamed = EngineOptions {
        streaming: true,
        ..EngineOptions::all_off()
    };
    let f32_peak = fx.weight_peak(streamed.clone(), RequestOptions::tagged(4, 9));
    let int8_peak = fx.weight_peak(streamed, int8_request());
    let (_, int8_layer) = fx.layer_bytes();
    assert!(
        int8_peak >= f32_peak + int8_layer,
        "int8 peak {int8_peak} must exceed the f32 peak {f32_peak} by the int8 copy {int8_layer}"
    );
}

#[test]
fn recovery_replay_layers_are_metered_while_held() {
    let fx = Fixture::new("replay");
    let offload = EngineOptions {
        streaming: true,
        chunking: true,
        chunk_candidates: Some(1),
        hidden_offload: true,
        ..EngineOptions::all_off()
    };
    let request = int8_request().with_spill_precision(SpillPrecision::Int8);
    let clean_peak = fx.weight_peak(offload.clone(), request.clone());
    fault::corrupt_fetches_under(fx.dir.join("spill").to_string_lossy(), 3);
    let faulty_peak = fx.weight_peak(offload, request);
    fault::reset();
    // A replay below layer L decodes and quantizes its own copy of each
    // earlier layer while layer L's section, decode and int8 copy are
    // still held for the pass.
    let (f32_layer, int8_layer) = fx.layer_bytes();
    assert!(
        faulty_peak >= clean_peak + f32_layer + int8_layer,
        "replay peak {faulty_peak} must exceed the clean peak {clean_peak} by one \
         decoded layer {f32_layer} and its int8 copy {int8_layer}"
    );
}

//! A streamed int8 engine streams its layers from a sidecar container it
//! writes to the temp directory at open and unlinks at once, so no file
//! of it is ever left there: not while the engine runs, not after it
//! drops, and not after an open that fails. This binary holds this one
//! test because it lists the temp directory, which the engines of a
//! concurrently running test would also write to.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use prism_core::{EngineOptions, PrismEngine, RequestOptions, WeightFormat};
use prism_metrics::MemoryMeter;
use prism_model::model::{layer_section, SECTION_EMBEDDING, SECTION_HEAD};
use prism_model::{Model, ModelArch, ModelConfig, SequenceBatch};
use prism_storage::{Container, ContainerWriter, SectionKind};

/// The engine-made entries of the temp directory (`prism-*`), minus the
/// fixture's own directory.
fn prism_temp_files(fixture: &Path) -> BTreeSet<PathBuf> {
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.as_path() != fixture)
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("prism-"))
        })
        .collect()
}

fn open(path: &Path, config: &ModelConfig) -> prism_core::Result<PrismEngine> {
    let options = EngineOptions {
        streaming: true,
        weights: WeightFormat::Int8,
        ..Default::default()
    };
    PrismEngine::new(
        Container::open(path).expect("open container"),
        config.clone(),
        options,
        MemoryMeter::new(),
    )
}

#[test]
fn streamed_int8_engine_leaves_no_file_in_the_temp_dir() {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 4);
    let model = Model::generate(config.clone(), 42).expect("model");
    let dir = std::env::temp_dir().join(format!("prism-sidecar-hygiene-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let good = dir.join("model.prsm");
    model.write_container(&good).expect("container");
    // The same model with its last layer cut short: every other layer
    // converts before the open fails.
    let bad = dir.join("truncated.prsm");
    let mut w = ContainerWriter::create(&bad);
    w.add_f32(SECTION_EMBEDDING, &model.weights.embedding);
    for (l, layer) in model.weights.layers.iter().enumerate() {
        let mut blob = layer.to_bytes();
        if l + 1 == config.num_layers {
            blob.truncate(blob.len() / 2);
        }
        w.add_raw(&layer_section(l), SectionKind::Raw, 0, 0, blob);
    }
    w.add_raw(
        SECTION_HEAD,
        SectionKind::Raw,
        0,
        0,
        model.weights.head.to_bytes(),
    );
    w.finish().expect("truncated container");

    let before = prism_temp_files(&dir);
    let engine = open(&good, &config).expect("engine");
    assert_eq!(prism_temp_files(&dir), before, "after open");
    let batch = SequenceBatch::new(&[vec![1, 2, 3], vec![4, 5, 6, 7]]).expect("batch");
    let selection = engine
        .select_with(&batch, RequestOptions::top_k(1))
        .expect("selection");
    assert!(
        selection.trace.stream_stats.bytes > 0,
        "the layers streamed"
    );
    drop(engine);
    assert_eq!(prism_temp_files(&dir), before, "after drop");

    assert!(
        open(&bad, &config).is_err(),
        "a truncated layer fails the open"
    );
    assert_eq!(prism_temp_files(&dir), before, "after a failed open");
    std::fs::remove_dir_all(&dir).expect("fixture cleanup");
}

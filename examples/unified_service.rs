//! The unified `SelectionService` facade: one API over the direct
//! engine and the batching server.
//!
//! ```text
//! cargo run --release --example unified_service
//! ```
//!
//! Demonstrates the full surface on both backends:
//! * non-blocking submit → `SelectionHandle` (`poll` / `wait` /
//!   `wait_timeout`),
//! * layer-granularity progress (layers forwarded, candidates pruned),
//! * per-request deadlines, enforced at admission, in the queue and at
//!   every layer boundary,
//! * mid-flight cancellation releasing resources at a layer boundary,
//! * typed backpressure carrying the server's `retry_after` hint — the
//!   caller, not the service, decides whether to resubmit,
//! * bit-identical results across backends for the same batch and tag.

use std::time::Duration;

use prism_api::{LocalService, RequestOptions, SelectionService, ServiceError};
use prism_core::{EngineOptions, PrismEngine};
use prism_metrics::MemoryMeter;
use prism_model::{Model, ModelConfig, SequenceBatch};
use prism_serve::{PrismServer, ServeConfig};
use prism_storage::Container;
use prism_workload::{dataset_by_name, WorkloadGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ModelConfig::qwen3_0_6b().mini_twin();
    let model = Model::generate(config.clone(), 42)?;
    let path = std::env::temp_dir().join("prism-unified-service.prsm");
    model.write_container(&path)?;
    let engine = |streaming: bool| -> Result<PrismEngine, Box<dyn std::error::Error>> {
        Ok(PrismEngine::new(
            Container::open(&path)?,
            config.clone(),
            EngineOptions {
                streaming,
                embed_cache: false,
                ..Default::default()
            },
            MemoryMeter::new(),
        )?)
    };
    let profile = dataset_by_name("wikipedia").expect("catalog dataset");
    let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 17);
    let batch = SequenceBatch::new(&generator.request(0, 20).sequences())?;

    // ---- LocalService: non-blocking handle + progress over a direct
    //      engine ----
    let local = LocalService::new(engine(false)?);
    let handle = local.submit(batch.clone(), RequestOptions::tagged(5, 1))?;
    let mut polls = 0_u32;
    let outcome = loop {
        if let Some(result) = handle.wait_timeout(Duration::from_millis(2)) {
            break result?;
        }
        polls += 1;
        let p = handle.progress();
        println!(
            "  in flight: {} layers forwarded, {} active / {} pruned",
            p.layers_forwarded, p.candidates_active, p.candidates_pruned
        );
    };
    let local_top = outcome.selection.top_ids();
    println!(
        "local   top-5 {:?} after {} layers ({} progress polls)",
        local_top, outcome.selection.trace.executed_layers, polls
    );

    // ---- RemoteService: the same facade over the batched server ----
    let server = PrismServer::start(
        engine(true)?,
        ServeConfig {
            workers: 2,
            max_batch_requests: 4,
            ..Default::default()
        },
    )?;
    let remote = server.service("example-session");

    // A generous deadline: aborted at a layer boundary if it ever
    // passed, otherwise no different from a request without one.
    let urgent = remote.submit(
        batch.clone(),
        RequestOptions::tagged(5, 1).with_deadline_us(30_000_000),
    )?;
    // A request we immediately regret: cancellation releases its
    // spill/scratch at the next layer boundary (or sheds it in-queue).
    let regretted = remote.submit(batch.clone(), RequestOptions::top_k(5))?;
    regretted.cancel();

    let remote_outcome = urgent.wait()?;
    println!(
        "remote  top-5 {:?} (ticket {}, batched {}-wide)",
        remote_outcome.selection.top_ids(),
        remote_outcome.ticket,
        remote_outcome.batch_size
    );
    match regretted.wait() {
        Err(ServiceError::Cancelled) => println!("regretted request: cancelled, as asked"),
        Ok(_) => println!("regretted request: finished before the cancel landed"),
        Err(e) => return Err(e.into()),
    }

    // An already-expired deadline is rejected at admission with the
    // typed error.
    match remote.submit(batch.clone(), RequestOptions::top_k(5).with_deadline_us(0)) {
        Err(ServiceError::DeadlineExceeded) => {
            println!("expired deadline: rejected at admission")
        }
        other => println!("unexpected admission outcome: {other:?}"),
    }

    // A full queue answers with typed backpressure and a `retry_after`
    // hint. Here one slot is held by a request waiting out a long
    // coalescing window; the service never retries on its own, so this
    // caller waits for the held work and then resubmits.
    let tight = PrismServer::start(
        engine(true)?,
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            max_batch_wait: Duration::from_millis(200),
            ..Default::default()
        },
    )?;
    let busy = tight.service("example-session");
    let held = busy.submit(batch.clone(), RequestOptions::tagged(5, 1))?;
    match busy.submit(batch.clone(), RequestOptions::tagged(5, 1)) {
        Err(ServiceError::Backpressure { retry_after, .. }) => {
            println!("full queue: backpressure, retry after ~{retry_after:?}");
            held.wait()?;
            let resubmitted = busy.select(batch.clone(), RequestOptions::tagged(5, 1))?;
            assert_eq!(resubmitted.selection.top_ids(), local_top);
            println!("resubmitted after the queue drained: same selection");
        }
        other => println!("unexpected admission outcome: {other:?}"),
    }
    tight.shutdown();

    // ---- One facade, one answer: backends agree bit-for-bit ----
    assert_eq!(
        remote_outcome.selection.top_ids(),
        local_top,
        "backends must agree on the same batch and tag"
    );
    println!("local and remote backends returned identical selections");

    let snap = server.stats().snapshot();
    println!(
        "server: {} completed, {} cancelled, {} deadline-rejected",
        snap.completed, snap.cancelled, snap.deadline_rejected
    );
    server.shutdown();
    std::fs::remove_file(&path)?;
    Ok(())
}

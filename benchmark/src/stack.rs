//! The system under test, started the way a deployment starts it:
//! `PrismEngine -> PrismServer -> WireServer` on an ephemeral loopback
//! port, reached only through `WireClient` sockets.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use prism_core::{EngineOptions, PrismEngine};
use prism_metrics::MemoryMeter;
use prism_model::Model;
use prism_serve::{PrismServer, ServeConfig};
use prism_storage::Container;
use prism_wire::{WireClient, WireServer};

use crate::inputs::RequestSource;
use crate::loadgen::{closed_loop, Stop};
use crate::spec::{WorkloadSpec, MODEL_SEED};
use crate::BenchError;

/// A directory removed when the guard drops: on success, on an error
/// return and on a panic alike.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> Result<Self, BenchError> {
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generates the workload's model and writes its weight container.
fn write_model(spec: &WorkloadSpec, dir: &Path) -> Result<PathBuf, BenchError> {
    let path = dir.join(format!("{}.prsm", spec.name));
    Model::generate(spec.model.clone(), MODEL_SEED)?.write_container(&path)?;
    Ok(path)
}

/// Opens an engine over a container, spilling under `dir`.
pub fn open_engine(
    spec: &WorkloadSpec,
    container: &Path,
    options: EngineOptions,
    dir: &Path,
) -> Result<PrismEngine, BenchError> {
    let engine = PrismEngine::new(
        Container::open(container)?,
        spec.model.clone(),
        options,
        MemoryMeter::new(),
    )?;
    Ok(engine.with_spill_dir(dir.to_path_buf()))
}

/// A running stack with its connected clients.
pub struct Stack {
    // Field order is drop order: sockets close before the listener, the
    // listener before the server it holds.
    pub clients: Vec<WireClient>,
    pub wire: WireServer,
    pub container: PathBuf,
}

impl Stack {
    /// Everything `setup_s` covers: model generation, container write,
    /// engine and server start, connect, warm-up.
    pub fn start(
        spec: &WorkloadSpec,
        source: &RequestSource,
        dir: &Path,
    ) -> Result<(Stack, f64), BenchError> {
        let t0 = Instant::now();
        let container = write_model(spec, dir)?;
        let engine = open_engine(spec, &container, spec.engine.clone(), dir)?;
        let config = ServeConfig {
            workers: 1,
            ..Default::default()
        };
        let server = Arc::new(PrismServer::start(engine, config)?);
        let wire = WireServer::start(server, "127.0.0.1:0")?;
        let addr = wire.local_addr().to_string();
        let clients = (0..spec.clients)
            .map(|c| WireClient::connect(&addr, format!("bench-{c}")))
            .collect::<Result<Vec<_>, _>>()?;
        let stack = Stack {
            clients,
            wire,
            container,
        };
        stack.warm_up(source)?;
        Ok((stack, t0.elapsed().as_secs_f64()))
    }

    /// Untimed traffic shaped like the measured traffic's closed loops
    /// (one request in flight per connection), so the queue-depth peak
    /// the server reports belongs to the measured run.
    fn warm_up(&self, source: &RequestSource) -> Result<(), BenchError> {
        let requests = source.warmup();
        let pass = closed_loop(
            &self.clients,
            |j| requests[j].clone(),
            Stop::Count(requests.len()),
        );
        match pass.samples.into_iter().find_map(|s| s.outcome.err()) {
            Some(e) => Err(BenchError(format!("warm-up request failed: {e}"))),
            None => Ok(()),
        }
    }

    pub fn server(&self) -> &PrismServer {
        self.wire.server()
    }

    pub fn meter(&self) -> &MemoryMeter {
        self.server().engine().meter()
    }
}
